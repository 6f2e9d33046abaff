module Buf = Mpicd_buf.Buf
module Mpi = Mpicd.Mpi
module Custom = Mpicd.Custom

module Univ = struct
  type t = exn

  let embed (type a) () =
    let module M = struct exception E of a end in
    ((fun x -> M.E x), function M.E x -> Some x | _ -> None)
end

let mpi_success = 0
let mpi_err_arg = 1
let mpi_err_truncate = 2
let mpi_err_type = 3
let mpi_err_other = 16

type count = int

type state_function =
  context:Univ.t option ->
  src:Buf.t ->
  src_count:count ->
  state:Univ.t option ref ->
  int

type state_free_function = state:Univ.t option -> int

type query_function =
  state:Univ.t option -> buf:Buf.t -> count:count -> packed_size:count ref -> int

type pack_function =
  state:Univ.t option ->
  buf:Buf.t ->
  count:count ->
  offset:count ->
  dst:Buf.t ->
  used:count ref ->
  int

type unpack_function =
  state:Univ.t option ->
  buf:Buf.t ->
  count:count ->
  offset:count ->
  src:Buf.t ->
  int

type region_count_function =
  state:Univ.t option -> buf:Buf.t -> count:count -> region_count:count ref -> int

type region_function =
  state:Univ.t option ->
  buf:Buf.t ->
  count:count ->
  region_count:count ->
  reg_bases:Buf.t option array ->
  reg_lens:count array ->
  int

type datatype = Byte | Custom_dt of Buf.t Custom.t | Freed

let mpi_byte = Byte

(* Convert a C-style status code into the exception the engine's
   callback plumbing expects. *)
let check code = if code <> mpi_success then raise (Custom.Error code)

let mpi_type_create_custom ~statefn ~freefn ~queryfn ~packfn ~unpackfn
    ~region_countfn ~regionfn ~context ~inorder out =
  match (region_countfn, regionfn) with
  | Some _, None | None, Some _ -> mpi_err_arg
  | _ ->
      let callbacks : (Buf.t, Univ.t option) Custom.callbacks =
        {
          state =
            (fun buf ~count ->
              let state = ref None in
              check (statefn ~context ~src:buf ~src_count:count ~state);
              !state);
          state_free = (fun state -> check (freefn ~state));
          query =
            (fun state buf ~count ->
              let packed_size = ref 0 in
              check (queryfn ~state ~buf ~count ~packed_size);
              !packed_size);
          pack =
            (fun state buf ~count ~offset ~dst ->
              let used = ref 0 in
              check (packfn ~state ~buf ~count ~offset ~dst ~used);
              !used);
          unpack =
            (fun state buf ~count ~offset ~src ->
              check (unpackfn ~state ~buf ~count ~offset ~src));
          region_count =
            Option.map
              (fun f state buf ~count ->
                let region_count = ref 0 in
                check (f ~state ~buf ~count ~region_count);
                !region_count)
              region_countfn;
          regions =
            (match (regionfn, region_countfn) with
            | Some rf, Some cf ->
                Some
                  (fun state buf ~count ->
                    let region_count = ref 0 in
                    check (cf ~state ~buf ~count ~region_count);
                    let n = !region_count in
                    let reg_bases = Array.make n None in
                    let reg_lens = Array.make n 0 in
                    check
                      (rf ~state ~buf ~count ~region_count:n ~reg_bases
                         ~reg_lens);
                    Buf.Iov.of_array
                      (Array.mapi
                         (fun i base ->
                           match base with
                           | None -> raise (Custom.Error mpi_err_arg)
                           | Some b ->
                               if Buf.length b <> reg_lens.(i) then
                                 raise (Custom.Error mpi_err_arg);
                               b)
                         reg_bases))
            | _ -> None);
        }
      in
      out := Custom_dt (Custom.create ~inorder:(inorder <> 0) callbacks);
      mpi_success

let mpi_type_free out =
  match !out with
  | Freed -> mpi_err_type
  | Byte | Custom_dt _ ->
      out := Freed;
      mpi_success

type mpi_status = {
  mutable st_source : int;
  mutable st_tag : int;
  mutable st_len : count;
  mutable st_error : int;
}

let mpi_status_ignore () =
  { st_source = -1; st_tag = -1; st_len = 0; st_error = mpi_success }

let buffer_of ~buf ~count = function
  | Byte ->
      if count > Buf.length buf then None
      else Some (Mpi.Bytes (Buf.sub buf ~pos:0 ~len:count))
  | Custom_dt dt -> Some (Mpi.Custom { dt; obj = buf; count })
  | Freed -> None

let code_of_error : Mpi.error -> int = function
  | Mpi.Truncated _ -> mpi_err_truncate
  | Mpi.Callback_failed c -> c
  | Mpi.Timeout _ | Mpi.Peer_failed _ | Mpi.Data_corrupted | Mpi.Revoked ->
      mpi_err_other

let mpi_send ~buf ~count ~datatype ~dest ~tag ~comm =
  match buffer_of ~buf ~count datatype with
  | None -> mpi_err_type
  | Some b -> (
      match Mpi.send comm ~dst:dest ~tag b with
      | () -> mpi_success
      | exception Mpi.Mpi_error e -> code_of_error e
      | exception Invalid_argument _ -> mpi_err_arg)

let mpi_recv ~buf ~count ~datatype ~source ~tag ~comm ~status =
  match buffer_of ~buf ~count datatype with
  | None -> mpi_err_type
  | Some b -> (
      match Mpi.recv comm ~source ~tag b with
      | st ->
          status.st_source <- st.source;
          status.st_tag <- st.tag;
          status.st_len <- st.len;
          status.st_error <- mpi_success;
          mpi_success
      | exception Mpi.Mpi_error e ->
          let code = code_of_error e in
          status.st_error <- code;
          code
      | exception Invalid_argument _ -> mpi_err_arg)

let mpi_comm_rank ~comm ~rank =
  rank := Mpi.rank comm;
  mpi_success

let mpi_comm_size ~comm ~size =
  size := Mpi.size comm;
  mpi_success

let mpi_barrier ~comm =
  Mpi.barrier comm;
  mpi_success

(* --- nonblocking operations --- *)

type mpi_request = Req_null | Req of Mpi.request

let mpi_request_null () = ref Req_null

let fill_status status (st : Mpi.status) =
  status.st_source <- st.source;
  status.st_tag <- st.tag;
  status.st_len <- st.len;
  status.st_error <- mpi_success

let mpi_isend ~buf ~count ~datatype ~dest ~tag ~comm ~request =
  match buffer_of ~buf ~count datatype with
  | None -> mpi_err_type
  | Some b -> (
      match Mpi.isend comm ~dst:dest ~tag b with
      | r ->
          request := Req r;
          mpi_success
      | exception Invalid_argument _ -> mpi_err_arg)

let mpi_irecv ~buf ~count ~datatype ~source ~tag ~comm ~request =
  match buffer_of ~buf ~count datatype with
  | None -> mpi_err_type
  | Some b -> (
      match Mpi.irecv comm ~source ~tag b with
      | r ->
          request := Req r;
          mpi_success
      | exception Invalid_argument _ -> mpi_err_arg)

let mpi_wait ~request ~status =
  match !request with
  | Req_null -> mpi_success
  | Req r -> (
      request := Req_null;
      match Mpi.wait r with
      | st ->
          fill_status status st;
          mpi_success
      | exception Mpi.Mpi_error e ->
          let code = code_of_error e in
          status.st_error <- code;
          code)

let mpi_test ~request ~flag ~status =
  match !request with
  | Req_null ->
      flag := 1;
      mpi_success
  | Req r -> (
      match Mpi.test r with
      | None ->
          flag := 0;
          mpi_success
      | Some st ->
          flag := 1;
          request := Req_null;
          fill_status status st;
          mpi_success
      | exception Mpi.Mpi_error e ->
          flag := 1;
          request := Req_null;
          let code = code_of_error e in
          status.st_error <- code;
          code)

let mpi_probe ~source ~tag ~comm ~status =
  match Mpi.probe comm ~source ~tag () with
  | st ->
      fill_status status st;
      mpi_success
  | exception Invalid_argument _ -> mpi_err_arg

let mpi_iprobe ~source ~tag ~comm ~flag ~status =
  match Mpi.iprobe comm ~source ~tag () with
  | Some st ->
      flag := 1;
      fill_status status st;
      mpi_success
  | None ->
      flag := 0;
      mpi_success
  | exception Invalid_argument _ -> mpi_err_arg
