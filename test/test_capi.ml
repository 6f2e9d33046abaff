(* Tests for the C-ABI-shaped façade (paper Listings 2–5). *)

module Buf = Mpicd_buf.Buf
module Mpi = Mpicd.Mpi
module Capi = Mpicd_capi.Capi

let check_int = Alcotest.(check int)

let test_univ () =
  let inj, prj = Capi.Univ.embed () in
  let u = inj 42 in
  Alcotest.(check (option int)) "roundtrip" (Some 42) (prj u);
  let inj2, prj2 = Capi.Univ.embed () in
  let u2 = inj2 "hello" in
  Alcotest.(check (option string)) "second type" (Some "hello") (prj2 u2);
  Alcotest.(check (option int)) "cross projection fails" None (prj u2)

(* A C-style custom datatype that byte-swaps pairs, with a state object
   counting callback invocations. *)
let make_counting_dt () =
  let inj, prj = Capi.Univ.embed () in
  let counts = ref (0, 0, 0, 0) in
  (* (state_calls, free_calls, pack_calls, unpack_calls) *)
  let statefn ~context:_ ~src:_ ~src_count:_ ~state =
    let a, b, c, d = !counts in
    counts := (a + 1, b, c, d);
    state := Some (inj "state");
    Capi.mpi_success
  in
  let freefn ~state =
    match Option.bind state prj with
    | Some "state" ->
        let a, b, c, d = !counts in
        counts := (a, b + 1, c, d);
        Capi.mpi_success
    | _ -> Capi.mpi_err_other
  in
  let queryfn ~state:_ ~buf ~count ~packed_size =
    packed_size := Buf.length buf * count;
    Capi.mpi_success
  in
  let packfn ~state:_ ~buf ~count:_ ~offset ~dst ~used =
    let len = min (Buf.length dst) (Buf.length buf - offset) in
    Buf.blit ~src:buf ~src_pos:offset ~dst ~dst_pos:0 ~len;
    used := len;
    let a, b, c, d = !counts in
    counts := (a, b, c + 1, d);
    Capi.mpi_success
  in
  let unpackfn ~state:_ ~buf ~count:_ ~offset ~src =
    Buf.blit ~src ~src_pos:0 ~dst:buf ~dst_pos:offset ~len:(Buf.length src);
    let a, b, c, d = !counts in
    counts := (a, b, c, d + 1);
    Capi.mpi_success
  in
  let dt = ref Capi.mpi_byte in
  let rc =
    Capi.mpi_type_create_custom ~statefn ~freefn ~queryfn ~packfn ~unpackfn
      ~region_countfn:None ~regionfn:None ~context:None ~inorder:1 dt
  in
  (rc, dt, counts)

let test_create_custom () =
  let rc, _, _ = make_counting_dt () in
  check_int "create succeeds" Capi.mpi_success rc

let test_create_mismatched_region_fns () =
  let rc, dt, _ = make_counting_dt () in
  check_int "setup" Capi.mpi_success rc;
  let rcf ~state:_ ~buf:_ ~count:_ ~region_count =
    region_count := 0;
    Capi.mpi_success
  in
  let rc2 =
    Capi.mpi_type_create_custom
      ~statefn:(fun ~context:_ ~src:_ ~src_count:_ ~state:_ -> Capi.mpi_success)
      ~freefn:(fun ~state:_ -> Capi.mpi_success)
      ~queryfn:(fun ~state:_ ~buf:_ ~count:_ ~packed_size:_ -> Capi.mpi_success)
      ~packfn:(fun ~state:_ ~buf:_ ~count:_ ~offset:_ ~dst:_ ~used:_ ->
        Capi.mpi_success)
      ~unpackfn:(fun ~state:_ ~buf:_ ~count:_ ~offset:_ ~src:_ -> Capi.mpi_success)
      ~region_countfn:(Some rcf) ~regionfn:None ~context:None ~inorder:1 dt
  in
  check_int "region fns must come in pairs" Capi.mpi_err_arg rc2

let test_send_recv_bytes () =
  let w = Mpi.create_world ~size:2 () in
  let src = Buf.of_string "capi-bytes" in
  let dst = Buf.create 10 in
  Mpi.run w (fun comm ->
      let rank = ref (-1) in
      check_int "rank rc" Capi.mpi_success (Capi.mpi_comm_rank ~comm ~rank);
      let size = ref 0 in
      check_int "size rc" Capi.mpi_success (Capi.mpi_comm_size ~comm ~size);
      check_int "size" 2 !size;
      if !rank = 0 then
        check_int "send rc" Capi.mpi_success
          (Capi.mpi_send ~buf:src ~count:10 ~datatype:Capi.mpi_byte ~dest:1
             ~tag:3 ~comm)
      else begin
        let status = Capi.mpi_status_ignore () in
        check_int "recv rc" Capi.mpi_success
          (Capi.mpi_recv ~buf:dst ~count:10 ~datatype:Capi.mpi_byte ~source:0
             ~tag:3 ~comm ~status);
        check_int "status source" 0 status.st_source;
        check_int "status tag" 3 status.st_tag;
        check_int "status len" 10 status.st_len;
        Alcotest.(check string) "payload" "capi-bytes" (Buf.to_string dst)
      end)

let test_send_recv_custom () =
  let rc, dt, counts = make_counting_dt () in
  check_int "create" Capi.mpi_success rc;
  let rc2, dt2, _ = make_counting_dt () in
  check_int "create recv" Capi.mpi_success rc2;
  let w = Mpi.create_world ~size:2 () in
  let src = Buf.of_string "0123456789abcdef" in
  let dst = Buf.create 16 in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        check_int "send rc" Capi.mpi_success
          (Capi.mpi_send ~buf:src ~count:1 ~datatype:!dt ~dest:1 ~tag:0 ~comm)
      else begin
        let status = Capi.mpi_status_ignore () in
        check_int "recv rc" Capi.mpi_success
          (Capi.mpi_recv ~buf:dst ~count:1 ~datatype:!dt2 ~source:0 ~tag:0 ~comm
             ~status);
        Alcotest.(check string) "payload" "0123456789abcdef" (Buf.to_string dst)
      end);
  let s, f, p, _ = !counts in
  check_int "statefn ran once" 1 s;
  check_int "freefn ran once" 1 f;
  Alcotest.(check bool) "packfn ran" true (p >= 1)

let test_custom_with_regions () =
  (* header + one region, C style *)
  let statefn ~context:_ ~src:_ ~src_count:_ ~state:_ = Capi.mpi_success in
  let freefn ~state:_ = Capi.mpi_success in
  let queryfn ~state:_ ~buf:_ ~count:_ ~packed_size =
    packed_size := 4;
    Capi.mpi_success
  in
  let packfn ~state:_ ~buf ~count:_ ~offset:_ ~dst ~used =
    Buf.set_i32 dst 0 (Int32.of_int (Buf.length buf - 4));
    used := 4;
    Capi.mpi_success
  in
  let unpackfn ~state:_ ~buf ~count:_ ~offset:_ ~src =
    if Int32.to_int (Buf.get_i32 src 0) <> Buf.length buf - 4 then
      Capi.mpi_err_other
    else Capi.mpi_success
  in
  let region_countfn ~state:_ ~buf:_ ~count:_ ~region_count =
    region_count := 1;
    Capi.mpi_success
  in
  let regionfn ~state:_ ~buf ~count:_ ~region_count:_ ~reg_bases ~reg_lens =
    reg_bases.(0) <- Some (Buf.sub buf ~pos:4 ~len:(Buf.length buf - 4));
    reg_lens.(0) <- Buf.length buf - 4;
    Capi.mpi_success
  in
  let dt = ref Capi.mpi_byte in
  check_int "create" Capi.mpi_success
    (Capi.mpi_type_create_custom ~statefn ~freefn ~queryfn ~packfn ~unpackfn
       ~region_countfn:(Some region_countfn) ~regionfn:(Some regionfn)
       ~context:None ~inorder:1 dt);
  let w = Mpi.create_world ~size:2 () in
  let src = Buf.of_string "lenghello-region" in
  let dst = Buf.create 16 in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        check_int "send" Capi.mpi_success
          (Capi.mpi_send ~buf:src ~count:1 ~datatype:!dt ~dest:1 ~tag:0 ~comm)
      else begin
        let status = Capi.mpi_status_ignore () in
        check_int "recv" Capi.mpi_success
          (Capi.mpi_recv ~buf:dst ~count:1 ~datatype:!dt ~source:0 ~tag:0 ~comm
             ~status)
      end);
  Alcotest.(check string) "region delivered" "hello-region"
    (Buf.to_string (Buf.sub dst ~pos:4 ~len:12))

let test_callback_error_code_surfaces () =
  let statefn ~context:_ ~src:_ ~src_count:_ ~state:_ = Capi.mpi_success in
  let freefn ~state:_ = Capi.mpi_success in
  let queryfn ~state:_ ~buf:_ ~count:_ ~packed_size =
    packed_size := 8;
    Capi.mpi_success
  in
  let packfn ~state:_ ~buf:_ ~count:_ ~offset:_ ~dst:_ ~used:_ = 77 in
  let unpackfn ~state:_ ~buf:_ ~count:_ ~offset:_ ~src:_ = Capi.mpi_success in
  let dt = ref Capi.mpi_byte in
  check_int "create" Capi.mpi_success
    (Capi.mpi_type_create_custom ~statefn ~freefn ~queryfn ~packfn ~unpackfn
       ~region_countfn:None ~regionfn:None ~context:None ~inorder:1 dt);
  let w = Mpi.create_world ~size:2 () in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then begin
        let rc =
          Capi.mpi_send ~buf:(Buf.create 8) ~count:1 ~datatype:!dt ~dest:1
            ~tag:0 ~comm
        in
        check_int "pack error code returned" 77 rc;
        (* unblock receiver *)
        ignore
          (Capi.mpi_send ~buf:(Buf.create 8) ~count:8 ~datatype:Capi.mpi_byte
             ~dest:1 ~tag:0 ~comm)
      end
      else begin
        let status = Capi.mpi_status_ignore () in
        ignore
          (Capi.mpi_recv ~buf:(Buf.create 8) ~count:8 ~datatype:Capi.mpi_byte
             ~source:0 ~tag:0 ~comm ~status)
      end)

(* A failing state callback's code comes back as the status code of
   MPI_Send and MPI_Recv, as a failing pack callback's does. *)
let test_state_error_code_surfaces () =
  let statefn ~context:_ ~src:_ ~src_count:_ ~state:_ = 5 in
  let freefn ~state:_ = Capi.mpi_success in
  let queryfn ~state:_ ~buf:_ ~count:_ ~packed_size =
    packed_size := 8;
    Capi.mpi_success
  in
  let packfn ~state:_ ~buf:_ ~count:_ ~offset:_ ~dst:_ ~used:_ = Capi.mpi_success in
  let unpackfn ~state:_ ~buf:_ ~count:_ ~offset:_ ~src:_ = Capi.mpi_success in
  let dt = ref Capi.mpi_byte in
  check_int "create" Capi.mpi_success
    (Capi.mpi_type_create_custom ~statefn ~freefn ~queryfn ~packfn ~unpackfn
       ~region_countfn:None ~regionfn:None ~context:None ~inorder:1 dt);
  let w = Mpi.create_world ~size:2 () in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then begin
        check_int "send: state error code returned" 5
          (Capi.mpi_send ~buf:(Buf.create 8) ~count:1 ~datatype:!dt ~dest:1
             ~tag:0 ~comm);
        let status = Capi.mpi_status_ignore () in
        check_int "recv: state error code returned" 5
          (Capi.mpi_recv ~buf:(Buf.create 8) ~count:1 ~datatype:!dt ~source:1
             ~tag:0 ~comm ~status)
      end)

let test_truncation_code () =
  let w = Mpi.create_world ~size:2 () in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        ignore
          (Capi.mpi_send ~buf:(Buf.create 100) ~count:100 ~datatype:Capi.mpi_byte
             ~dest:1 ~tag:0 ~comm)
      else begin
        let status = Capi.mpi_status_ignore () in
        let rc =
          Capi.mpi_recv ~buf:(Buf.create 10) ~count:10 ~datatype:Capi.mpi_byte
            ~source:0 ~tag:0 ~comm ~status
        in
        check_int "truncate code" Capi.mpi_err_truncate rc;
        check_int "status error" Capi.mpi_err_truncate status.st_error
      end)

let test_type_free () =
  let _, dt, _ = make_counting_dt () in
  check_int "free ok" Capi.mpi_success (Capi.mpi_type_free dt);
  check_int "double free rejected" Capi.mpi_err_type (Capi.mpi_type_free dt);
  let w = Mpi.create_world ~size:1 () in
  Mpi.run w (fun comm ->
      check_int "use after free rejected" Capi.mpi_err_type
        (Capi.mpi_send ~buf:(Buf.create 4) ~count:1 ~datatype:!dt ~dest:0 ~tag:0
           ~comm))

let test_nonblocking () =
  let w = Mpi.create_world ~size:2 () in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then begin
        let req = Capi.mpi_request_null () in
        check_int "isend rc" Capi.mpi_success
          (Capi.mpi_isend ~buf:(Buf.of_string "async") ~count:5
             ~datatype:Capi.mpi_byte ~dest:1 ~tag:4 ~comm ~request:req);
        let status = Capi.mpi_status_ignore () in
        check_int "wait rc" Capi.mpi_success (Capi.mpi_wait ~request:req ~status);
        (* waiting on the (now null) request is a no-op *)
        check_int "wait null rc" Capi.mpi_success
          (Capi.mpi_wait ~request:req ~status)
      end
      else begin
        (* probe first, then nonblocking receive + test loop *)
        let pstatus = Capi.mpi_status_ignore () in
        check_int "probe rc" Capi.mpi_success
          (Capi.mpi_probe ~source:0 ~tag:4 ~comm ~status:pstatus);
        check_int "probed len" 5 pstatus.st_len;
        let dst = Buf.create 5 in
        let req = Capi.mpi_request_null () in
        check_int "irecv rc" Capi.mpi_success
          (Capi.mpi_irecv ~buf:dst ~count:5 ~datatype:Capi.mpi_byte ~source:0
             ~tag:4 ~comm ~request:req);
        let status = Capi.mpi_status_ignore () in
        let flag = ref 0 in
        while !flag = 0 do
          check_int "test rc" Capi.mpi_success
            (Capi.mpi_test ~request:req ~flag ~status);
          (* polling must yield to the progress engine *)
          if !flag = 0 then
            Mpicd_simnet.Engine.sleep
              (Mpi.world_engine (Mpi.world_of comm))
              100.
        done;
        Alcotest.(check string) "payload" "async" (Buf.to_string dst)
      end)

let test_iprobe_empty () =
  let w = Mpi.create_world ~size:2 () in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 1 then begin
        let flag = ref 1 in
        let status = Capi.mpi_status_ignore () in
        check_int "iprobe rc" Capi.mpi_success
          (Capi.mpi_iprobe ~source:0 ~tag:0 ~comm ~flag ~status);
        check_int "no message" 0 !flag
      end)

let test_barrier () =
  let w = Mpi.create_world ~size:4 () in
  Mpi.run w (fun comm -> check_int "rc" Capi.mpi_success (Capi.mpi_barrier ~comm))

let suite =
  let tc = Alcotest.test_case in
  ( "capi",
    [
      tc "univ values" `Quick test_univ;
      tc "type_create_custom" `Quick test_create_custom;
      tc "region fns must pair" `Quick test_create_mismatched_region_fns;
      tc "send/recv bytes" `Quick test_send_recv_bytes;
      tc "send/recv custom + state lifecycle" `Quick test_send_recv_custom;
      tc "custom with regions" `Quick test_custom_with_regions;
      tc "callback error code surfaces" `Quick test_callback_error_code_surfaces;
      tc "truncation code" `Quick test_truncation_code;
      tc "type free semantics" `Quick test_type_free;
      tc "nonblocking isend/irecv/test/probe" `Quick test_nonblocking;
      tc "iprobe empty" `Quick test_iprobe_empty;
      tc "barrier" `Quick test_barrier;
      tc "state error code surfaces" `Quick test_state_error_code_surfaces;
    ] )
