module Buf = Mpicd_buf.Buf
module Engine = Mpicd_simnet.Engine
module Config = Mpicd_simnet.Config
module Stats = Mpicd_simnet.Stats
module Pickle = Mpicd_pickle.Pickle
module Custom = Mpicd.Custom
module Mpi = Mpicd.Mpi
module K = Mpi.Internal

type strategy = Pickle_basic | Pickle_oob | Pickle_oob_cdt

let strategy_name = function
  | Pickle_basic -> "pickle-basic"
  | Pickle_oob -> "pickle-oob"
  | Pickle_oob_cdt -> "pickle-oob-cdt"

let engine_of comm = Mpi.world_engine (Mpi.world_of comm)
let config_of comm = Mpi.world_config (Mpi.world_of comm)
let stats_of comm = Mpi.world_stats (Mpi.world_of comm)

let charge comm t = Engine.sleep (engine_of comm) t

(* Cost of walking the object graph in the Python interpreter. *)
let charge_visit comm obj =
  charge comm
    (float_of_int (Pickle.visit_count obj) *. (config_of comm).cpu.object_visit_ns)

let charge_alloc comm bytes =
  Stats.record_alloc (stats_of comm) bytes;
  charge comm (Config.alloc_time (config_of comm).cpu bytes)

let charge_copy comm bytes =
  Stats.record_copy (stats_of comm) bytes;
  charge comm (Config.memcpy_time (config_of comm).cpu bytes)

(* --- the custom datatype for pickled objects (send side carries the
   real header + buffers; the receive side carries pre-allocated
   sinks) --- *)

type pickled = { header : Buf.t; buffers : Buf.t array }

let pickled_dt : pickled Custom.t =
  Custom.create
    {
      state = (fun _ ~count:_ -> ());
      state_free = ignore;
      query = (fun () p ~count:_ -> Buf.length p.header);
      pack =
        (fun () p ~count:_ ~offset ~dst ->
          let len = min (Buf.length dst) (Buf.length p.header - offset) in
          Buf.blit ~src:p.header ~src_pos:offset ~dst ~dst_pos:0 ~len;
          len);
      unpack =
        (fun () p ~count:_ ~offset ~src ->
          Buf.blit ~src ~src_pos:0 ~dst:p.header ~dst_pos:offset
            ~len:(Buf.length src));
      region_count = Some (fun () p ~count:_ -> Array.length p.buffers);
      regions = Some (fun () p ~count:_ -> Buf.Iov.of_array p.buffers);
    }

(* Length vector wire format: [n; header_len; len_0; ...; len_{n-1}]
   as little-endian i64. *)
let encode_lengths ~header_len lens =
  let n = Array.length lens in
  let b = Buf.create (8 * (n + 2)) in
  Buf.set_i64 b 0 (Int64.of_int n);
  Buf.set_i64 b 8 (Int64.of_int header_len);
  Array.iteri (fun i l -> Buf.set_i64 b (8 * (i + 2)) (Int64.of_int l)) lens;
  b

let decode_lengths b =
  (* Validate before trusting: under unsafe multithreaded interleaving
     (see {!Threaded}) an arbitrary data message can arrive here. *)
  if Buf.length b < 16 || Buf.length b mod 8 <> 0 then
    raise (Pickle.Corrupt "implausible length vector");
  let n = Int64.to_int (Buf.get_i64 b 0) in
  let header_len = Int64.to_int (Buf.get_i64 b 8) in
  if n < 0 || Buf.length b <> 8 * (n + 2) || header_len < 0 then
    raise (Pickle.Corrupt "implausible length vector");
  let lens = Array.init n (fun i -> Int64.to_int (Buf.get_i64 b (8 * (i + 2)))) in
  Array.iter
    (fun l -> if l < 0 || l > 1 lsl 31 then raise (Pickle.Corrupt "bad buffer length"))
    lens;
  (header_len, lens)

(* --- send --- *)

let send strategy comm ~dst ~tag obj =
  match strategy with
  | Pickle_basic ->
      charge_visit comm obj;
      let stream = Pickle.dumps obj in
      (* The in-band stream is a fresh allocation holding a copy of
         every payload byte: the memory-doubling of §II-C. *)
      charge_alloc comm (Buf.length stream);
      charge_copy comm (Pickle.payload_bytes obj);
      K.send_k comm K.Objmsg ~dst ~tag (Mpi.Bytes stream);
      Stats.record_free (stats_of comm) (Buf.length stream)
  | Pickle_oob ->
      charge_visit comm obj;
      let header, buffers = Pickle.dumps_oob obj in
      charge_alloc comm (Buf.length header);
      let lens = Array.of_list (List.map Buf.length buffers) in
      (* header, then the length vector, then one message per buffer *)
      K.send_k comm K.Objmsg ~dst ~tag (Mpi.Bytes header);
      K.send_k comm K.Objmsg_aux ~dst ~tag
        (Mpi.Bytes (encode_lengths ~header_len:(Buf.length header) lens));
      List.iter (fun b -> K.send_k comm K.Objmsg_aux ~dst ~tag (Mpi.Bytes b)) buffers;
      Stats.record_free (stats_of comm) (Buf.length header)
  | Pickle_oob_cdt ->
      charge_visit comm obj;
      let header, buffers = Pickle.dumps_oob obj in
      charge_alloc comm (Buf.length header);
      let buffers = Array.of_list buffers in
      let lens = Array.map Buf.length buffers in
      (* The receive side must know the region sizes in advance (§VI
         limitation): one small auxiliary message, then a single custom
         datatype operation carries header + regions. *)
      K.send_k comm K.Objmsg_aux ~dst ~tag
        (Mpi.Bytes (encode_lengths ~header_len:(Buf.length header) lens));
      K.send_k comm K.Objmsg ~dst ~tag
        (Mpi.Custom { dt = pickled_dt; obj = { header; buffers }; count = 1 });
      Stats.record_free (stats_of comm) (Buf.length header)

(* --- recv --- *)

let recv strategy comm ?source ?tag () =
  match strategy with
  | Pickle_basic ->
      (* size unknown: Mprobe, allocate, receive, unpickle *)
      let st, msg = K.mprobe_k comm K.Objmsg ?source ?tag () in
      let stream = Buf.create st.len in
      charge_alloc comm st.len;
      let st = K.mrecv_k comm K.Objmsg msg (Mpi.Bytes stream) in
      let obj = Pickle.loads stream in
      charge_visit comm obj;
      (* unpickling copies every payload into fresh arrays *)
      charge_alloc comm (Pickle.payload_bytes obj);
      charge_copy comm (Pickle.payload_bytes obj);
      Stats.record_free (stats_of comm) st.len;
      (obj, st)
  | Pickle_oob ->
      let st, msg = K.mprobe_k comm K.Objmsg ?source ?tag () in
      let header = Buf.create st.len in
      charge_alloc comm st.len;
      let st = K.mrecv_k comm K.Objmsg msg (Mpi.Bytes header) in
      let source = st.source and tag = st.tag in
      (* the length vector tells us what to allocate *)
      let lst, lmsg = K.mprobe_k comm K.Objmsg_aux ~source ~tag () in
      let lbuf = Buf.create lst.len in
      ignore (K.mrecv_k comm K.Objmsg_aux lmsg (Mpi.Bytes lbuf));
      let _header_len, lens = decode_lengths lbuf in
      let buffers =
        Array.to_list
          (Array.map
             (fun len ->
               let b = Buf.create len in
               charge_alloc comm len;
               b)
             lens)
      in
      (* one receive per out-of-band buffer *)
      let total = ref st.len in
      List.iter
        (fun b ->
          let s = K.recv_k comm K.Objmsg_aux ~source ~tag (Mpi.Bytes b) in
          total := !total + s.len)
        buffers;
      let obj = Pickle.loads ~buffers header in
      charge_visit comm obj;
      Stats.record_free (stats_of comm) (Buf.length header);
      (obj, { st with len = !total })
  | Pickle_oob_cdt ->
      (* auxiliary length message first *)
      let lst, lmsg = K.mprobe_k comm K.Objmsg_aux ?source ?tag () in
      let lbuf = Buf.create lst.len in
      ignore (K.mrecv_k comm K.Objmsg_aux lmsg (Mpi.Bytes lbuf));
      let source = lst.source and tag = lst.tag in
      let header_len, lens = decode_lengths lbuf in
      let header = Buf.create header_len in
      charge_alloc comm header_len;
      let buffers =
        Array.map
          (fun len ->
            let b = Buf.create len in
            charge_alloc comm len;
            b)
          lens
      in
      (* a single custom-datatype receive delivers header + regions *)
      let st =
        K.recv_k comm K.Objmsg ~source ~tag
          (Mpi.Custom { dt = pickled_dt; obj = { header; buffers }; count = 1 })
      in
      let obj = Pickle.loads ~buffers:(Array.to_list buffers) header in
      charge_visit comm obj;
      Stats.record_free (stats_of comm) header_len;
      (obj, st)

let messages_per_object strategy obj =
  match strategy with
  | Pickle_basic -> 1
  | Pickle_oob ->
      let _, buffers = Pickle.dumps_oob obj in
      2 + List.length buffers
  | Pickle_oob_cdt -> 2
