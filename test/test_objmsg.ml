(* Tests for the mpi4py-style object messaging layer. *)

module Buf = Mpicd_buf.Buf
module P = Mpicd_pickle.Pickle
module Mpi = Mpicd.Mpi
module Stats = Mpicd_simnet.Stats
module Objmsg = Mpicd_objmsg.Objmsg

let check_int = Alcotest.(check int)

let sample_object () =
  P.Dict
    [
      (P.Str "name", P.Str "halo");
      (P.Str "step", P.Int 42L);
      (P.Str "field", P.Ndarray (P.ndarray_of_floats (Array.init 512 float_of_int)));
      ( P.Str "parts",
        P.List
          [
            P.Ndarray (P.ndarray ~dtype:P.I32 [| 100 |]);
            P.Tuple [ P.Bool true; P.Float 0.5 ];
          ] );
    ]

let exchange strategy obj =
  let w = Mpi.create_world ~size:2 () in
  let got = ref P.None_ in
  let st = ref None in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then Objmsg.send strategy comm ~dst:1 ~tag:3 obj
      else begin
        let o, s = Objmsg.recv strategy comm ~source:0 ~tag:3 () in
        got := o;
        st := Some s
      end);
  (!got, Option.get !st, Mpi.world_stats w)

let test_strategy strategy () =
  let obj = sample_object () in
  let got, st, _ = exchange strategy obj in
  Alcotest.(check bool)
    (Objmsg.strategy_name strategy ^ " delivers equal object")
    true (P.equal obj got);
  check_int "status source" 0 st.source;
  check_int "status tag" 3 st.tag

let test_basic () = test_strategy Objmsg.Pickle_basic ()
let test_oob () = test_strategy Objmsg.Pickle_oob ()
let test_oob_cdt () = test_strategy Objmsg.Pickle_oob_cdt ()

let test_strategies_agree () =
  let obj = sample_object () in
  let a, _, _ = exchange Objmsg.Pickle_basic obj in
  let b, _, _ = exchange Objmsg.Pickle_oob obj in
  let c, _, _ = exchange Objmsg.Pickle_oob_cdt obj in
  Alcotest.(check bool) "basic = oob" true (P.equal a b);
  Alcotest.(check bool) "oob = cdt" true (P.equal b c)

let test_scalar_only_objects () =
  (* no arrays: oob degenerates gracefully (no buffers) *)
  let obj = P.List [ P.Int 1L; P.Str "x"; P.None_ ] in
  List.iter
    (fun s ->
      let got, _, _ = exchange s obj in
      Alcotest.(check bool) (Objmsg.strategy_name s) true (P.equal obj got))
    [ Objmsg.Pickle_basic; Objmsg.Pickle_oob; Objmsg.Pickle_oob_cdt ]

let test_message_counts () =
  let obj = sample_object () in
  (* sample object has 2 arrays above the oob threshold *)
  check_int "basic: one message" 1
    (Objmsg.messages_per_object Objmsg.Pickle_basic obj);
  check_int "oob: header + lengths + one per buffer" 4
    (Objmsg.messages_per_object Objmsg.Pickle_oob obj);
  check_int "cdt: lengths + single custom message" 2
    (Objmsg.messages_per_object Objmsg.Pickle_oob_cdt obj)

let test_wire_message_counts_observed () =
  let obj = sample_object () in
  let count strategy =
    let _, _, stats = exchange strategy obj in
    (Stats.get stats Messages_sent)
  in
  let basic = count Objmsg.Pickle_basic in
  let oob = count Objmsg.Pickle_oob in
  let cdt = count Objmsg.Pickle_oob_cdt in
  check_int "basic" 1 basic;
  check_int "oob" 4 oob;
  check_int "cdt" 2 cdt

let test_basic_copies_payload_oob_does_not () =
  let big = P.Ndarray (P.ndarray [| 512 * 1024 |]) in
  let payload = P.payload_bytes big in
  let _, _, s_basic = exchange Objmsg.Pickle_basic big in
  let _, _, s_cdt = exchange Objmsg.Pickle_oob_cdt big in
  Alcotest.(check bool) "basic copies >= 2x payload" true
    (Stats.get s_basic Bytes_copied >= 2 * payload);
  Alcotest.(check bool) "cdt copies << payload" true
    (Stats.get s_cdt Bytes_copied < payload / 10)

let test_memory_amplification () =
  (* peak allocation: basic buffers the serialized stream on both
     sides; the oob strategies never hold a full extra copy. *)
  let big = P.Ndarray (P.ndarray [| 1024 * 1024 |]) in
  let payload = P.payload_bytes big in
  let _, _, s_basic = exchange Objmsg.Pickle_basic big in
  let _, _, s_oob = exchange Objmsg.Pickle_oob big in
  Alcotest.(check bool) "basic peak >= 2x payload" true
    (s_basic.peak_alloc_bytes >= 2 * payload);
  Alcotest.(check bool) "oob peak < 1.5x payload" true
    (s_oob.peak_alloc_bytes < payload * 3 / 2)

let test_interleaved_tags () =
  (* two objects on different tags, received in reverse order *)
  let o1 = P.Str "first" and o2 = P.Str "second" in
  let w = Mpi.create_world ~size:2 () in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then begin
        Objmsg.send Objmsg.Pickle_basic comm ~dst:1 ~tag:1 o1;
        Objmsg.send Objmsg.Pickle_basic comm ~dst:1 ~tag:2 o2
      end
      else begin
        let got2, _ = Objmsg.recv Objmsg.Pickle_basic comm ~source:0 ~tag:2 () in
        let got1, _ = Objmsg.recv Objmsg.Pickle_basic comm ~source:0 ~tag:1 () in
        Alcotest.(check bool) "tag 2" true (P.equal o2 got2);
        Alcotest.(check bool) "tag 1" true (P.equal o1 got1)
      end)

let test_pingpong_multiple_rounds () =
  let w = Mpi.create_world ~size:2 () in
  let obj = sample_object () in
  Mpi.run w (fun comm ->
      for round = 1 to 5 do
        if Mpi.rank comm = 0 then begin
          Objmsg.send Objmsg.Pickle_oob_cdt comm ~dst:1 ~tag:round obj;
          let got, _ = Objmsg.recv Objmsg.Pickle_oob_cdt comm ~source:1 ~tag:round () in
          Alcotest.(check bool) "echo equal" true (P.equal obj got)
        end
        else begin
          let got, _ = Objmsg.recv Objmsg.Pickle_oob_cdt comm ~source:0 ~tag:round () in
          Objmsg.send Objmsg.Pickle_oob_cdt comm ~dst:0 ~tag:round got
        end
      done)

let suite =
  let tc = Alcotest.test_case in
  ( "objmsg",
    [
      tc "pickle-basic roundtrip" `Quick test_basic;
      tc "pickle-oob roundtrip" `Quick test_oob;
      tc "pickle-oob-cdt roundtrip" `Quick test_oob_cdt;
      tc "strategies agree" `Quick test_strategies_agree;
      tc "scalar-only objects" `Quick test_scalar_only_objects;
      tc "declared message counts" `Quick test_message_counts;
      tc "observed wire message counts" `Quick test_wire_message_counts_observed;
      tc "basic copies payload, cdt does not" `Quick test_basic_copies_payload_oob_does_not;
      tc "memory amplification of basic pickle" `Quick test_memory_amplification;
      tc "interleaved tags" `Quick test_interleaved_tags;
      tc "pingpong multiple rounds" `Quick test_pingpong_multiple_rounds;
    ] )
