(* Tests for fault injection: the simnet fault plan, the transport's
   reliable-delivery protocol, and MPI-level error propagation.

   The zero-overhead test pins latency and counters to constants
   captured on the tree *before* fault injection existed: with no plan
   attached, every measurement must stay bit-identical. *)

module Buf = Mpicd_buf.Buf
module Engine = Mpicd_simnet.Engine
module Config = Mpicd_simnet.Config
module Stats = Mpicd_simnet.Stats
module Fault = Mpicd_simnet.Fault
module Ucx = Mpicd_ucx.Ucx
module Obs = Mpicd_obs.Obs
module Mpi = Mpicd.Mpi
module Custom = Mpicd.Custom
module Dt = Mpicd_datatype.Datatype
module H = Mpicd_harness.Harness
module Registry = Mpicd_ddtbench.Registry
module Kernel = Mpicd_ddtbench.Kernel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 0.))

let pattern n =
  let b = Buf.create n in
  for i = 0 to n - 1 do
    Buf.set_u8 b i ((i * 31 + 7) land 0xff)
  done;
  b

(* --- the Fault plan itself --- *)

let test_plan_string_roundtrip () =
  let p =
    Fault.make ~seed:9
      ~link:
        {
          Fault.clean_link with
          drop_p = 0.05;
          corrupt_p = 0.01;
          flap_period_ns = 1000.;
          flap_down_ns = 100.;
        }
      ~crashes:[ (1, 5000.) ] ~max_retries:4 ~rto_ns:1000. ~backoff:1.5
      ~rndv_timeout_ns:2000. ()
  in
  (match Fault.of_string (Fault.to_string p) with
  | Ok q -> check_bool "of_string (to_string p) = p" true (p = q)
  | Error e -> Alcotest.fail e);
  (match Fault.of_string "seed=3,drop=0.5,flap=1000/100,crash=1@5000,retries=2" with
  | Ok q ->
      check_int "seed" 3 q.Fault.seed;
      check_float "drop" 0.5 q.Fault.link.Fault.drop_p;
      check_float "flap period" 1000. q.Fault.link.Fault.flap_period_ns;
      check_float "flap down" 100. q.Fault.link.Fault.flap_down_ns;
      check_bool "crash" true (q.Fault.crashes = [ (1, 5000.) ]);
      check_int "retries" 2 q.Fault.max_retries
  | Error e -> Alcotest.fail e);
  match Fault.of_string "bogus=1" with
  | Ok _ -> Alcotest.fail "unknown keys must be rejected"
  | Error _ -> ()

(* Property: [of_string (to_string p) = Ok p] for any plan reachable
   from the string grammar.  Numeric fields are drawn from small pools
   of values that survive the canonical [%g] printing exactly, so the
   property tests the grammar, not float formatting. *)
let gen_plan =
  let open QCheck.Gen in
  let prob = oneofl [ 0.; 0.05; 0.1; 0.25; 0.5; 1. ] in
  let ns = oneofl [ 500.; 1000.; 2500.; 50_000.; 100_000. ] in
  let ns0 = oneofl [ 0.; 500.; 1000.; 2500.; 50_000.; 100_000. ] in
  let flap =
    oneof
      [
        return (0., 0.);
        map2 (fun a b -> (Float.max a b, Float.min a b)) ns ns;
      ]
  in
  let crash = map2 (fun r t -> (r, t)) (0 -- 7) ns in
  let injection =
    let* inj_kind = oneofl [ Fault.Inj_drop; Fault.Inj_corrupt ] in
    let* inj_src = 0 -- 7 and* inj_dst = 0 -- 7 in
    let* inj_mseq = 0 -- 30 and* inj_frag = 0 -- 4 in
    return { Fault.inj_kind; inj_src; inj_dst; inj_mseq; inj_frag }
  in
  let partition =
    let* part_group = list_size (1 -- 3) (0 -- 7) in
    let* part_start_ns = ns0 and* part_dur_ns = ns in
    return { Fault.part_group; part_start_ns; part_dur_ns }
  in
  let straggler =
    map2 (fun r f -> (r, f)) (0 -- 7) (oneofl [ 1.; 1.5; 2.; 4.; 16. ])
  in
  let* seed = 0 -- 10_000 in
  let* drop_p = prob and* corrupt_p = prob and* dup_p = prob in
  let* delay_p = prob and* delay_ns = ns0 in
  let* flap_period_ns, flap_down_ns = flap in
  let* crashes = list_size (0 -- 3) crash in
  let* injections = list_size (0 -- 3) injection in
  let* partitions = list_size (0 -- 2) partition in
  let* stragglers = list_size (0 -- 2) straggler in
  let* max_retries = 0 -- 8 in
  let* rto_ns = ns in
  let* backoff = oneofl [ 1.; 1.5; 2.; 3. ] in
  let* rndv_timeout_ns = ns0 in
  let* hb_period_ns = ns0 in
  return
    (Fault.make ~seed
       ~link:
         {
           Fault.drop_p;
           corrupt_p;
           dup_p;
           delay_p;
           delay_ns;
           flap_period_ns;
           flap_down_ns;
         }
       ~crashes ~injections ~partitions ~stragglers ~max_retries ~rto_ns
       ~backoff ~rndv_timeout_ns ~hb_period_ns ())

(* Shrinker over the plan grammar: candidates keep to the same value
   pools the generator draws from, so a shrunk counterexample is still
   a plan the generator could have produced.  Order matters — structure
   first (drop one scheduled fault), then probabilities, then knobs —
   so qcheck reports the smallest plan that still fails. *)
let shrink_plan (p : Fault.t) yield =
  let drop_one xs k =
    List.iteri (fun i _ -> k (List.filteri (fun j _ -> j <> i) xs)) xs
  in
  drop_one p.Fault.crashes (fun crashes -> yield { p with Fault.crashes });
  drop_one p.Fault.injections (fun injections ->
      yield { p with Fault.injections });
  drop_one p.Fault.partitions (fun partitions ->
      yield { p with Fault.partitions });
  drop_one p.Fault.stragglers (fun stragglers ->
      yield { p with Fault.stragglers });
  let l = p.Fault.link in
  if l.Fault.drop_p > 0. then
    yield { p with Fault.link = { l with Fault.drop_p = 0. } };
  if l.Fault.corrupt_p > 0. then
    yield { p with Fault.link = { l with Fault.corrupt_p = 0. } };
  if l.Fault.dup_p > 0. then
    yield { p with Fault.link = { l with Fault.dup_p = 0. } };
  if l.Fault.delay_p > 0. then
    yield { p with Fault.link = { l with Fault.delay_p = 0. } };
  if l.Fault.flap_period_ns > 0. then
    yield
      { p with Fault.link = { l with Fault.flap_period_ns = 0.; flap_down_ns = 0. } };
  if p.Fault.max_retries > 0 then
    yield { p with Fault.max_retries = p.Fault.max_retries / 2 };
  if p.Fault.seed > 0 then yield { p with Fault.seed = p.Fault.seed / 2 };
  if p.Fault.hb_period_ns > 0. then yield { p with Fault.hb_period_ns = 0. }

(* The shrinker must preserve grammar-reachability: every candidate it
   proposes still roundtrips through the plan string. *)
let prop_shrink_stays_in_grammar =
  QCheck.Test.make ~name:"faults: shrink candidates stay in the grammar"
    ~count:200
    (QCheck.make ~print:Fault.to_string gen_plan)
    (fun p ->
      let ok = ref true in
      shrink_plan p (fun q ->
          match Fault.of_string (Fault.to_string q) with
          | Ok q' when q' = q -> ()
          | _ -> ok := false);
      !ok)

let prop_plan_roundtrip =
  QCheck.Test.make ~name:"faults: of_string (to_string p) = p" ~count:500
    (QCheck.make ~print:Fault.to_string
       ~shrink:shrink_plan
       gen_plan)
    (fun p ->
      match Fault.of_string (Fault.to_string p) with
      | Ok q -> p = q
      | Error e -> QCheck.Test.fail_reportf "rejected own output: %s" e)

let test_malformed_plans () =
  let expect_err s frag =
    match Fault.of_string s with
    | Ok _ -> Alcotest.failf "%S parsed" s
    | Error m ->
        let has_frag =
          let fl = String.length frag and ml = String.length m in
          let rec scan i =
            i + fl <= ml && (String.sub m i fl = frag || scan (i + 1))
          in
          scan 0
        in
        if not has_frag then
          Alcotest.failf "%S: error %S does not mention %S" s m frag
  in
  expect_err "bogus=1" {|unknown key "bogus"|};
  expect_err "drop" "expected key=value";
  expect_err "drop=oops" "non-negative number";
  expect_err "drop=-0.5" "non-negative number";
  expect_err "seed=1.5" "integer";
  expect_err "crash=5" "RANK@TIME";
  expect_err "crash=x@100" "integer";
  expect_err "flap=1000" "PERIOD/DOWN";
  expect_err "flap=100/1000" "exceeds period";
  expect_err "retries=-1" "retries must be >= 0";
  expect_err "backoff=0.5" "backoff must be >= 1";
  expect_err "inj=bogus:0.1.2.3" "unknown injection kind";
  expect_err "inj=drop:0.1.2" "KIND:SRC.DST.MSEQ.FRAG";
  expect_err "part=@100+5" "part group is empty";
  expect_err "part=0@5" "GROUP@START+DUR";
  expect_err "straggle=1@0.5" "straggle factor must be >= 1";
  expect_err "straggle=1" "RANK@FACTOR"

(* --- retransmit backoff clamp --- *)

let test_backoff_clamp_boundary () =
  let plan = Fault.make ~rto_ns:2.5e8 ~backoff:2. ~max_retries:6 () in
  check_float "attempt 0 under ceiling" 2.5e8 (Ucx.retx_backoff_ns plan ~attempt:0);
  check_float "attempt 1 under ceiling" 5e8 (Ucx.retx_backoff_ns plan ~attempt:1);
  check_float "attempt 2 hits the ceiling exactly" 1e9
    (Ucx.retx_backoff_ns plan ~attempt:2);
  check_float "attempt 3 stays clamped" 1e9 (Ucx.retx_backoff_ns plan ~attempt:3);
  check_float "attempt 6 stays clamped" 1e9 (Ucx.retx_backoff_ns plan ~attempt:6);
  (* the ceiling is far above the default schedule, so default plans
     never reach it *)
  let dflt = Fault.make () in
  for a = 0 to dflt.Fault.max_retries do
    check_float "default schedule unclamped" (Fault.rto dflt ~attempt:a)
      (Ucx.retx_backoff_ns dflt ~attempt:a)
  done

(* One deterministic retransmit (targeted frag-0 drop): the time of
   the one retransmit instant under an [rto_ns]-long first backoff. *)
let first_retx_time ~rto_ns =
  let plan =
    Fault.make ~rto_ns ~max_retries:4
      ~injections:
        [
          {
            Fault.inj_kind = Fault.Inj_drop;
            inj_src = 0;
            inj_dst = 1;
            inj_mseq = 0;
            inj_frag = 0;
          };
        ]
      ()
  in
  let w = Mpi.create_world ~size:2 () in
  Mpi.set_faults w (Some plan);
  let obs = Obs.create () in
  Mpi.set_obs w obs;
  let len = 256 in
  let src = pattern len and dst = Buf.create len in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then Mpi.send comm ~dst:1 ~tag:1 (Mpi.Bytes src)
      else ignore (Mpi.recv comm ~source:0 ~tag:1 (Mpi.Bytes dst)));
  check_bool "payload intact" true (Buf.equal src dst);
  check_int "exactly one injection fired" 1
    (Stats.get (Mpi.world_stats w) Injections_fired);
  match
    List.filter_map
      (fun i -> if i.Obs.i_name = "retransmit" then Some i.Obs.i_time else None)
      (Obs.instants obs)
  with
  | [ t ] -> t
  | ts -> Alcotest.failf "expected one retransmit, saw %d" (List.length ts)

(* End to end: a first backoff at the ceiling sleeps it whole, a longer
   one is cut to it, and a shorter one retransmits that much sooner. *)
let test_backoff_clamp_elapsed () =
  let at_ceiling = first_retx_time ~rto_ns:1e9 in
  let over = first_retx_time ~rto_ns:4e9 in
  let under = first_retx_time ~rto_ns:5e8 in
  check_float "a longer backoff is clamped to the ceiling" at_ceiling over;
  Alcotest.(check (float 1e-6))
    "a shorter one retransmits sooner by the difference" 5e8
    (at_ceiling -. under)

let test_rto_backoff () =
  let p = Fault.make ~rto_ns:1000. ~backoff:2. () in
  check_float "first timeout" 1000. (Fault.rto p ~attempt:0);
  check_float "fourth timeout" 8000. (Fault.rto p ~attempt:3)

let test_flap_window () =
  let p =
    Fault.make
      ~link:{ Fault.clean_link with flap_period_ns = 1000.; flap_down_ns = 100. }
      ()
  in
  let up now = Fault.up_at p ~src:0 ~dst:1 ~now in
  check_float "down at period start" 100. (up 50.);
  check_float "up mid-period" 500. (up 500.);
  check_float "down again next period" 2100. (up 2050.);
  let clean = Fault.make () in
  check_float "clean link never waits" 123.
    (Fault.up_at clean ~src:0 ~dst:1 ~now:123.)

let test_crash_schedule () =
  let p = Fault.make ~crashes:[ (1, 500.) ] () in
  check_bool "alive before" false (Fault.crashed p ~rank:1 ~now:499.);
  check_bool "dead at the instant" true (Fault.crashed p ~rank:1 ~now:500.);
  check_bool "other ranks unaffected" false (Fault.crashed p ~rank:0 ~now:1e12)

let test_fate_stream_determinism () =
  let p =
    Fault.make ~seed:5
      ~link:
        {
          Fault.clean_link with
          drop_p = 0.3;
          corrupt_p = 0.3;
          dup_p = 0.3;
          delay_p = 0.3;
          delay_ns = 500.;
        }
      ()
  in
  let a = Fault.start p and b = Fault.start p in
  let saw_event = ref false in
  for i = 1 to 200 do
    let fa = Fault.fate a ~src:0 ~dst:1 and fb = Fault.fate b ~src:0 ~dst:1 in
    if fa <> fb then Alcotest.failf "fate streams diverge at draw %d" i;
    if fa.Fault.f_drop || fa.Fault.f_corrupt || fa.Fault.f_dup then
      saw_event := true
  done;
  check_bool "events actually occur" true !saw_event;
  (* a clean plan draws nothing *)
  let c = Fault.start (Fault.make ()) in
  for _ = 1 to 50 do
    let f = Fault.fate c ~src:0 ~dst:1 in
    if f.Fault.f_drop || f.Fault.f_corrupt || f.Fault.f_dup || f.Fault.f_delay_ns <> 0.
    then Alcotest.fail "clean plan produced a fault"
  done

(* --- zero overhead when disabled ---

   Constants captured on the pre-fault-injection tree (same workloads,
   same seeds).  Exact float equality is the point: attaching no plan
   must leave the virtual clock and every counter untouched. *)

let bytes_impl n () =
  {
    H.send =
      (fun comm ~dst ~tag -> Mpi.send comm ~dst ~tag (Mpi.Bytes (pattern n)));
    H.recv =
      (fun comm ~source ~tag ->
        ignore (Mpi.recv comm ~source ~tag (Mpi.Bytes (Buf.create n))));
  }

let test_zero_overhead_golden () =
  let kernel = Option.get (Registry.find "NAS_MG_x") in
  let (module K : Kernel.KERNEL) = kernel in
  let r =
    H.pingpong ~reps:3 ~bytes:K.wire_bytes
      (Mpicd_figures.Methods.k_custom_pack kernel
         (Mpicd_figures.Methods.slabs kernel))
  in
  let s = r.H.stats in
  check_float "custom_pack latency" 77.654223999999957 r.H.latency_us;
  check_float "custom_pack bandwidth" 1609.6999436888336 r.H.bandwidth_mib_s;
  check_int "custom_pack msgs" 6 (Stats.get s Messages_sent);
  check_int "custom_pack wire" 786432 (Stats.get s Bytes_on_wire);
  check_int "custom_pack rndv" 6 (Stats.get s Rndv_messages);
  check_int "custom_pack iov entries" 6 (Stats.get s Iov_entries);
  check_int "custom_pack memcpys" 13 (Stats.get s Memcpys);
  check_int "custom_pack copied" 1572864 (Stats.get s Bytes_copied);
  check_int "custom_pack allocs" 12 (Stats.get s Allocs);
  check_int "custom_pack allocated" 1572864 (Stats.get s Bytes_allocated);
  check_int "custom_pack peak alloc" 262144 s.Stats.peak_alloc_bytes;
  check_int "custom_pack pack cbs" 96 (Stats.get s Pack_callbacks);
  check_int "custom_pack unpack cbs" 96 (Stats.get s Unpack_callbacks);
  check_int "custom_pack query cbs" 12 (Stats.get s Query_callbacks);
  check_int "custom_pack reliability events" 0 (Stats.reliability_events s);
  let r = H.pingpong ~reps:3 ~bytes:1024 (bytes_impl 1024) in
  let s = r.H.stats in
  check_float "eager latency" 1.6902880000000007 r.H.latency_us;
  check_float "eager bandwidth" 577.74917647170162 r.H.bandwidth_mib_s;
  check_int "eager msgs" 6 (Stats.get s Messages_sent);
  check_int "eager wire" 6144 (Stats.get s Bytes_on_wire);
  check_int "eager eager" 6 (Stats.get s Eager_messages);
  check_int "eager memcpys" 7 (Stats.get s Memcpys);
  check_int "eager copied" 6144 (Stats.get s Bytes_copied);
  check_int "eager reliability events" 0 (Stats.reliability_events s);
  let r = H.pingpong ~reps:3 ~bytes:(128 * 1024) (bytes_impl (128 * 1024)) in
  let s = r.H.stats in
  check_float "rndv latency" 18.353263999999999 r.H.latency_us;
  check_float "rndv bandwidth" 6810.7776360651706 r.H.bandwidth_mib_s;
  check_int "rndv msgs" 6 (Stats.get s Messages_sent);
  check_int "rndv wire" 786432 (Stats.get s Bytes_on_wire);
  check_int "rndv rndv" 6 (Stats.get s Rndv_messages);
  check_int "rndv memcpys" 1 (Stats.get s Memcpys);
  check_int "rndv reliability events" 0 (Stats.reliability_events s)

(* --- fault matrix: protocol paths x fault kinds ---

   Each cell sends [iters] tagged messages 0 -> 1 under an adverse plan
   and verifies payload integrity after every delivery.  The per-plan
   assertions check the plan's fault kind actually fired somewhere in
   the sweep (per-cell counts are seed-dependent details). *)

let run_faulty ?obs ~plan ~iters mk =
  let w = Mpi.create_world ~size:2 () in
  Mpi.set_faults w (Some plan);
  (match obs with Some o -> Mpi.set_obs w o | None -> ());
  let send_buf, recv_buf, verify = mk () in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        for i = 1 to iters do
          Mpi.send comm ~dst:1 ~tag:i (send_buf ())
        done
      else
        for i = 1 to iters do
          ignore (Mpi.recv comm ~source:0 ~tag:i (recv_buf ()));
          verify i
        done);
  Mpi.world_stats w

let bytes_path n () =
  let src = pattern n in
  let dst = Buf.create n in
  ( (fun () -> Mpi.Bytes src),
    (fun () -> Mpi.Bytes dst),
    fun r ->
      if not (Buf.equal src dst) then
        Alcotest.failf "bytes(%d): payload damaged at round %d" n r;
      Buf.fill dst '\000' )

let typed_path ~count () =
  let dt = Dt.vector ~count ~blocklength:2 ~stride:4 Dt.int32 in
  let ext = Dt.extent dt in
  let src = pattern ext in
  let dst = Buf.create ext in
  ( (fun () -> Mpi.Typed { dt; count = 1; base = src }),
    (fun () -> Mpi.Typed { dt; count = 1; base = dst }),
    fun r ->
      Dt.iter_blocks dt ~count:1 ~f:(fun ~disp ~len ->
          for i = disp to disp + len - 1 do
            if Buf.get_u8 src i <> Buf.get_u8 dst i then
              Alcotest.failf "typed: byte %d damaged at round %d" i r
          done);
      Buf.fill dst '\000' )

(* Custom datatype with one zero-copy region: a 4-byte length header in
   the packed stream, the buffer itself as an iov entry.  The unpack
   callback validates the header, so header corruption is loud; region
   corruption is only caught by the transport's end-to-end check. *)
let buf_region_dt () : Buf.t Custom.t =
  Custom.create
    {
      Custom.state = (fun _ ~count:_ -> ());
      state_free = ignore;
      query = (fun () _ ~count:_ -> 4);
      pack =
        (fun () b ~count:_ ~offset ~dst ->
          let len = min (Buf.length dst) (4 - offset) in
          for i = 0 to len - 1 do
            Buf.set_u8 dst i ((Buf.length b lsr (8 * (offset + i))) land 0xff)
          done;
          len);
      unpack =
        (fun () b ~count:_ ~offset ~src ->
          for i = 0 to Buf.length src - 1 do
            if (Buf.length b lsr (8 * (offset + i))) land 0xff <> Buf.get_u8 src i
            then raise (Custom.Error 99)
          done);
      region_count = Some (fun () _ ~count:_ -> 1);
      regions = Some (fun () b ~count:_ -> Buf.Iov.of_array [| b |]);
    }

let custom_path n () =
  let dt = buf_region_dt () in
  let src = pattern n in
  let dst = Buf.create n in
  ( (fun () -> Mpi.Custom { dt; obj = src; count = 1 }),
    (fun () -> Mpi.Custom { dt; obj = dst; count = 1 }),
    fun r ->
      if not (Buf.equal src dst) then
        Alcotest.failf "custom: payload damaged at round %d" r;
      Buf.fill dst '\000' )

let fault_paths =
  [
    ("eager-contig", fun () -> bytes_path 1024 ());
    ("rndv-contig", fun () -> bytes_path (128 * 1024) ());
    ("eager-generic", fun () -> typed_path ~count:64 ());
    ("rndv-generic", fun () -> typed_path ~count:4096 ());
    ("iov-custom", fun () -> custom_path 40000 ());
  ]

let sweep plan =
  let total = Stats.create () in
  List.iter
    (fun (_, mk) ->
      let s = run_faulty ~plan ~iters:12 mk in
      List.iter (fun c -> Stats.add total c (Stats.get s c)) Stats.all)
    fault_paths;
  total

let test_matrix_drop () =
  let t =
    sweep (Fault.make ~seed:11 ~link:{ Fault.clean_link with drop_p = 0.05 } ~rto_ns:5000. ())
  in
  check_bool "fragments were dropped" true (Stats.get t Frags_dropped > 0);
  check_bool "drops were repaired by retransmission" true
    (Stats.get t Retransmits >= Stats.get t Frags_dropped)

let test_matrix_corrupt () =
  let t =
    sweep
      (Fault.make ~seed:12 ~link:{ Fault.clean_link with corrupt_p = 0.05 } ~rto_ns:5000. ())
  in
  check_bool "fragments were corrupted" true (Stats.get t Frags_corrupted > 0);
  check_bool "corruption on the unchecksummed iov path fell back" true
    (Stats.get t Iov_fallbacks > 0)

let test_matrix_dup () =
  let t =
    sweep (Fault.make ~seed:13 ~link:{ Fault.clean_link with dup_p = 0.1 } ())
  in
  check_bool "fragments were duplicated" true (Stats.get t Frags_duplicated > 0);
  check_int "duplicates cost no retransmissions" 0 (Stats.get t Retransmits)

let test_matrix_flap () =
  let t =
    sweep
      (Fault.make ~seed:14
         ~link:
           {
             Fault.clean_link with
             flap_period_ns = 50_000.;
             flap_down_ns = 5_000.;
           }
         ())
  in
  check_bool "senders waited out down-windows" true (Stats.get t Flap_waits > 0);
  check_int "flaps alone cause no retransmissions" 0 (Stats.get t Retransmits)

let test_matrix_delay () =
  let t =
    sweep
      (Fault.make ~seed:15
         ~link:{ Fault.clean_link with delay_p = 0.2; delay_ns = 2000. }
         ())
  in
  (* delays reorder arrivals but lose nothing *)
  check_int "no retransmissions" 0 (Stats.get t Retransmits);
  check_bool "transfers still acked" true (Stats.get t Acks > 0)

(* --- replayability: same plan, same recovery, to the event --- *)

let reliability_fingerprint seed =
  let plan =
    Fault.make ~seed
      ~link:{ Fault.clean_link with drop_p = 0.05; corrupt_p = 0.02 }
      ~rto_ns:5000. ()
  in
  let s = run_faulty ~plan ~iters:6 (fun () -> bytes_path (128 * 1024) ()) in
  ( Stats.get s Retransmits,
    Stats.get s Frags_dropped,
    Stats.get s Frags_corrupted,
    Stats.get s Acks,
    Stats.get s Nacks )

let test_fixed_seed_replay () =
  let a = reliability_fingerprint 8 in
  check_bool "same seed replays the same recovery" true
    (a = reliability_fingerprint 8);
  let retx, drops, corrupt, _, _ = a in
  check_int "seed-8 retransmits" 13 retx;
  check_int "seed-8 drops" 9 drops;
  check_int "seed-8 corruptions" 4 corrupt;
  check_bool "other seeds draw other fates" true
    (reliability_fingerprint 7 <> a || reliability_fingerprint 9 <> a)

(* --- giving up: retry exhaustion, crashes, handshake timeouts --- *)

let test_retry_exhaustion () =
  let plan =
    Fault.make
      ~link:{ Fault.clean_link with drop_p = 1.0 }
      ~max_retries:2 ~rto_ns:1000. ()
  in
  let w = Mpi.create_world ~size:2 () in
  Mpi.set_faults w (Some plan);
  let got_send = ref None and got_recv = ref None in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        match Mpi.send comm ~dst:1 ~tag:5 (Mpi.Bytes (pattern 512)) with
        | () -> Alcotest.fail "send survived a 100% lossy link"
        | exception Mpi.Mpi_error e -> got_send := Some e
      else
        match Mpi.recv comm ~source:0 ~tag:5 (Mpi.Bytes (Buf.create 512)) with
        | _ -> Alcotest.fail "recv completed on a 100% lossy link"
        | exception Mpi.Mpi_error e -> got_recv := Some e);
  (match !got_send with
  | Some (Mpi.Timeout { retries }) -> check_int "retries reported" 2 retries
  | _ -> Alcotest.fail "sender: expected Timeout");
  (match !got_recv with
  | Some (Mpi.Timeout _) -> ()
  | _ -> Alcotest.fail "receiver: expected the poison nack to carry Timeout");
  check_int "gave up exactly once" 1 (Stats.get (Mpi.world_stats w) Delivery_timeouts)

let test_peer_crash () =
  let plan = Fault.make ~crashes:[ (1, 0.) ] ~max_retries:1 ~rto_ns:1000. () in
  let w = Mpi.create_world ~size:2 () in
  Mpi.set_faults w (Some plan);
  let got = ref None in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        match Mpi.send comm ~dst:1 ~tag:1 (Mpi.Bytes (pattern 256)) with
        | () -> Alcotest.fail "send to a crashed rank succeeded"
        | exception Mpi.Mpi_error e -> got := Some e
      else
        (* the crashed rank's fiber still runs (the model kills the
           link, not the code); its receive fails via the poison nack *)
        match Mpi.recv comm ~source:0 ~tag:1 (Mpi.Bytes (Buf.create 256)) with
        | _ -> Alcotest.fail "recv on a crashed rank succeeded"
        | exception Mpi.Mpi_error _ -> ());
  match !got with
  | Some (Mpi.Peer_failed { peer }) -> check_int "failed peer" 1 peer
  | _ -> Alcotest.fail "expected Peer_failed on the sender"

let test_rndv_handshake_timeout () =
  let plan = Fault.make ~rndv_timeout_ns:10_000. () in
  let w = Mpi.create_world ~size:2 () in
  Mpi.set_faults w (Some plan);
  let got = ref None in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        (* rendezvous-sized send; rank 1 never posts a receive *)
        match Mpi.send comm ~dst:1 ~tag:1 (Mpi.Bytes (pattern (128 * 1024))) with
        | () -> Alcotest.fail "unmatched rendezvous send completed"
        | exception Mpi.Mpi_error e -> got := Some e);
  (match !got with
  | Some (Mpi.Timeout { retries = 0 }) -> ()
  | _ -> Alcotest.fail "expected a handshake Timeout with retries = 0");
  check_int "timeout recorded" 1 (Stats.get (Mpi.world_stats w) Delivery_timeouts)

(* A reliable rendezvous whose RTS never arrives still releases each
   datatype descriptor exactly once: the sender's when it gives up, the
   receiver's when the poison nack ends its receive. *)
let test_rndv_drop_finishes_once () =
  let engine = Engine.create () in
  let stats = Stats.create () in
  let ctx = Ucx.create_context ~engine ~config:Config.default ~stats in
  Ucx.set_faults ctx
    (Some
       (Fault.make
          ~link:{ Fault.clean_link with drop_p = 1.0 }
          ~max_retries:1 ~rto_ns:1000. ()));
  let w0 = Ucx.create_worker ctx in
  let w1 = Ucx.create_worker ctx in
  let n = 64 * 1024 in
  let sg_finishes = ref 0 and rg_finishes = ref 0 in
  let send =
    Ucx.Sd_generic
      {
        sg_packed_size = n;
        sg_pack = (fun ~offset ~dst -> min (Buf.length dst) (n - offset));
        sg_finish = (fun () -> incr sg_finishes);
        sg_overhead_ns = 0.;
      }
  in
  let recv =
    Ucx.Rd_generic
      {
        rg_capacity = n;
        rg_unpack = (fun ~offset:_ ~src -> Buf.length src);
        rg_finish = (fun () -> incr rg_finishes);
        rg_overhead_ns = 0.;
      }
  in
  Engine.spawn engine (fun () ->
      match (Ucx.wait (Ucx.tag_send (Ucx.connect w0 w1) ~tag:4L send)).Ucx.error with
      | Some (Ucx.Timeout _) -> ()
      | _ -> Alcotest.fail "sender: expected Timeout");
  Engine.spawn engine (fun () ->
      match (Ucx.wait (Ucx.tag_recv w1 ~tag:4L ~mask:(-1L) recv)).Ucx.error with
      | Some (Ucx.Timeout _) -> ()
      | _ -> Alcotest.fail "receiver: expected the poison nack's Timeout");
  Engine.run engine;
  check_int "sg_finish once" 1 !sg_finishes;
  check_int "rg_finish once" 1 !rg_finishes

(* --- per-communicator error handlers --- *)

let lossy_plan () =
  Fault.make ~link:{ Fault.clean_link with drop_p = 1.0 } ~max_retries:1
    ~rto_ns:1000. ()

let test_errors_return () =
  let w = Mpi.create_world ~size:2 () in
  Mpi.set_faults w (Some (lossy_plan ()));
  Mpi.run w (fun comm ->
      Mpi.set_errhandler comm Mpi.Errors_return;
      if Mpi.rank comm = 0 then begin
        Mpi.send comm ~dst:1 ~tag:1 (Mpi.Bytes (pattern 256));
        (match Mpi.last_error comm with
        | Some (Mpi.Timeout _) -> ()
        | _ -> Alcotest.fail "sender: expected a stashed Timeout");
        Mpi.clear_last_error comm;
        check_bool "cleared" true (Mpi.last_error comm = None)
      end
      else begin
        let st = Mpi.recv comm ~source:0 ~tag:1 (Mpi.Bytes (Buf.create 256)) in
        check_int "degraded status is empty" 0 st.Mpi.len;
        match Mpi.last_error comm with
        | Some (Mpi.Timeout _) -> ()
        | _ -> Alcotest.fail "receiver: expected a stashed Timeout"
      end)

let test_errors_abort () =
  let w = Mpi.create_world ~size:2 () in
  Mpi.set_faults w (Some (lossy_plan ()));
  Mpi.run w (fun comm ->
      Mpi.set_errhandler comm Mpi.Errors_abort;
      if Mpi.rank comm = 0 then
        match Mpi.send comm ~dst:1 ~tag:1 (Mpi.Bytes (pattern 256)) with
        | () -> Alcotest.fail "send survived"
        | exception Mpi.Aborted { rank = 0; error = Mpi.Timeout _ } -> ()
        | exception _ -> Alcotest.fail "expected Aborted on the sender"
      else
        match Mpi.recv comm ~source:0 ~tag:1 (Mpi.Bytes (Buf.create 256)) with
        | _ -> Alcotest.fail "recv survived"
        | exception Mpi.Aborted { rank = 1; _ } -> ()
        | exception _ -> Alcotest.fail "expected Aborted on the receiver")

let test_errhandler_inherited_by_split () =
  let w = Mpi.create_world ~size:2 () in
  Mpi.run w (fun comm ->
      Mpi.set_errhandler comm Mpi.Errors_return;
      let sub = Mpi.comm_split comm ~color:0 ~key:0 in
      check_bool "split inherits the parent handler" true
        (Mpi.get_errhandler sub = Mpi.Errors_return);
      check_bool "world default is raise" true
        (Mpi.get_errhandler comm = Mpi.Errors_return))

(* --- iov corruption falls back to the packed path, exactly once --- *)

let test_iov_fallback_once () =
  let obs = Obs.create () in
  let plan =
    Fault.make ~seed:2
      ~link:{ Fault.clean_link with corrupt_p = 0.3 }
      ~rto_ns:5000. ()
  in
  let s = run_faulty ~obs ~plan ~iters:1 (fun () -> custom_path 40000 ()) in
  check_int "fell back to the packed path once" 1 (Stats.get s Iov_fallbacks);
  let falls =
    List.filter
      (fun (i : Obs.instant) -> i.Obs.i_name = "iov_fallback")
      (Obs.instants obs)
  in
  check_int "one fallback instant in the trace" 1 (List.length falls);
  check_bool "instants carry the fault category" true
    (List.for_all (fun (i : Obs.instant) -> i.Obs.i_cat = "fault") falls)

(* --- eager callback failure ships a poison nack (no fault plan) ---

   Before reliable delivery, a pack callback raising mid-eager-send
   completed the sender but left the peer's posted receive pending
   forever.  The poison nack is part of the base protocol. *)

let test_eager_pack_failure_nacks_receiver () =
  let engine = Engine.create () in
  let stats = Stats.create () in
  let ctx = Ucx.create_context ~engine ~config:Config.default ~stats in
  let w0 = Ucx.create_worker ctx in
  let w1 = Ucx.create_worker ctx in
  let ep01 = Ucx.connect w0 w1 in
  ignore (Ucx.connect w1 w0);
  let failing =
    Ucx.Sd_generic
      {
        sg_packed_size = 256;
        sg_pack = (fun ~offset:_ ~dst:_ -> raise (Ucx.Callback_error 9));
        sg_finish = ignore;
        sg_overhead_ns = 0.;
      }
  in
  let sender_done = ref false and receiver_done = ref false in
  Engine.spawn engine (fun () ->
      let st = Ucx.wait (Ucx.tag_send ep01 ~tag:3L failing) in
      (match st.Ucx.error with
      | Some (Ucx.Callback_failed 9) -> ()
      | _ -> Alcotest.fail "sender: expected Callback_failed");
      sender_done := true);
  Engine.spawn engine (fun () ->
      let st =
        Ucx.wait (Ucx.tag_recv w1 ~tag:3L ~mask:(-1L) (Ucx.Rd_contig (Buf.create 256)))
      in
      (match st.Ucx.error with
      | Some (Ucx.Callback_failed 9) -> ()
      | _ -> Alcotest.fail "receiver: expected the nack's Callback_failed");
      receiver_done := true);
  Engine.run engine;
  check_bool "sender completed" true !sender_done;
  check_bool "receiver completed (no deadlock)" true !receiver_done;
  check_int "nack counted" 1 (Stats.get stats Nacks)

let suite =
  let tc = Alcotest.test_case in
  ( "faults",
    [
      tc "plan string roundtrip" `Quick test_plan_string_roundtrip;
      QCheck_alcotest.to_alcotest prop_plan_roundtrip;
      QCheck_alcotest.to_alcotest prop_shrink_stays_in_grammar;
      tc "malformed plans are rejected with context" `Quick
        test_malformed_plans;
      tc "rto backoff" `Quick test_rto_backoff;
      tc "backoff clamp boundary" `Quick test_backoff_clamp_boundary;
      tc "backoff clamp shortens recovery" `Quick test_backoff_clamp_elapsed;
      tc "flap windows" `Quick test_flap_window;
      tc "crash schedule" `Quick test_crash_schedule;
      tc "fate stream determinism" `Quick test_fate_stream_determinism;
      tc "zero overhead when disabled (golden)" `Quick test_zero_overhead_golden;
      tc "matrix: drop" `Quick test_matrix_drop;
      tc "matrix: corrupt" `Quick test_matrix_corrupt;
      tc "matrix: duplicate" `Quick test_matrix_dup;
      tc "matrix: link flap" `Quick test_matrix_flap;
      tc "matrix: delay" `Quick test_matrix_delay;
      tc "fixed seed replays exact recovery" `Quick test_fixed_seed_replay;
      tc "retry exhaustion -> Timeout" `Quick test_retry_exhaustion;
      tc "peer crash -> Peer_failed" `Quick test_peer_crash;
      tc "rendezvous handshake timeout" `Quick test_rndv_handshake_timeout;
      tc "dropped rendezvous finishes each descriptor once" `Quick
        test_rndv_drop_finishes_once;
      tc "Errors_return stashes the error" `Quick test_errors_return;
      tc "Errors_abort raises Aborted" `Quick test_errors_abort;
      tc "errhandler inherited by comm_split" `Quick test_errhandler_inherited_by_split;
      tc "iov corruption falls back once" `Quick test_iov_fallback_once;
      tc "eager pack failure nacks receiver" `Quick test_eager_pack_failure_nacks_receiver;
    ] )
