(* Tests for the Mpicd_check_lib analyzers: seeded-bad datatypes,
   callback sets and communication patterns must each produce their
   expected finding, and everything the repo ships must come back
   clean. *)

module Buf = Mpicd_buf.Buf
module Dt = Mpicd_datatype.Datatype
module Mpi = Mpicd.Mpi
module Custom = Mpicd.Custom
module Check = Mpicd_check_lib
module Finding = Check.Finding

let ids fs = List.map (fun (f : Finding.t) -> f.Finding.id) fs

let has id fs =
  if not (List.mem id (ids fs)) then
    Alcotest.failf "expected finding %s, got [%s]" id
      (String.concat "; " (ids fs))

let problems fs = List.filter Finding.is_problem fs

let check_clean what fs =
  Alcotest.(check (list string))
    (what ^ " has no problems")
    []
    (ids (problems fs))

(* --- datatype lint --- *)

let lint = Check.Dt_lint.lint ~subject:"fixture"

let test_lint_overlap () =
  let t =
    Dt.hindexed ~blocklengths:[| 8; 8 |] ~displacements_bytes:[| 0; 4 |] Dt.byte
  in
  has "DT-OVERLAP" (lint t)

let test_lint_overlap_count2 () =
  (* one element is fine; consecutive elements interleave destructively *)
  let t =
    Dt.resized ~lb:0 ~extent:4 (Dt.contiguous 8 Dt.byte)
  in
  let fs = lint t in
  has "DT-OVERLAP" fs;
  has "DT-EXTENT-SHRUNK" fs

let test_lint_misaligned () =
  let t =
    Dt.struct_ ~blocklengths:[| 1; 1 |] ~displacements_bytes:[| 0; 2 |]
      ~types:[| Dt.int8; Dt.int32 |]
  in
  has "DT-MISALIGNED" (lint t)

let test_lint_zero_block () =
  let t =
    Dt.hindexed ~blocklengths:[| 4; 0; 4 |]
      ~displacements_bytes:[| 0; 4; 8 |]
      Dt.byte
  in
  has "DT-ZERO-BLOCK" (lint t)

let test_lint_norm_vector () =
  (* evenly spaced uniform indexed blocks: provably a vector *)
  let t =
    Dt.hindexed ~blocklengths:[| 2; 2; 2; 2 |]
      ~displacements_bytes:[| 0; 48; 96; 144 |]
      Dt.float64
  in
  let fs = lint t in
  has "DT-NORM-VECTOR" fs;
  check_clean "provable vector (hint only)" fs

let test_lint_norm_contig () =
  let t = Dt.hvector ~count:4 ~blocklength:2 ~stride_bytes:16 Dt.float64 in
  has "DT-NORM-CONTIG" (lint t)

let test_lint_clean_type () =
  (* a plain strided column: gaps, aligned, no rewrite possible *)
  let t = Dt.vector ~count:8 ~blocklength:1 ~stride:10 Dt.float64 in
  Alcotest.(check (list string)) "no findings at all" [] (ids (lint t))

let test_lint_registry_clean () =
  check_clean "registry datatypes" (Check.Registry_check.lint_kernels ())

(* --- performance guideline checker --- *)

let guideline = Check.Guideline.check ~subject:"fixture"

let find id fs =
  match List.find_opt (fun (f : Finding.t) -> f.Finding.id = id) fs with
  | Some f -> f
  | None ->
      Alcotest.failf "expected finding %s, got [%s]" id
        (String.concat "; " (ids fs))

let test_guideline_slower () =
  (* 64 byte-adjacent hindexed blocks: the committed descriptor carries
     128 index entries the coalesced form doesn't, well past the
     500 ns violation threshold *)
  let t =
    Dt.hindexed
      ~blocklengths:(Array.make 64 1)
      ~displacements_bytes:(Array.init 64 (fun i -> i * 8))
      Dt.float64
  in
  let f = find "GL-NORM-SLOWER" (guideline t) in
  Alcotest.(check bool) "is an Error" true (f.Finding.severity = Finding.Error);
  (match f.Finding.cost_delta_ns with
  | Some d ->
      Alcotest.(check bool) "saving at or above threshold" true
        (d >= Check.Guideline.default_threshold_ns)
  | None -> Alcotest.fail "violation must carry cost_delta_ns");
  match f.Finding.rewrite with
  | Some r ->
      Alcotest.(check bool) "replacement is the coalesced contiguous" true
        (Dt.equal r.Finding.rw_replacement (Dt.contiguous 64 Dt.float64));
      Alcotest.(check bool) "replacement is equivalent" true
        (Check.Guideline.check ~subject:"x" r.Finding.rw_replacement = [])
  | None -> Alcotest.fail "violation must carry a typed rewrite"

let test_guideline_available_hint () =
  (* a collapsible hvector saves only 50 ns: below threshold, Hint *)
  let t = Dt.hvector ~count:4 ~blocklength:3 ~stride_bytes:24 Dt.float64 in
  let fs = guideline t in
  let f = find "GL-NORM-AVAILABLE" fs in
  Alcotest.(check bool) "is a Hint" true (f.Finding.severity = Finding.Hint);
  (match f.Finding.cost_delta_ns with
  | Some d ->
      Alcotest.(check bool) "saving below threshold" true
        (d < Check.Guideline.default_threshold_ns && d > 0.)
  | None -> Alcotest.fail "hint must carry cost_delta_ns");
  check_clean "below-threshold normalization" fs

let test_guideline_threshold_tunable () =
  (* the same hvector becomes a violation once the threshold drops
     under its 50 ns saving *)
  let t = Dt.hvector ~count:4 ~blocklength:3 ~stride_bytes:24 Dt.float64 in
  let fs = Check.Guideline.check ~threshold_ns:10. ~subject:"fixture" t in
  let f = find "GL-NORM-SLOWER" fs in
  Alcotest.(check bool) "error at low threshold" true
    (f.Finding.severity = Finding.Error)

let test_guideline_clean_type () =
  (* genuinely gapped strided column: already normal, no findings *)
  let t = Dt.vector ~count:8 ~blocklength:1 ~stride:10 Dt.float64 in
  Alcotest.(check (list string)) "no findings at all" [] (ids (guideline t))

let test_guideline_registry_clean () =
  check_clean "ddtbench guideline sweep"
    (Check.Registry_check.guideline_kernels ())

let test_guideline_hints_never_fail () =
  (* regression: a report made only of guideline hints must keep the
     checker's exit status at success *)
  let hints =
    guideline (Dt.hvector ~count:4 ~blocklength:3 ~stride_bytes:24 Dt.float64)
    @ guideline
        (Dt.struct_ ~blocklengths:[| 1; 1 |] ~displacements_bytes:[| 0; 16 |]
           ~types:[| Dt.float64; Dt.float64 |])
  in
  Alcotest.(check bool) "fixtures did produce hints" true (hints <> []);
  List.iter
    (fun (f : Finding.t) ->
      Alcotest.(check bool)
        (f.Finding.id ^ " is not a problem")
        false (Finding.is_problem f))
    hints;
  Alcotest.(check int) "problem_count stays 0" 0
    (Check.Report.problem_count [ Check.Report.section "hints only" hints ])

(* --- callback contract checker --- *)

(* Baseline well-behaved callback set: the object is an [n]-byte buffer
   packed by straight blits. *)
let good_callbacks n =
  {
    Custom.state = (fun _ ~count:_ -> ());
    state_free = ignore;
    query = (fun () _ ~count:_ -> n);
    pack =
      (fun () obj ~count:_ ~offset ~dst ->
        let len = min (Buf.length dst) (n - offset) in
        Buf.blit ~src:obj ~src_pos:offset ~dst ~dst_pos:0 ~len;
        len);
    unpack =
      (fun () obj ~count:_ ~offset ~src ->
        Buf.blit ~src ~src_pos:0 ~dst:obj ~dst_pos:offset ~len:(Buf.length src));
    region_count = None;
    regions = None;
  }

let filled n =
  let b = Buf.create n in
  for i = 0 to n - 1 do
    Buf.set_u8 b i (i land 0xff)
  done;
  b

let spec ?expected_wire n cb : Buf.t Check.Contract.spec =
  {
    Check.Contract.name = "fixture";
    dt = Custom.create cb;
    make = (fun () -> filled n);
    make_sink = (fun () -> Buf.create n) |> Option.some;
    equal = Some Buf.equal;
    count = 1;
    expected_wire = (match expected_wire with Some w -> Some w | None -> Some n);
  }

let contract s = Check.Contract.check ~seed:42 s

let test_contract_good () =
  Alcotest.(check (list string))
    "well-behaved set is clean" []
    (ids (contract (spec 32 (good_callbacks 32))))

let test_contract_short_pack () =
  let cb = { (good_callbacks 32) with Custom.pack = (fun () _ ~count:_ ~offset:_ ~dst:_ -> 0) } in
  has "CB-SHORT-PACK" (contract (spec 32 cb))

let test_contract_overrun () =
  let cb =
    {
      (good_callbacks 32) with
      Custom.pack = (fun () _ ~count:_ ~offset:_ ~dst -> Buf.length dst + 1);
    }
  in
  has "CB-OVERRUN" (contract (spec 32 cb))

let test_contract_raises () =
  let cb =
    {
      (good_callbacks 32) with
      Custom.pack = (fun () _ ~count:_ ~offset:_ ~dst:_ -> raise (Custom.Error 3));
    }
  in
  has "CB-CALLBACK-RAISED" (contract (spec 32 cb))

let test_contract_query_unstable () =
  let q = ref 31 in
  let cb =
    {
      (good_callbacks 32) with
      Custom.query =
        (fun () _ ~count:_ ->
          incr q;
          !q);
    }
  in
  has "CB-QUERY-UNSTABLE" (contract (spec 32 cb))

let test_contract_region_overlap () =
  let cb =
    {
      (good_callbacks 32) with
      Custom.query = (fun () _ ~count:_ -> 0);
      pack = (fun () _ ~count:_ ~offset:_ ~dst:_ -> 0);
      region_count = Some (fun () _ ~count:_ -> 2);
      regions =
        Some
          (fun () obj ~count:_ ->
            Buf.Iov.of_array [| Buf.sub obj ~pos:0 ~len:16; Buf.sub obj ~pos:8 ~len:16 |]);
    }
  in
  has "CB-REGION-OVERLAP" (contract (spec 32 cb))

(* The overlap decision is a count, not a timing: 16,384 disjoint
   8-byte regions of one storage in shuffled order (NAS_MG_x's count)
   cost O(R log R) comparisons, where the pairwise search took R^2/2. *)
let test_contract_region_check_cost () =
  let n = 16_384 in
  let storage = Buf.create (8 * n) in
  let order = Array.init n Fun.id in
  Mpicd_simnet.Rng.shuffle (Mpicd_simnet.Rng.create 7) order;
  let regs = Array.map (fun k -> Buf.sub storage ~pos:(8 * k) ~len:8) order in
  let count = ref 0 in
  Alcotest.(check bool) "disjoint" true (Check.Contract.first_overlap ~count regs = None);
  let bound = 2 * n * 16 in
  if !count > bound then
    Alcotest.failf "%d comparisons for %d regions, bound %d" !count n bound

(* Whatever the storages and layout, the first pair found is the one
   the pairwise search over [i < j] finds. *)
let prop_first_overlap_matches_pairwise =
  QCheck.Test.make ~count:300 ~name:"contract: first region overlap = pairwise search"
    QCheck.(list_of_size Gen.(0 -- 12) (triple (int_bound 2) (int_bound 40) (int_bound 9)))
    (fun specs ->
      let stores = Array.init 3 (fun _ -> Buf.create 64) in
      let regs =
        Array.of_list
          (List.map (fun (s, pos, len) -> Buf.sub stores.(s) ~pos ~len) specs)
      in
      let n = Array.length regs in
      let pairwise = ref None in
      for i = n - 1 downto 0 do
        for j = n - 1 downto i + 1 do
          if Buf.overlaps regs.(i) regs.(j) then pairwise := Some (i, j)
        done
      done;
      Check.Contract.first_overlap regs = !pairwise)

let test_contract_wire_mismatch () =
  has "CB-WIRE-MISMATCH"
    (contract (spec ~expected_wire:33 32 (good_callbacks 32)))

let test_contract_frag_inconsistent () =
  (* stamps the first byte of every fragment: the packed stream depends
     on where fragment boundaries fall.  128-byte stream with <= 64-byte
     fuzz fragments guarantees at least one interior boundary. *)
  let base = good_callbacks 128 in
  let cb =
    {
      base with
      Custom.pack =
        (fun () obj ~count ~offset ~dst ->
          let len = base.Custom.pack () obj ~count ~offset ~dst in
          if len > 0 then Buf.set_u8 dst 0 0xee;
          len);
    }
  in
  has "CB-FRAG-INCONSISTENT" (contract (spec 128 cb))

let test_contract_bad_roundtrip () =
  let cb =
    {
      (good_callbacks 32) with
      Custom.unpack =
        (fun () obj ~count:_ ~offset:_ ~src ->
          (* ignores the stream offset: fragments all land at byte 0 *)
          Buf.blit ~src ~src_pos:0 ~dst:obj ~dst_pos:0 ~len:(Buf.length src));
    }
  in
  has "CB-ROUNDTRIP" (contract (spec 32 cb))

let test_contract_registry_clean () =
  Alcotest.(check (list string))
    "shipped kernel callback sets are clean" []
    (ids (Check.Registry_check.contract_kernels ()))

(* --- communication matching & deadlock analysis --- *)

let run_scenario ~size f = Check.Matchcheck.run ~subject:"fixture" ~size f

let test_match_deadlock () =
  let r =
    run_scenario ~size:2 (fun comm ->
        let peer = 1 - Mpi.rank comm in
        (* both ranks block in recv before anyone sends *)
        ignore (Mpi.recv comm ~source:peer ~tag:0 (Mpi.Bytes (Buf.create 8)));
        Mpi.send comm ~dst:peer ~tag:0 (Mpi.Bytes (Buf.create 8)))
  in
  Alcotest.(check bool) "deadlocked" true r.Check.Matchcheck.deadlocked;
  has "MATCH-DEADLOCK" r.Check.Matchcheck.findings

let test_match_type_mismatch () =
  let r =
    run_scenario ~size:2 (fun comm ->
        if Mpi.rank comm = 0 then
          Mpi.send comm ~dst:1 ~tag:0
            (Mpi.Typed { dt = Dt.int32; count = 4; base = Buf.create 16 })
        else
          ignore
            (Mpi.recv comm ~source:0 ~tag:0
               (Mpi.Typed { dt = Dt.float64; count = 2; base = Buf.create 16 })))
  in
  has "MATCH-TYPE-MISMATCH" r.Check.Matchcheck.findings

let test_match_truncation () =
  let r =
    run_scenario ~size:2 (fun comm ->
        if Mpi.rank comm = 0 then
          Mpi.send comm ~dst:1 ~tag:0 (Mpi.Bytes (filled 32))
        else
          (* too small; never waited on, so the error only surfaces in
             the monitor's transport-level outcome *)
          ignore (Mpi.irecv comm ~source:0 ~tag:0 (Mpi.Bytes (Buf.create 16))))
  in
  has "MATCH-TRUNCATION" r.Check.Matchcheck.findings

let test_match_unmatched () =
  let r =
    run_scenario ~size:2 (fun comm ->
        if Mpi.rank comm = 0 then
          (* rendezvous-sized send nobody receives: stays pending *)
          ignore
            (Mpi.isend comm ~dst:1 ~tag:9 (Mpi.Bytes (Buf.create (512 * 1024))))
        else ignore (Mpi.irecv comm ~source:0 ~tag:5 (Mpi.Bytes (Buf.create 8))))
  in
  has "MATCH-UNMATCHED-SEND" r.Check.Matchcheck.findings;
  has "MATCH-UNMATCHED-RECV" r.Check.Matchcheck.findings

let test_match_clean_ring () =
  let r =
    run_scenario ~size:4 (fun comm ->
        let me = Mpi.rank comm and n = Mpi.size comm in
        let dt = Dt.contiguous 16 Dt.float64 in
        let rs =
          Mpi.isend comm ~dst:((me + 1) mod n) ~tag:7
            (Mpi.Typed { dt; count = 1; base = Buf.create 128 })
        in
        let rr =
          Mpi.irecv comm
            ~source:((me + n - 1) mod n)
            ~tag:7
            (Mpi.Typed { dt; count = 1; base = Buf.create 128 })
        in
        ignore (Mpi.waitall [ rs; rr ]))
  in
  Alcotest.(check bool) "not deadlocked" false r.Check.Matchcheck.deadlocked;
  Alcotest.(check (list string))
    "ring is clean" []
    (ids r.Check.Matchcheck.findings)

(* The run's protocol counts come from its Stats table: one eager send
   and two rendezvous sends, so no count can stand in for another. *)
let test_match_protocol_counts () =
  let r =
    run_scenario ~size:2 (fun comm ->
        let sizes = [ 64; 512 * 1024; 512 * 1024 ] in
        if Mpi.rank comm = 0 then
          List.iter (fun n -> Mpi.send comm ~dst:1 ~tag:0 (Mpi.Bytes (Buf.create n))) sizes
        else
          List.iter
            (fun n -> ignore (Mpi.recv comm ~source:0 ~tag:0 (Mpi.Bytes (Buf.create n))))
            sizes)
  in
  Alcotest.(check (list (pair string int)))
    "counts"
    [ ("messages_sent", 3); ("eager_messages", 1); ("rndv_messages", 2) ]
    r.Check.Matchcheck.counts

(* --- report rendering --- *)

let test_report_counts () =
  let fs =
    [
      Finding.make ~id:"X-ERR" ~severity:Finding.Error ~analyzer:"a" ~subject:"s"
        "an error";
      Finding.make ~id:"X-HINT" ~severity:Finding.Hint ~analyzer:"a" ~subject:"s"
        "a hint";
    ]
  in
  let sections = [ Check.Report.section "t" fs ] in
  Alcotest.(check int) "problems" 1 (Check.Report.problem_count sections);
  let json = Check.Report.render_json sections in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json mentions rule id" true
    (contains json {|"id":"X-ERR"|})

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Golden rendering of one fully-populated finding: the exact JSON
   object, byte for byte, so any schema change is a deliberate edit
   here.  The [rewrite] key is the one post-seed addition and must stay
   appended last. *)
let test_json_golden_finding () =
  let f =
    Finding.make ~suggestion:"commit contig(12,f64) instead"
      ~cost_delta_ns:50.
      ~rewrite:
        {
          Finding.rw_rule = "hvector-collapse";
          rw_path = "";
          rw_replacement = Dt.contiguous 12 Dt.float64;
          rw_steps = 1;
        }
      ~id:"GL-NORM-AVAILABLE" ~severity:Finding.Hint ~analyzer:"guideline"
      ~subject:"fixture" "a provably-equivalent normalization exists"
  in
  Alcotest.(check string)
    "golden JSON"
    ({|{"id":"GL-NORM-AVAILABLE","severity":"hint","analyzer":"guideline",|}
    ^ {|"subject":"fixture","message":"a provably-equivalent normalization exists",|}
    ^ {|"suggestion":"commit contig(12,f64) instead","cost_delta_ns":50.000,|}
    ^ {|"rewrite":{"rule":"hvector-collapse","path":"","replacement":"contig(12,f64)","steps":1}}|}
    )
    (Finding.json f);
  (* a finding without the optional keys must not mention them *)
  let bare =
    Finding.json
      (Finding.make ~id:"X" ~severity:Finding.Error ~analyzer:"a" ~subject:"s"
         "m")
  in
  Alcotest.(check bool) "no rewrite key when absent" false
    (contains bare {|"rewrite"|});
  Alcotest.(check bool) "no cost key when absent" false
    (contains bare {|"cost_delta_ns"|})

(* Schema coverage: one report carrying real findings from every
   analyzer (lint, guideline, contract, matching/deadlock) renders with
   every required key present. *)
let test_json_schema_all_analyzers () =
  let lint_fs = lint (Dt.hvector ~count:4 ~blocklength:2 ~stride_bytes:16 Dt.float64) in
  let gl_fs =
    guideline
      (Dt.hindexed
         ~blocklengths:(Array.make 64 1)
         ~displacements_bytes:(Array.init 64 (fun i -> i * 8))
         Dt.float64)
  in
  let contract_fs =
    contract
      (spec 32
         {
           (good_callbacks 32) with
           Custom.pack = (fun () _ ~count:_ ~offset:_ ~dst:_ -> 0);
         })
  in
  let match_r =
    run_scenario ~size:2 (fun comm ->
        let peer = 1 - Mpi.rank comm in
        ignore (Mpi.recv comm ~source:peer ~tag:0 (Mpi.Bytes (Buf.create 8)));
        Mpi.send comm ~dst:peer ~tag:0 (Mpi.Bytes (Buf.create 8)))
  in
  let json =
    Check.Report.render_json
      [
        Check.Report.section "lint" lint_fs;
        Check.Report.section "guidelines" gl_fs;
        Check.Report.section "contract" contract_fs;
        Check.Report.section
          ~notes:[ ("deadlocked", "true") ]
          "match" match_r.Check.Matchcheck.findings;
      ]
  in
  List.iter
    (fun key ->
      Alcotest.(check bool) ("json has " ^ key) true (contains json key))
    [
      (* report envelope *)
      {|"sections"|};
      {|"title"|};
      {|"notes"|};
      {|"findings"|};
      {|"problems"|};
      (* per-finding schema *)
      {|"id"|};
      {|"severity"|};
      {|"analyzer"|};
      {|"subject"|};
      {|"message"|};
      {|"suggestion"|};
      {|"cost_delta_ns"|};
      (* one real finding from each analyzer *)
      {|"id":"DT-NORM-CONTIG"|};
      {|"id":"GL-NORM-SLOWER"|};
      {|"id":"CB-SHORT-PACK"|};
      {|"id":"MATCH-DEADLOCK"|};
      (* the typed rewrite payload: lint's single-rule form and the
         guideline checker's composed multi-step form *)
      {|"rewrite":{"rule":"hvector-collapse"|};
      {|"rewrite":{"rule":"normalize"|};
    ]

let suite =
  let tc = Alcotest.test_case in
  ( "check",
    [
      tc "lint: overlapping indexed blocks" `Quick test_lint_overlap;
      tc "lint: overlap at count>=2 + shrunk extent" `Quick
        test_lint_overlap_count2;
      tc "lint: misaligned struct member" `Quick test_lint_misaligned;
      tc "lint: zero-length block" `Quick test_lint_zero_block;
      tc "lint: indexed provably a vector" `Quick test_lint_norm_vector;
      tc "lint: vector provably contiguous" `Quick test_lint_norm_contig;
      tc "lint: honest strided type is silent" `Quick test_lint_clean_type;
      tc "lint: registry kernels have no problems" `Quick
        test_lint_registry_clean;
      tc "guideline: slow committed type is an Error" `Quick
        test_guideline_slower;
      tc "guideline: below-threshold saving is a Hint" `Quick
        test_guideline_available_hint;
      tc "guideline: threshold is tunable" `Quick
        test_guideline_threshold_tunable;
      tc "guideline: normal type is silent" `Quick test_guideline_clean_type;
      tc "guideline: registry sweep has no problems" `Slow
        test_guideline_registry_clean;
      tc "guideline: hints never flip the exit code" `Quick
        test_guideline_hints_never_fail;
      tc "contract: well-behaved callbacks clean" `Quick test_contract_good;
      tc "contract: zero-byte pack return" `Quick test_contract_short_pack;
      tc "contract: pack overruns fragment" `Quick test_contract_overrun;
      tc "contract: pack raises" `Quick test_contract_raises;
      tc "contract: unstable query" `Quick test_contract_query_unstable;
      tc "contract: overlapping regions" `Quick test_contract_region_overlap;
      tc "contract: wire-size mismatch" `Quick test_contract_wire_mismatch;
      tc "contract: fragmentation-dependent pack" `Quick
        test_contract_frag_inconsistent;
      tc "contract: broken unpack round-trip" `Quick test_contract_bad_roundtrip;
      tc "contract: registry kernels all pass" `Slow
        test_contract_registry_clean;
      tc "match: recv/recv deadlock cycle" `Quick test_match_deadlock;
      tc "match: type-signature mismatch" `Quick test_match_type_mismatch;
      tc "match: truncation" `Quick test_match_truncation;
      tc "match: unmatched at finalize" `Quick test_match_unmatched;
      tc "match: clean nonblocking ring" `Quick test_match_clean_ring;
      tc "match: protocol counts from Stats" `Quick test_match_protocol_counts;
      tc "report: counts and json" `Quick test_report_counts;
      tc "report: golden finding JSON" `Quick test_json_golden_finding;
      tc "report: schema covers every analyzer" `Quick
        test_json_schema_all_analyzers;
      tc "contract: region overlap check is O(R log R)" `Quick
        test_contract_region_check_cost;
      QCheck_alcotest.to_alcotest prop_first_overlap_matches_pairwise;
    ] )
