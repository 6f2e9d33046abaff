(* Tests for the guideline-driven datatype normalizer: every rewrite
   rule fires on its seed shape, and the guideline properties hold over
   random trees and every DDTBench kernel — normalization is
   idempotent, preserves the type map and bounds, packs byte-identical
   streams, and never loses under the cost model. *)

module Dt = Mpicd_datatype.Datatype
module Normalize = Mpicd_datatype.Normalize
module Registry = Mpicd_ddtbench.Registry
module Kernel = Mpicd_ddtbench.Kernel

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rules r =
  List.map (fun s -> Normalize.rule_id s.Normalize.rule) r.Normalize.steps

let has_rule id r =
  if not (List.mem id (rules r)) then
    Alcotest.failf "expected rule %s, got [%s]" id (String.concat "; " (rules r))

(* Full guideline obligation for one type: equivalence, byte identity,
   idempotence, cost monotonicity.  The merged block list, with the
   [lb] and [extent] that [equivalent] checks, is everything
   [Plan.compile] reads, so the normal form compiles to the same plan. *)
let obligations what t =
  let r = Normalize.run t in
  let n = r.Normalize.normalized in
  check_bool (what ^ ": typemap+bounds preserved") true (Normalize.equivalent t n);
  check_bool (what ^ ": same merged blocks, so the same plan") true
    (Dt.block_list t ~count:1 = Dt.block_list n ~count:1);
  check_bool (what ^ ": signature preserved") true (Dt.equal_signature t n);
  (match Normalize.verify_bytes t n with
  | Ok () -> ()
  | Error why -> Alcotest.failf "%s: packed bytes differ: %s" what why);
  check_bool (what ^ ": idempotent") true (Dt.equal n (Normalize.normalize n));
  check_bool
    (what ^ ": never loses under cost model")
    true
    (r.Normalize.normalized_cost.Normalize.total_ns
    <= r.Normalize.original_cost.Normalize.total_ns);
  r

(* --- individual rules fire on their seed shapes --- *)

let test_hvector_collapse () =
  let t = Dt.hvector ~count:4 ~blocklength:3 ~stride_bytes:24 Dt.float64 in
  let r = obligations "hvector collapse" t in
  has_rule "hvector-collapse" r;
  check_bool "result is contiguous" true
    (Dt.equal r.Normalize.normalized (Dt.contiguous 12 Dt.float64))

let test_contig_flatten () =
  let t = Dt.contiguous 2 (Dt.contiguous 3 (Dt.contiguous 1 Dt.int32)) in
  let r = obligations "contiguous flatten" t in
  has_rule "contig-flatten" r;
  check_bool "fully flattened" true
    (Dt.equal r.Normalize.normalized (Dt.contiguous 6 Dt.int32))

let test_hindexed_to_hvector () =
  let t =
    Dt.hindexed ~blocklengths:[| 2; 2; 2; 2 |]
      ~displacements_bytes:[| 0; 48; 96; 144 |]
      Dt.float64
  in
  let r = obligations "uniform hindexed" t in
  has_rule "hindexed-vector" r;
  check_bool "became an hvector" true
    (Dt.equal r.Normalize.normalized
       (Dt.hvector ~count:4 ~blocklength:2 ~stride_bytes:48 Dt.float64))

let test_hindexed_to_hvector_offset () =
  (* nonzero first displacement: the hvector keeps the offset via a
     one-block hindexed wrapper (typemap-preserving, still cheaper) *)
  let t =
    Dt.hindexed ~blocklengths:[| 1; 1; 1; 1; 1 |]
      ~displacements_bytes:[| 8; 24; 40; 56; 72 |]
      Dt.int32
  in
  let r = obligations "offset uniform hindexed" t in
  has_rule "hindexed-vector" r;
  check_bool "wrapped hvector" true
    (Dt.equal r.Normalize.normalized
       (Dt.hindexed ~blocklengths:[| 1 |] ~displacements_bytes:[| 8 |]
          (Dt.hvector ~count:5 ~blocklength:1 ~stride_bytes:16 Dt.int32)))

let test_struct_homogeneous () =
  let t =
    Dt.struct_ ~blocklengths:[| 1; 1; 1 |]
      ~displacements_bytes:[| 0; 16; 32 |]
      ~types:[| Dt.float64; Dt.float64; Dt.float64 |]
  in
  let r = obligations "homogeneous struct" t in
  has_rule "struct-homogeneous" r;
  (* and the resulting uniform hindexed keeps rewriting to an hvector *)
  has_rule "hindexed-vector" r

let test_coalesce_chain () =
  (* zero block dropped, adjacent blocks merged, the single block at 0
     lowered to contiguous *)
  let t =
    Dt.hindexed ~blocklengths:[| 2; 0; 2 |]
      ~displacements_bytes:[| 0; 5; 8 |]
      Dt.int32
  in
  let r = obligations "drop-zero + coalesce" t in
  has_rule "hindexed-drop-zero" r;
  has_rule "hindexed-coalesce" r;
  has_rule "hindexed-contig" r;
  check_bool "fully contiguous" true
    (Dt.equal r.Normalize.normalized (Dt.contiguous 4 Dt.int32))

let test_resized_noop () =
  let t = Dt.resized ~lb:0 ~extent:16 (Dt.contiguous 4 Dt.int32) in
  let r = obligations "resized noop" t in
  has_rule "resized-noop" r;
  check_bool "wrapper removed" true
    (Dt.equal r.Normalize.normalized (Dt.contiguous 4 Dt.int32))

let test_resized_nested () =
  let inner = Dt.resized ~lb:0 ~extent:32 (Dt.contiguous 2 Dt.int32) in
  let t = Dt.resized ~lb:0 ~extent:48 inner in
  let r = obligations "nested resized" t in
  has_rule "resized-nested" r;
  check_bool "outer bounds win" true
    (Dt.equal r.Normalize.normalized
       (Dt.resized ~lb:0 ~extent:48 (Dt.contiguous 2 Dt.int32)))

let test_irreducible_unchanged () =
  (* a genuinely gapped strided column and a heterogeneous struct:
     nothing to rewrite, and the normalizer must say so *)
  let col = Dt.vector ~count:8 ~blocklength:1 ~stride:10 Dt.float64 in
  let str =
    Dt.struct_ ~blocklengths:[| 3; 1 |] ~displacements_bytes:[| 0; 16 |]
      ~types:[| Dt.int32; Dt.float64 |]
  in
  List.iter
    (fun (what, t) ->
      let r = obligations what t in
      check_bool (what ^ ": unchanged") false (Normalize.changed r);
      check_int (what ^ ": no steps") 0 (List.length r.Normalize.steps);
      check_bool (what ^ ": same value") true (r.Normalize.normalized == t))
    [ ("strided column", col); ("heterogeneous struct", str) ]

(* --- trace and cost bookkeeping --- *)

let test_trace_and_json () =
  let t = Dt.hvector ~count:4 ~blocklength:3 ~stride_bytes:24 Dt.float64 in
  let r = Normalize.run t in
  check_bool "changed" true (Normalize.changed r);
  List.iter
    (fun (s : Normalize.step) ->
      check_bool "per-step commit saving >= 0" true (s.Normalize.cost_delta_ns >= 0.);
      check_bool "before rendered" true (String.length s.Normalize.before > 0);
      check_bool "after rendered" true (String.length s.Normalize.after > 0))
    r.Normalize.steps;
  let json = Normalize.json_of_result r in
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun k -> check_bool ("json has " ^ k) true (contains k))
    [
      {|"rule":"hvector-collapse"|};
      {|"path"|};
      {|"before"|};
      {|"after"|};
      {|"cost_delta_ns"|};
      {|"original_cost"|};
      {|"normalized_cost"|};
    ]

let test_cost_components () =
  let t = Dt.hvector ~count:4 ~blocklength:3 ~stride_bytes:24 Dt.float64 in
  let c = Normalize.cost t in
  check_int "hvector nodes" 2 c.Normalize.nodes;
  check_bool "commit cost positive" true (c.Normalize.commit_ns > 0.);
  check_bool "total = commit + pack" true
    (c.Normalize.total_ns = c.Normalize.commit_ns +. c.Normalize.pack_ns);
  let n = Normalize.cost (Normalize.normalize t) in
  (* same typemap -> same merged blocks and pack cost; only commit drops *)
  check_int "same blocks" c.Normalize.blocks n.Normalize.blocks;
  check_bool "same pack cost" true (c.Normalize.pack_ns = n.Normalize.pack_ns);
  check_bool "smaller commit cost" true
    (n.Normalize.commit_ns < c.Normalize.commit_ns)

(* --- properties: random trees --- *)

let prop_guidelines_random =
  QCheck.Test.make
    ~name:
      "normalize: idempotent, typemap/bounds-preserving, byte-identical, \
       never loses (random trees)"
    ~count:300 Dt_gen.arb
    (fun t ->
      let r = Normalize.run t in
      let n = r.Normalize.normalized in
      Normalize.equivalent t n
      && Dt.block_list t ~count:1 = Dt.block_list n ~count:1
      && Dt.equal_signature t n
      && Normalize.verify_bytes t n = Ok ()
      && Dt.equal n (Normalize.normalize n)
      && r.Normalize.normalized_cost.Normalize.total_ns
         <= r.Normalize.original_cost.Normalize.total_ns)

let prop_steps_account_for_saving =
  QCheck.Test.make
    ~name:"normalize: per-step deltas sum to the commit-cost saving" ~count:300
    Dt_gen.arb
    (fun t ->
      let r = Normalize.run t in
      let stepped =
        List.fold_left
          (fun a (s : Normalize.step) -> a +. s.Normalize.cost_delta_ns)
          0. r.Normalize.steps
      in
      let saving =
        r.Normalize.original_cost.Normalize.commit_ns
        -. r.Normalize.normalized_cost.Normalize.commit_ns
      in
      abs_float (stepped -. saving) < 1e-6)

(* --- the DDTBench guideline sweep --- *)

let test_ddtbench_sweep () =
  List.iter
    (fun k ->
      let module K = (val k : Kernel.KERNEL) in
      ignore (obligations ("ddtbench/" ^ K.name) K.derived))
    Registry.all

let suite =
  let tc = Alcotest.test_case in
  ( "normalize",
    [
      tc "hvector collapses to contiguous" `Quick test_hvector_collapse;
      tc "nested contiguous flattens" `Quick test_contig_flatten;
      tc "uniform hindexed becomes hvector" `Quick test_hindexed_to_hvector;
      tc "offset uniform hindexed wraps hvector" `Quick
        test_hindexed_to_hvector_offset;
      tc "homogeneous struct lowers and chains" `Quick test_struct_homogeneous;
      tc "drop-zero + coalesce + contig chain" `Quick test_coalesce_chain;
      tc "resized noop unwraps" `Quick test_resized_noop;
      tc "nested resized collapses" `Quick test_resized_nested;
      tc "irreducible types unchanged" `Quick test_irreducible_unchanged;
      tc "rewrite trace and json" `Quick test_trace_and_json;
      tc "cost model components" `Quick test_cost_components;
      tc "ddtbench kernels satisfy the guidelines" `Slow test_ddtbench_sweep;
      QCheck_alcotest.to_alcotest prop_guidelines_random;
      QCheck_alcotest.to_alcotest prop_steps_account_for_saving;
    ] )
