module Dt = Datatype
module Config = Mpicd_simnet.Config
module Buf = Mpicd_buf.Buf

type rule =
  | R_contig_of_one
  | R_contig_flatten
  | R_empty
  | R_hvector_count_one
  | R_hvector_collapse
  | R_hindexed_drop_zero
  | R_hindexed_coalesce
  | R_hindexed_contig
  | R_hindexed_vector
  | R_struct_homogeneous
  | R_resized_noop
  | R_resized_nested

let rule_id = function
  | R_contig_of_one -> "contig-of-one"
  | R_contig_flatten -> "contig-flatten"
  | R_empty -> "empty"
  | R_hvector_count_one -> "hvector-count-one"
  | R_hvector_collapse -> "hvector-collapse"
  | R_hindexed_drop_zero -> "hindexed-drop-zero"
  | R_hindexed_coalesce -> "hindexed-coalesce"
  | R_hindexed_contig -> "hindexed-contig"
  | R_hindexed_vector -> "hindexed-vector"
  | R_struct_homogeneous -> "struct-homogeneous"
  | R_resized_noop -> "resized-noop"
  | R_resized_nested -> "resized-nested"

(* --- descriptor complexity ---

   (nodes, entries): tree nodes plus the scalar slots each node carries
   (constructor parameters and index-array entries).  Struct fields
   count blocklength + displacement + type slot (3 per field) and each
   field type's subtree is counted once per field, matching what a
   commit-time walk actually visits; hindexed counts 2 per block over a
   single shared element subtree. *)

let rec complexity t =
  match Dt.view t with
  | Dt.V_predefined _ -> (1, 0)
  | Dt.V_contiguous (_, e) ->
      let n, a = complexity e in
      (n + 1, a + 1)
  | Dt.V_hvector { elem = e; _ } ->
      let n, a = complexity e in
      (n + 1, a + 3)
  | Dt.V_hindexed { blocklengths; elem; _ } ->
      let n, a = complexity elem in
      (n + 1, a + (2 * Array.length blocklengths))
  | Dt.V_struct { blocklengths; types; _ } ->
      let acc_n = ref 1 and acc_a = ref (3 * Array.length blocklengths) in
      Array.iter
        (fun e ->
          let n, a = complexity e in
          acc_n := !acc_n + n;
          acc_a := !acc_a + a)
        types;
      (!acc_n, !acc_a)
  | Dt.V_resized { elem; _ } ->
      let n, a = complexity elem in
      (n + 1, a + 2)

type cost = {
  nodes : int;
  entries : int;
  blocks : int;
  commit_ns : float;
  pack_ns : float;
  total_ns : float;
}

let cost ?(cpu = Config.default_cpu) t =
  let nodes, entries = complexity t in
  let blocks = Dt.blocks_per_element t in
  let commit_ns = float_of_int (nodes + entries) *. cpu.Config.ddt_node_ns in
  let pack_ns =
    (float_of_int blocks *. cpu.Config.ddt_block_ns)
    +. Config.memcpy_time cpu (Dt.size t)
  in
  { nodes; entries; blocks; commit_ns; pack_ns; total_ns = commit_ns +. pack_ns }

type step = {
  rule : rule;
  path : int list;
  before : string;
  after : string;
  nodes_delta : int;
  entries_delta : int;
  cost_delta_ns : float;
}

type result = {
  original : Dt.t;
  normalized : Dt.t;
  steps : step list;
  original_cost : cost;
  normalized_cost : cost;
}

let changed r = r.steps <> []

(* --- the rewrite rules ---

   Every rule preserves the subterm's exact type map and its (lb, ub)
   bounds; [apply_checked] enforces the bounds half at runtime (cheap)
   while the type-map half is proved per rule and re-checked wholesale
   by {!equivalent} in the test suite. *)

let empty_canon = Dt.contiguous 0 Dt.byte

let all_equal_blocks blocklengths displacements_bytes =
  (* uniform blocklength + constant stride over >= 2 blocks *)
  let n = Array.length blocklengths in
  if n < 2 then None
  else
    let bl = blocklengths.(0) in
    let stride = displacements_bytes.(1) - displacements_bytes.(0) in
    let ok = ref true in
    for i = 0 to n - 1 do
      if blocklengths.(i) <> bl then ok := false;
      if
        i > 0
        && displacements_bytes.(i) - displacements_bytes.(i - 1) <> stride
      then ok := false
    done;
    if !ok then Some (bl, stride) else None

let coalesce_adjacent ~ext blocklengths displacements_bytes =
  (* one left-to-right pass merging every byte-adjacent run *)
  let n = Array.length blocklengths in
  let bls = ref [] and ds = ref [] and merged = ref false in
  for i = 0 to n - 1 do
    match (!bls, !ds) with
    | bl :: bls', d :: _ when d + (bl * ext) = displacements_bytes.(i) ->
        bls := (bl + blocklengths.(i)) :: bls';
        merged := true
    | _ ->
        bls := blocklengths.(i) :: !bls;
        ds := displacements_bytes.(i) :: !ds
  done;
  if !merged then
    Some
      ( Array.of_list (List.rev !bls),
        Array.of_list (List.rev !ds) )
  else None

(* One root rewrite attempt; children are assumed already normalized. *)
let weight t =
  let n, a = complexity t in
  n + a

let try_root t =
  if
    Dt.size t = 0 && Dt.lb t = 0 && Dt.ub t = 0
    && (not (Dt.equal t empty_canon))
    (* canonicalizing an empty type must not grow the descriptor (an
       empty hindexed over a predefined is already smaller than the
       canonical empty) *)
    && weight t >= weight empty_canon
  then Some (R_empty, empty_canon)
  else
    match Dt.view t with
    | Dt.V_contiguous (1, e) -> Some (R_contig_of_one, e)
    | Dt.V_contiguous (n, e) -> (
        match Dt.view e with
        | Dt.V_contiguous (m, e2) ->
            Some (R_contig_flatten, Dt.contiguous (n * m) e2)
        | _ -> None)
    | Dt.V_hvector { count = 1; blocklength; elem; _ } ->
        Some (R_hvector_count_one, Dt.contiguous blocklength elem)
    | Dt.V_hvector { count; blocklength; stride_bytes; elem }
      when stride_bytes = blocklength * Dt.extent elem ->
        Some (R_hvector_collapse, Dt.contiguous (count * blocklength) elem)
    | Dt.V_hvector _ -> None
    | Dt.V_hindexed { blocklengths; displacements_bytes; elem } -> (
        if Array.exists (fun bl -> bl = 0) blocklengths then
          let keep = ref [] in
          Array.iteri
            (fun i bl -> if bl > 0 then keep := i :: !keep)
            blocklengths;
          let keep = Array.of_list (List.rev !keep) in
          Some
            ( R_hindexed_drop_zero,
              Dt.hindexed
                ~blocklengths:(Array.map (fun i -> blocklengths.(i)) keep)
                ~displacements_bytes:
                  (Array.map (fun i -> displacements_bytes.(i)) keep)
                elem )
        else
          match
            coalesce_adjacent ~ext:(Dt.extent elem) blocklengths
              displacements_bytes
          with
          | Some (bls, ds) ->
              Some
                (R_hindexed_coalesce, Dt.hindexed ~blocklengths:bls
                   ~displacements_bytes:ds elem)
          | None -> (
              match (blocklengths, displacements_bytes) with
              | [| bl |], [| 0 |] ->
                  Some (R_hindexed_contig, Dt.contiguous bl elem)
              | _ -> (
                  match all_equal_blocks blocklengths displacements_bytes with
                  | Some (bl, stride) ->
                      let count = Array.length blocklengths in
                      let hv =
                        Dt.hvector ~count ~blocklength:bl ~stride_bytes:stride
                          elem
                      in
                      let d0 = displacements_bytes.(0) in
                      if d0 = 0 then Some (R_hindexed_vector, hv)
                      else if count >= 3 then
                        (* the extra wrapper node pays for itself only
                           once it replaces >= 3 index entries *)
                        Some
                          ( R_hindexed_vector,
                            Dt.hindexed ~blocklengths:[| 1 |]
                              ~displacements_bytes:[| d0 |] hv )
                      else None
                  | None -> None)))
    | Dt.V_struct { blocklengths; displacements_bytes; types } ->
        (* the types of zero-length fields contribute nothing to the
           type map or bounds, so homogeneity only ranges over bl > 0 *)
        let rep = ref None and homogeneous = ref true in
        Array.iteri
          (fun i bl ->
            if bl > 0 then
              match !rep with
              | None -> rep := Some types.(i)
              | Some r -> if not (Dt.equal r types.(i)) then homogeneous := false)
          blocklengths;
        (match (!rep, !homogeneous) with
        | Some elem, true ->
            Some
              ( R_struct_homogeneous,
                Dt.hindexed ~blocklengths ~displacements_bytes elem )
        | _ -> None)
    | Dt.V_resized { lb; extent; elem } -> (
        if lb = Dt.lb elem && lb + extent = Dt.ub elem then
          Some (R_resized_noop, elem)
        else
          match Dt.view elem with
          | Dt.V_resized { elem = inner; _ } ->
              Some (R_resized_nested, Dt.resized ~lb ~extent inner)
          | _ -> None)
    | Dt.V_predefined _ -> None

let run ?(cpu = Config.default_cpu) t0 =
  let steps = ref [] in
  let apply_checked rule ~rpath before after =
    if Dt.lb before <> Dt.lb after || Dt.ub before <> Dt.ub after then
      invalid_arg
        (Printf.sprintf "Normalize: rule %s changed bounds of %s" (rule_id rule)
           (Dt.to_string before));
    let bn, ba = complexity before and an, aa = complexity after in
    steps :=
      {
        rule;
        path = List.rev rpath;
        before = Dt.to_string before;
        after = Dt.to_string after;
        nodes_delta = bn - an;
        entries_delta = ba - aa;
        cost_delta_ns =
          float_of_int (bn + ba - an - aa) *. cpu.Config.ddt_node_ns;
      }
      :: !steps;
    after
  in
  let rec root_fix rpath t =
    match try_root t with
    | None -> t
    | Some (rule, t') -> root_fix rpath (apply_checked rule ~rpath t t')
  in
  let rec norm rpath t =
    let t =
      match Dt.view t with
      | Dt.V_predefined _ -> t
      | Dt.V_contiguous (n, e) ->
          let e' = norm (0 :: rpath) e in
          if e' == e then t else Dt.contiguous n e'
      | Dt.V_hvector { count; blocklength; stride_bytes; elem } ->
          let elem' = norm (0 :: rpath) elem in
          if elem' == elem then t
          else Dt.hvector ~count ~blocklength ~stride_bytes elem'
      | Dt.V_hindexed { blocklengths; displacements_bytes; elem } ->
          let elem' = norm (0 :: rpath) elem in
          if elem' == elem then t
          else Dt.hindexed ~blocklengths ~displacements_bytes elem'
      | Dt.V_struct { blocklengths; displacements_bytes; types } ->
          let same = ref true in
          let types' =
            Array.mapi
              (fun i e ->
                let e' = norm (i :: rpath) e in
                if e' != e then same := false;
                e')
              types
          in
          if !same then t
          else Dt.struct_ ~blocklengths ~displacements_bytes ~types:types'
      | Dt.V_resized { lb; extent; elem } ->
          let elem' = norm (0 :: rpath) elem in
          if elem' == elem then t else Dt.resized ~lb ~extent elem'
    in
    root_fix rpath t
  in
  let normalized = norm [] t0 in
  {
    original = t0;
    normalized;
    steps = List.rev !steps;
    original_cost = cost ~cpu t0;
    normalized_cost = cost ~cpu normalized;
  }

let normalize ?cpu t = (run ?cpu t).normalized

(* --- verification --- *)

let equivalent a b =
  Dt.lb a = Dt.lb b && Dt.ub a = Dt.ub b && Dt.typemap a = Dt.typemap b

let verify_bytes ?(count = 3) a b =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if Dt.lb a <> Dt.lb b then fail "lb differs: %d vs %d" (Dt.lb a) (Dt.lb b)
  else if Dt.ub a <> Dt.ub b then
    fail "ub differs: %d vs %d" (Dt.ub a) (Dt.ub b)
  else if Dt.size a <> Dt.size b then
    fail "size differs: %d vs %d" (Dt.size a) (Dt.size b)
  else
    (* shift negative-lb layouts into buffer range; the same shift on
       both sides preserves relative equivalence *)
    let shift t =
      if Dt.lb t >= 0 then t
      else
        Dt.hindexed ~blocklengths:[| 1 |]
          ~displacements_bytes:[| -Dt.lb t |]
          t
    in
    let a = shift a and b = shift b in
    let pa = Plan.build a and pb = Plan.build b in
    let src_len = max 1 (Dt.ub a + ((count - 1) * Dt.extent a)) in
    let src = Buf.create src_len in
    for i = 0 to src_len - 1 do
      Buf.set_u8 src i (((i * 7) + 13) land 0xff)
    done;
    let packed = Dt.packed_size a ~count in
    let da = Buf.create (max 1 packed) and db = Buf.create (max 1 packed) in
    let wrote_a = Plan.pack pa ~count ~src ~dst:da in
    let wrote_b = Plan.pack pb ~count ~src ~dst:db in
    if wrote_a <> wrote_b then
      fail "packed sizes differ: %d vs %d" wrote_a wrote_b
    else if not (Buf.equal da db) then fail "packed streams differ"
    else
      let ua = Buf.create src_len and ub_ = Buf.create src_len in
      Plan.unpack pa ~count ~src:da ~dst:ua;
      Plan.unpack pb ~count ~src:db ~dst:ub_;
      if not (Buf.equal ua ub_) then fail "unpacked layouts differ"
      else Ok ()

(* --- JSON trace --- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_of_cost c =
  Printf.sprintf
    "{\"nodes\":%d,\"entries\":%d,\"blocks\":%d,\"commit_ns\":%.3f,\"pack_ns\":%.3f,\"total_ns\":%.3f}"
    c.nodes c.entries c.blocks c.commit_ns c.pack_ns c.total_ns

let json_of_step s =
  Printf.sprintf
    "{\"rule\":\"%s\",\"path\":[%s],\"before\":\"%s\",\"after\":\"%s\",\"nodes_delta\":%d,\"entries_delta\":%d,\"cost_delta_ns\":%.3f}"
    (rule_id s.rule)
    (String.concat "," (List.map string_of_int s.path))
    (json_escape s.before) (json_escape s.after) s.nodes_delta s.entries_delta
    s.cost_delta_ns

let json_of_result r =
  Printf.sprintf
    "{\"original\":\"%s\",\"normalized\":\"%s\",\"changed\":%b,\"original_cost\":%s,\"normalized_cost\":%s,\"steps\":[%s]}"
    (json_escape (Dt.to_string r.original))
    (json_escape (Dt.to_string r.normalized))
    (changed r)
    (json_of_cost r.original_cost)
    (json_of_cost r.normalized_cost)
    (String.concat "," (List.map json_of_step r.steps))
