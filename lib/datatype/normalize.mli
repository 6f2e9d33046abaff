(** Guideline-driven datatype normalizer.

    Rewrites a derived datatype into a provably-equivalent form that is
    never more expensive under the simulated cost model — the
    TEMPI-style canonicalization (Pearson et al.) that makes types fast
    by construction instead of relying on users to pick the cheapest
    constructor (Hunold/Carpen-Amarie/Träff's self-consistent
    performance guidelines).

    {b Equivalence.}  Every rule preserves the exact MPI type map
    {e and} the (lb, extent) bounds of the rewritten subterm.  Since the
    pack engine's merged-block sequence is a function of the type map
    (and [count] elements tile with stride [extent]), this guarantees
    byte-identical [pack]/[unpack]/[pack_range]/[iovec] streams for
    every count — checkable against {!Plan} with {!verify_bytes}.

    {b Cost.}  Type-map-preserving rewrites cannot change per-send pack
    cost (same merged blocks, same bytes); what they shrink is the
    descriptor itself — tree nodes and index-array entries — i.e. the
    commit / plan-compilation / kernel-parameter cost charged at
    {!Mpicd_simnet.Config.cpu.ddt_node_ns} per node.  Every rule's
    node+entry delta is non-negative, so the normalized form provably
    never loses. *)

(** {1 Rewrite rules} *)

type rule =
  | R_contig_of_one  (** [contiguous(1,e) → e] *)
  | R_contig_flatten  (** [contiguous(n, contiguous(m,e)) → contiguous(n*m,e)] *)
  | R_empty  (** any shape with an empty type map [→ contiguous(0,byte)] *)
  | R_hvector_count_one  (** [hvector(1,b,_,e) → contiguous(b,e)] *)
  | R_hvector_collapse
      (** [hvector(c,b,s,e) → contiguous(c*b,e)] when [s = b * extent e] *)
  | R_hindexed_drop_zero  (** drop zero-length blocks from an hindexed *)
  | R_hindexed_coalesce
      (** merge hindexed blocks [i,i+1] with [d(i+1) = d(i) + bl(i)*extent] *)
  | R_hindexed_contig  (** single-block hindexed at displacement 0 → contiguous *)
  | R_hindexed_vector
      (** uniform-blocklength, constant-stride hindexed → hvector (wrapped in a
          one-block hindexed when the first displacement is nonzero) *)
  | R_struct_homogeneous
      (** struct whose fields are all the same type → hindexed *)
  | R_resized_noop  (** resized matching the element's natural bounds → elem *)
  | R_resized_nested  (** [resized(resized(e)) → resized(e)] (outer wins) *)

val rule_id : rule -> string
(** Stable machine-readable identifier, e.g. ["hindexed-vector"]. *)

(** {1 Cost model} *)

type cost = {
  nodes : int;  (** descriptor tree nodes *)
  entries : int;
      (** scalar slots the descriptor carries: constructor parameters
          plus index-array entries (struct field types count too) *)
  blocks : int;  (** merged contiguous blocks per element *)
  commit_ns : float;  (** (nodes + entries) * ddt_node_ns *)
  pack_ns : float;  (** blocks * ddt_block_ns + memcpy(size) per element *)
  total_ns : float;  (** commit_ns + pack_ns *)
}

val cost : ?cpu:Mpicd_simnet.Config.cpu -> Datatype.t -> cost
(** Cost of committing and packing one element under the simnet CPU
    model (default {!Mpicd_simnet.Config.default_cpu}). *)

(** {1 Rewrite trace} *)

type step = {
  rule : rule;
  path : int list;  (** child indices from the root to the rewritten node *)
  before : string;  (** rendered subterm before the rewrite *)
  after : string;  (** rendered subterm after the rewrite *)
  nodes_delta : int;  (** nodes removed (>= 0) *)
  entries_delta : int;  (** array entries removed (>= 0 except wrapping) *)
  cost_delta_ns : float;  (** commit-cost reduction (>= 0) *)
}

type result = {
  original : Datatype.t;
  normalized : Datatype.t;
  steps : step list;  (** in application order *)
  original_cost : cost;
  normalized_cost : cost;
}

val run : ?cpu:Mpicd_simnet.Config.cpu -> Datatype.t -> result
(** Rewrite to fixpoint (bottom-up, then root rules to exhaustion).
    Raises [Invalid_argument] if a rewrite fails the internal
    bounds-preservation check — that would be a normalizer bug, never a
    property of the input. *)

val normalize : ?cpu:Mpicd_simnet.Config.cpu -> Datatype.t -> Datatype.t
(** [(run t).normalized]. *)

val changed : result -> bool
(** True iff at least one rewrite fired. *)

val json_of_result : result -> string
(** Machine-readable trace: rule ids, paths, before/after renderings and
    per-step cost deltas plus the original/normalized cost summaries. *)

(** {1 Verification} *)

val equivalent : Datatype.t -> Datatype.t -> bool
(** Full equivalence check: identical type maps and identical (lb, ub).
    O(size) — intended for tests and checkers, not hot paths. *)

val verify_bytes : ?count:int -> Datatype.t -> Datatype.t -> (unit, string) Result.t
(** Compile both types with {!Plan.build} and compare the packed streams
    (and round-trip unpack) of a deterministically-filled buffer for
    [count] elements (default 3).  [Ok ()] iff byte-identical. *)
