(** Contract checker for custom-datatype callback sets.

    Exercises a {!Mpicd.Custom.t} through the same engine-side interface
    the transport uses (paper Listings 3–5) and verifies the invariants
    the pack engine relies on:

    - [query] is deterministic and non-negative;
    - [pack] fragments tile exactly [\[0, query)]: every return value [n]
      satisfies [0 < n <= min (length dst) remaining] while the stream is
      not exhausted;
    - the packed bytes do not depend on where fragment boundaries fall
      (driven by deterministic boundary fuzzing seeded from
      {!Mpicd_simnet.Rng});
    - re-packing an arbitrary mid-stream window reproduces the original
      bytes — required for correctness under the reliable-delivery
      protocol, which re-packs fragments when retransmitting them
      (docs/FAULTS.md);
    - [unpack ∘ pack] round-trips bytewise (and, when an object equality
      is supplied, object-wise);
    - regions are non-overlapping, agree with [region_count], and
      packed bytes + region bytes account for the declared wire size.

    Rule catalogue: docs/CHECKS.md. *)

val analyzer : string

type 'obj spec = {
  name : string;  (** subject used in findings *)
  dt : 'obj Mpicd.Custom.t;
  make : unit -> 'obj;  (** fresh source object *)
  make_sink : (unit -> 'obj) option;
      (** fresh destination object for round-trip checks; when [None]
          the unpack/round-trip phases are skipped *)
  equal : ('obj -> 'obj -> bool) option;
      (** semantic equality of source and round-tripped sink *)
  count : int;
  expected_wire : int option;
      (** declared total wire bytes (packed + regions), if known *)
}

val check : ?seed:int -> ?rounds:int -> 'obj spec -> Finding.t list
(** [check spec] runs the full battery; [rounds] (default 8) is the
    number of fragment-boundary fuzz rounds, derived deterministically
    from [seed].  Findings are deduplicated by rule id. *)

val first_overlap : ?count:int ref -> Mpicd_buf.Buf.t array -> (int * int) option
(** The first pair [(i, j)], [i < j] (smallest [i], then smallest [j]),
    of non-empty regions that share bytes, if any.  Whether such a pair
    exists is decided in O(R log R) comparisons over R regions (when
    few storages of one length hold them); only then does the pairwise
    search run.  [count] accumulates the comparisons of both. *)
