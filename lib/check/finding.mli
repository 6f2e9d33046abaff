(** Findings produced by the [Mpicd_check] analyzers.

    A finding is one diagnosable fact about a datatype, a custom-callback
    set, or a communication pattern.  Severities follow lint convention:

    - [Error] — violates MPI semantics or the custom-datatype contract;
      the construct will corrupt data, deadlock, or fail at runtime.
    - [Warning] — legal but almost certainly a bug (zero-length blocks,
      misaligned elements, messages left unmatched at finalize).
    - [Hint] — correct as written; a rewrite would be faster or simpler
      (normalization opportunities, extent traps).  Hints never fail a
      check run. *)

type severity = Error | Warning | Hint

type rewrite = {
  rw_rule : string;
      (** machine-readable rule id: a {!Mpicd_datatype.Normalize.rule_id}
          or ["normalize"] for a composed multi-step rewrite *)
  rw_path : string;
      (** which subterm to replace, in the lint walk's path notation
          (["" ] = the whole type) *)
  rw_replacement : Mpicd_datatype.Datatype.t;
      (** equivalent replacement type — same type map and bounds, so a
          tool can substitute it mechanically *)
  rw_steps : int;  (** normalizer steps composing the rewrite *)
}
(** Typed, mechanically-applicable version of {!t.suggestion}. *)

type t = {
  id : string;  (** stable rule id, e.g. ["DT-OVERLAP"] (docs/CHECKS.md) *)
  severity : severity;
  analyzer : string;  (** which analyzer produced it *)
  subject : string;  (** what was analyzed (kernel, scenario, type name) *)
  message : string;
  suggestion : string option;  (** suggested rewrite / fix, if any *)
  cost_delta_ns : float option;
      (** predicted per-element saving of the suggested rewrite under the
          simnet cost model (positive = rewrite is cheaper) *)
  rewrite : rewrite option;
      (** typed rewrite payload; rendered in JSON as an additional
          ["rewrite"] key, so the pre-existing schema stays valid *)
}

val make :
  ?suggestion:string ->
  ?cost_delta_ns:float ->
  ?rewrite:rewrite ->
  id:string ->
  severity:severity ->
  analyzer:string ->
  subject:string ->
  string ->
  t

val is_problem : t -> bool
(** [Error] or [Warning]: counts toward a non-zero exit of the checker. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val json : t -> string
(** The finding as one JSON object (stable field names). *)

val json_string : string -> string
(** Quote and escape an arbitrary string as a JSON string literal
    (shared by the report renderer). *)
