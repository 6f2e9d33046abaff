(** Reference binary min-heap: the oracle that [test_simnet] checks the
    engine's event queue ({!Mpicd_simnet.Evq}) against.

    Entries are ordered by [(time, seq)]: the sequence number breaks ties
    so that entries pushed earlier at the same timestamp pop first. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> time:float -> seq:int -> 'a -> unit

val pop : 'a t -> (float * int * 'a) option
(** Remove and return the minimum entry. *)
