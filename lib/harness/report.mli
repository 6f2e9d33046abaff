(** Rendering of benchmark output: one aligned text table per paper
    figure (x column + one column per series), plus optional CSV dumps
    for external plotting. *)

type series = { label : string; points : (int * float) list }
(** [points] are (x, y); x is usually a message size in bytes. *)

val of_rows : string list -> (int * float list) list -> series list
(** [of_rows labels rows] is one series per label: row [(x, ys)] gives
    each label its point at [x], read from [ys] in label order. *)

val human_bytes : int -> string
(** 1024 -> "1K", 1048576 -> "1M", 3000 -> "3000". *)

val render :
  ?ylabel:string -> title:string -> xlabel:string -> series list -> string
(** Merge the series on their x values (rows sorted ascending; missing
    points shown as "-") and render an aligned table with a title
    banner. *)

val print : ?ylabel:string -> title:string -> xlabel:string -> series list -> unit

val to_csv : path:string -> xlabel:string -> series list -> unit
(** Write the merged table as CSV. *)

val print_kv_table : title:string -> header:string list -> string list list -> unit
(** Free-form table (used for Table I). *)

val print_metrics : ?title:string -> Mpicd_obs.Metrics.t -> unit
(** One row per metric (counters, gauges with high-water marks,
    histograms with count/mean/p50/p95/p99).  Prints nothing when the
    registry is empty. *)
