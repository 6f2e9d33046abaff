(* Host-clock helpers shared by the workloads and the layer probes.
   Everything here measures wall-clock time on the host; virtual time
   never enters a metric. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let since_ns t0 = now_ns () -. t0

(* Linear-interpolation quantile (the "inclusive" method, as Python's
   [statistics.quantiles(..., method="inclusive")] and numpy's default):
   [q] in [0, 1]. *)
let quantile q samples =
  let n = Array.length samples in
  if n = 0 then nan
  else
    let s = Array.copy samples in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then s.(n - 1) else s.(i) +. (frac *. (s.(i + 1) -. s.(i)))

let median samples = quantile 0.5 samples

(* Median host time of [f ()] over [reps] runs after one untimed call,
   in nanoseconds. *)
let median_ns ~reps f =
  f ();
  median
    (Array.init reps (fun _ ->
         let t0 = now_ns () in
         f ();
         since_ns t0))

(* Run a set-up [f] [reps] times; returns the results in call order.
   One set-up is short, so its median is taken over many.  The count is
   fixed, not time-bound, so that a run allocates the same whatever the
   host's speed and its peak RSS stays put. *)
let repeat_setup ~reps f =
  let rec go k acc = if k = reps then List.rev acc else go (k + 1) (f () :: acc) in
  go 0 []

(* Run [pass 0], [pass 1], ...: at least [min_passes], then another
   only while a pass as long as the last one still ends by [deadline]
   (host ns), so a run always times whole passes.  Returns the number
   of passes. *)
let passes ~min_passes ~deadline pass =
  let rec go k last_ns =
    if k < min_passes || now_ns () +. last_ns <= deadline then begin
      let t0 = now_ns () in
      pass k;
      go (k + 1) (since_ns t0)
    end
    else k
  in
  go 0 0.

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> nan
        | Some line ->
            if String.starts_with ~prefix:"VmHWM:" line then
              Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      scan ())
