(* In-memory span recorder for the traced run.

   A span is (name, parent, start, end) on the host clock, recorded
   around one call the benchmark makes into a layer.  Spans live in
   growable parallel arrays and are written out once, when the run
   ends.  A disabled recorder costs one branch per call. *)

type t = {
  enabled : bool;
  mutable n : int;
  mutable name : string array;
  mutable parent : int array;
  mutable start : float array;
  mutable stop : float array;
}

let create ~enabled =
  let cap = if enabled then 1024 else 0 in
  {
    enabled;
    n = 0;
    name = Array.make cap "";
    parent = Array.make cap 0;
    start = Array.make cap 0.;
    stop = Array.make cap 0.;
  }

let enabled t = t.enabled
let off = create ~enabled:false

(* The recorder for alternation unit [k] of a traced run: [t] on odd
   units, [off] on even ones, so that traced and untraced units run
   side by side and the tracing overhead is measured, not estimated. *)
let alternate t k = if k land 1 = 1 then t else off

let grow t =
  let cap = 2 * Array.length t.start in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- ext t.name "";
  t.parent <- ext t.parent 0;
  t.start <- ext t.start 0.;
  t.stop <- ext t.stop 0.

(* Open a span; returns its id ([-1] when disabled). *)
let enter t ?(parent = -1) name =
  if not t.enabled then -1
  else begin
    if t.n = Array.length t.start then grow t;
    let id = t.n in
    t.n <- id + 1;
    t.name.(id) <- name;
    t.parent.(id) <- parent;
    t.stop.(id) <- nan;
    t.start.(id) <- Timing.now_ns ();
    id
  end

let leave t id = if id >= 0 then t.stop.(id) <- Timing.now_ns ()

let wrap t ?parent name f =
  let id = enter t ?parent name in
  Fun.protect ~finally:(fun () -> leave t id) f

(* Write the workload's numbers [extra] and the spans (at most
   [max_spans] of them, in recording order) as one JSON document. *)
let write t ~path ~max_spans ~extra =
  let module J = Mpicd_obs.Json in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let kept = min t.n max_spans in
      Printf.fprintf oc "{\n  \"clock\": \"host monotonic ns\",\n";
      Printf.fprintf oc "  \"spans_recorded\": %d,\n  \"spans_written\": %d,\n" t.n
        kept;
      output_string oc "  \"extra\": {";
      output_string oc
        (String.concat ", "
           (List.map
              (fun (k, v) -> Printf.sprintf "%s: %s" (J.quote k) (J.number v))
              extra));
      output_string oc "},\n  \"spans\": [\n";
      for i = 0 to kept - 1 do
        Printf.fprintf oc
          "    {\"id\": %d, \"name\": %s, \"parent\": %d, \"start_ns\": %s, \
           \"end_ns\": %s}%s\n"
          i (J.quote t.name.(i)) t.parent.(i)
          (J.number t.start.(i))
          (J.number t.stop.(i))
          (if i = kept - 1 then "" else ",")
      done;
      output_string oc "  ]\n}\n")
