(* Tests for the discrete-event engine, heap, RNG, config and stats. *)

open Mpicd_simnet

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* Heap *)

let test_heap_ordering () =
  let h = Heap.create () in
  Heap.push h ~time:3. ~seq:0 "c";
  Heap.push h ~time:1. ~seq:1 "a";
  Heap.push h ~time:2. ~seq:2 "b";
  let pop () =
    match Heap.pop h with Some (_, _, v) -> v | None -> Alcotest.fail "empty"
  in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~time:5. ~seq:i i
  done;
  for i = 0 to 9 do
    match Heap.pop h with
    | Some (_, _, v) -> check_int "fifo order at equal time" i v
    | None -> Alcotest.fail "empty"
  done

let test_heap_many () =
  let h = Heap.create () in
  let rng = Rng.create 42 in
  let n = 2000 in
  for i = 0 to n - 1 do
    Heap.push h ~time:(Rng.float rng 1000.) ~seq:i ()
  done;
  check_int "size" n (Heap.size h);
  let last = ref neg_infinity in
  for _ = 1 to n do
    match Heap.pop h with
    | Some (t, _, ()) ->
        Alcotest.(check bool) "monotone" true (t >= !last);
        last := t
    | None -> Alcotest.fail "underflow"
  done

(* Engine *)

let test_sleep_advances_clock () =
  let e = Engine.create () in
  let final = ref 0. in
  Engine.spawn e (fun () ->
      Engine.sleep e 100.;
      Engine.sleep e 50.;
      final := Engine.now e);
  Engine.run e;
  check_float "clock" 150. !final

let test_two_fibers_interleave () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag = log := (tag, Engine.now e) :: !log in
  Engine.spawn e ~name:"a" (fun () ->
      note "a0";
      Engine.sleep e 10.;
      note "a1");
  Engine.spawn e ~name:"b" (fun () ->
      note "b0";
      Engine.sleep e 5.;
      note "b1");
  Engine.run e;
  let expected = [ ("a0", 0.); ("b0", 0.); ("b1", 5.); ("a1", 10.) ] in
  Alcotest.(check (list (pair string (float 1e-9))))
    "order" expected (List.rev !log)

let test_ivar_blocks () =
  let e = Engine.create () in
  let iv = Engine.Ivar.create () in
  let got = ref (-1) in
  let got_at = ref 0. in
  Engine.spawn e (fun () ->
      got := Engine.Ivar.read e iv;
      got_at := Engine.now e);
  Engine.spawn e (fun () ->
      Engine.sleep e 42.;
      Engine.Ivar.fill iv 7);
  Engine.run e;
  check_int "value" 7 !got;
  check_float "time" 42. !got_at

let test_ivar_double_fill () =
  let iv = Engine.Ivar.create () in
  Engine.Ivar.fill iv 1;
  Alcotest.check_raises "double fill"
    (Invalid_argument "Ivar.fill: already filled") (fun () ->
      Engine.Ivar.fill iv 2)

(* [signal] wakes the oldest waiter, each signal with its own value. *)
let test_waitq_signal_fifo () =
  let e = Engine.create () in
  let wq = Engine.Waitq.create () in
  let got = ref [] in
  List.iter
    (fun (name, at) ->
      Engine.spawn e (fun () ->
          Engine.sleep e at;
          let v = Engine.Waitq.wait e wq in
          got := (name, v) :: !got))
    [ ("second", 2.); ("first", 1.); ("third", 3.) ];
  Engine.at e ~delay:10. (fun () ->
      List.iter
        (fun v -> Alcotest.(check bool) "a waiter" true (Engine.Waitq.signal wq v))
        [ 1; 2; 3 ];
      Alcotest.(check bool) "nobody left" false (Engine.Waitq.signal wq 4));
  Engine.run e;
  Alcotest.(check (list (pair string int))) "oldest first"
    [ ("first", 1); ("second", 2); ("third", 3) ]
    (List.rev !got)

(* A bare cell for [await_any]: a waiter field and nothing else. *)
type cell = { mutable parked : int Engine.waiter }

let cell_slot = { Engine.get = (fun c -> c.parked); set = (fun c w -> c.parked <- w) }
let new_cell () = { parked = Engine.idle }

let test_deadlock_detection () =
  let e = Engine.create () in
  let iv : int Engine.Ivar.t = Engine.Ivar.create () in
  Engine.spawn e ~name:"stuck" (fun () -> ignore (Engine.Ivar.read e iv));
  (match Engine.run e with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Engine.Deadlock msg ->
      Alcotest.(check bool) "mentions fiber" true
        (String.length msg > 0
        &&
        let contains hay needle =
          let nl = String.length needle and hl = String.length hay in
          let rec go i =
            i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
          in
          go 0
        in
        contains msg "stuck"))

(* The blocked-fiber bookkeeping: a woken fiber leaves the deadlock
   report, and the report is in fiber-id order whatever order the
   fibers parked in ([c] parks last here). *)
let test_deadlock_names_blocked () =
  let e = Engine.create () in
  let iv_a = Engine.Ivar.create ()
  and iv_b = Engine.Ivar.create ()
  and iv_c = Engine.Ivar.create () in
  Engine.spawn e ~name:"a" (fun () -> Engine.Ivar.read e iv_a);
  Engine.spawn e ~name:"b" (fun () -> Engine.Ivar.read e iv_b);
  Engine.spawn e ~name:"c" (fun () ->
      Engine.sleep e 5.;
      Engine.Ivar.read e iv_c);
  Engine.spawn e ~name:"waker" (fun () ->
      Engine.sleep e 10.;
      Engine.Ivar.fill iv_b ());
  match Engine.run e with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Engine.Deadlock msg ->
      Alcotest.(check string) "exactly the blocked fibers, by id"
        "simulation deadlock: 2 fiber(s) still blocked [a#1, c#3]" msg

(* Two cells of one [await_any] woken in the same callback: the fiber
   resumes once, with the first cell woken. *)
let test_await_any_resumes_once () =
  let e = Engine.create () in
  let a = new_cell () and b = new_cell () in
  let got = ref [] in
  Engine.spawn e (fun () ->
      let hit = Engine.await_any cell_slot [ a; b ] in
      got := hit :: !got);
  Engine.at e ~delay:1. (fun () ->
      Engine.wake cell_slot b 2;
      Engine.wake cell_slot a 1);
  Engine.run e;
  Alcotest.(check (list (pair int int))) "one resumption, by [b]" [ (1, 2) ] !got;
  check_int "the fiber finished" 0 (Engine.live_fibers e);
  Alcotest.check_raises "no cells"
    (Invalid_argument "Engine.await_any: no cells") (fun () ->
      ignore (Engine.await_any cell_slot []))

(* The deadlock report lists live fibers: one that finished before the
   queue ran dry is gone from it, whether it was spawned first or
   later from inside another fiber, and one spawned late is in it at
   its own id. *)
let test_deadlock_names_live_after_churn () =
  let e = Engine.create () in
  let never : unit Engine.Ivar.t = Engine.Ivar.create () in
  Engine.spawn e ~name:"done" (fun () -> Engine.sleep e 1.);
  Engine.spawn e ~name:"early" (fun () -> Engine.Ivar.read e never);
  Engine.spawn e ~name:"parent" (fun () ->
      Engine.sleep e 3.;
      Engine.spawn e ~name:"late" (fun () ->
          Engine.sleep e 2.;
          Engine.Ivar.read e never);
      Engine.spawn e ~name:"brief" (fun () -> Engine.sleep e 1.);
      Engine.Ivar.read e never);
  match Engine.run e with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Engine.Deadlock msg ->
      Alcotest.(check string) "exactly the live fibers, by id"
        "simulation deadlock: 3 fiber(s) still blocked [early#2, parent#3, \
         late#4]"
        msg

(* An [await_any] loser keeps a stale node in its cell: waking the
   cell later skips it and wakes only the fiber's later wait there. *)
let test_await_any_loser_goes_stale () =
  let e = Engine.create () in
  let a = new_cell () and b = new_cell () in
  let got = ref [] in
  Engine.spawn e (fun () ->
      let hit = Engine.await_any cell_slot [ a; b ] in
      let v = Engine.await cell_slot b in
      got := [ (-1, v); hit ]);
  Engine.at e ~delay:1. (fun () -> Engine.wake cell_slot a 1);
  Engine.at e ~delay:2. (fun () -> Engine.wake cell_slot b 2);
  Engine.run e;
  Alcotest.(check (list (pair int int))) "each wait got its own value"
    [ (-1, 2); (0, 1) ] !got;
  check_int "the fiber finished" 0 (Engine.live_fibers e)

(* Readers parked on one cell, whether in its first-reader slot or
   behind it, are reported by fiber id. *)
let test_deadlock_names_ivar_readers () =
  let e = Engine.create () in
  let iv : unit Engine.Ivar.t = Engine.Ivar.create () in
  List.iter
    (fun (name, at) ->
      Engine.spawn e ~name (fun () ->
          Engine.sleep e at;
          Engine.Ivar.read e iv))
    [ ("x", 3.); ("y", 1.); ("z", 2.) ];
  match Engine.run e with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Engine.Deadlock msg ->
      Alcotest.(check string) "the readers, by id"
        "simulation deadlock: 3 fiber(s) still blocked [x#1, y#2, z#3]" msg

(* Readers blocked on one cell wake in the order they blocked. *)
let test_ivar_readers_fifo () =
  let e = Engine.create () in
  let iv = Engine.Ivar.create () in
  let order = ref [] in
  List.iter
    (fun (name, at) ->
      Engine.spawn e ~name (fun () ->
          Engine.sleep e at;
          let v = Engine.Ivar.read e iv in
          order := (name, v) :: !order))
    [ ("second", 2.); ("first", 1.); ("third", 3.) ];
  Engine.at e ~delay:10. (fun () -> Engine.Ivar.fill iv 7);
  Engine.run e;
  Alcotest.(check (list (pair string int))) "wake order = block order"
    [ ("first", 7); ("second", 7); ("third", 7) ]
    (List.rev !order);
  (* a read after the fill does not block *)
  Engine.spawn e (fun () -> check_int "filled read" 7 (Engine.Ivar.read e iv));
  Engine.run e

let test_at_callback () =
  let e = Engine.create () in
  let fired = ref 0. in
  Engine.at e ~delay:33. (fun () -> fired := Engine.now e);
  Engine.run e;
  check_float "at" 33. !fired

let test_spawn_from_fiber () =
  let e = Engine.create () in
  let result = ref 0 in
  Engine.spawn e (fun () ->
      Engine.sleep e 10.;
      Engine.spawn e (fun () ->
          Engine.sleep e 5.;
          result := int_of_float (Engine.now e)));
  Engine.run e;
  check_int "nested spawn time" 15 !result

let test_waitq_broadcast () =
  let e = Engine.create () in
  let wq = Engine.Waitq.create () in
  let count = ref 0 in
  for _ = 1 to 5 do
    Engine.spawn e (fun () ->
        let v = Engine.Waitq.wait e wq in
        count := !count + v)
  done;
  Engine.spawn e (fun () ->
      Engine.sleep e 1.;
      check_int "waiters" 5 (Engine.Waitq.waiters wq);
      ignore (Engine.Waitq.broadcast wq 10));
  Engine.run e;
  check_int "all resumed" 50 !count

let test_determinism () =
  let run_once () =
    let e = Engine.create () in
    let trace = Buffer.create 64 in
    for i = 0 to 9 do
      Engine.spawn e (fun () ->
          Engine.sleep e (float_of_int ((i * 7) mod 5));
          Buffer.add_string trace (Printf.sprintf "%d@%.0f;" i (Engine.now e)))
    done;
    Engine.run e;
    Buffer.contents trace
  in
  Alcotest.(check string) "identical traces" (run_once ()) (run_once ())

(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_float_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.float r 5.0 in
    Alcotest.(check bool) "in range" true (v >= 0. && v < 5.)
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create 5 in
  let arr = Array.init 50 Fun.id in
  let orig = Array.copy arr in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" orig sorted

let test_rng_split_independent () =
  let r = Rng.create 9 in
  let r2 = Rng.split r in
  let a = Rng.next64 r and b = Rng.next64 r2 in
  Alcotest.(check bool) "different streams" true (a <> b)

let test_fiber_exception_propagates () =
  let e = Engine.create () in
  Engine.spawn e (fun () -> failwith "fiber boom");
  (match Engine.run e with
  | () -> Alcotest.fail "expected exception"
  | exception Failure msg -> Alcotest.(check string) "message" "fiber boom" msg)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let[@inline never] raise_in_helper n =
  if n > 0 then failwith "helper boom";
  n

(* An exception escaping a fiber keeps the backtrace of the site that
   raised it, not of the engine's handler that passed it on. *)
let test_fiber_exception_backtrace () =
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace recording)
  @@ fun () ->
  let e = Engine.create () in
  (* not a tail call: the helper's frame is on the stack when it raises *)
  Engine.spawn e (fun () -> ignore (raise_in_helper 1 + 1));
  match Engine.run e with
  | () -> Alcotest.fail "expected exception"
  | exception Failure _ ->
      let bt = Printexc.get_backtrace () in
      if not (contains bt "Stdlib.failwith" && contains bt "raise_in_helper")
      then Alcotest.failf "backtrace lost the raise site:\n%s" bt

(* Mutex *)

let test_mutex_excludes () =
  let e = Engine.create () in
  let m = Engine.Mutex.create () in
  let inside = ref 0 and max_inside = ref 0 and order = ref [] in
  for i = 1 to 4 do
    Engine.spawn e (fun () ->
        Engine.Mutex.with_lock e m (fun () ->
            incr inside;
            max_inside := max !max_inside !inside;
            order := i :: !order;
            Engine.sleep e 10.;
            decr inside))
  done;
  Engine.run e;
  check_int "never two inside" 1 !max_inside;
  (* FIFO handoff preserves spawn order *)
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4 ] (List.rev !order)

let test_mutex_unlock_errors () =
  let m = Engine.Mutex.create () in
  Alcotest.check_raises "unlock unlocked"
    (Invalid_argument "Mutex.unlock: not locked") (fun () ->
      Engine.Mutex.unlock m)

let test_mutex_with_lock_releases_on_exn () =
  let e = Engine.create () in
  let m = Engine.Mutex.create () in
  let second_ran = ref false in
  Engine.spawn e (fun () ->
      (try Engine.Mutex.with_lock e m (fun () -> failwith "boom")
       with Failure _ -> ()));
  Engine.spawn e (fun () ->
      Engine.Mutex.with_lock e m (fun () -> second_ran := true));
  Engine.run e;
  Alcotest.(check bool) "released after exception" true !second_ran;
  Alcotest.(check bool) "free at end" false (Engine.Mutex.is_locked m)

(* Config / Stats *)

let test_config_costs () =
  let c = Config.default in
  check_float "wire time scales" (c.link.ns_per_byte *. 2000.)
    (Config.wire_time c.link 2000);
  Alcotest.(check bool) "alloc has base cost" true
    (Config.alloc_time c.cpu 0 >= c.cpu.alloc_base_ns);
  Alcotest.(check bool) "memcpy monotone" true
    (Config.memcpy_time c.cpu 100 < Config.memcpy_time c.cpu 1000)

let test_stats_counters () =
  let s = Stats.create () in
  Stats.record_message s ~eager:true ~wire_bytes:100;
  Stats.record_message s ~eager:false ~wire_bytes:200;
  Stats.record_copy s 50;
  Stats.record_alloc s 1000;
  Stats.record_alloc s 500;
  Stats.record_free s 1000;
  check_int "messages" 2 (Stats.get s Messages_sent);
  check_int "wire" 300 (Stats.get s Bytes_on_wire);
  check_int "eager" 1 (Stats.get s Eager_messages);
  check_int "rndv" 1 (Stats.get s Rndv_messages);
  check_int "copied" 50 (Stats.get s Bytes_copied);
  check_int "peak" 1500 s.peak_alloc_bytes;
  check_int "live" 500 s.live_alloc_bytes

let test_stats_diff () =
  let s = Stats.create () in
  Stats.record_message s ~eager:true ~wire_bytes:10;
  let before = Stats.snapshot s in
  Stats.record_message s ~eager:true ~wire_bytes:32;
  Stats.incr s Pack_callbacks;
  let d = Stats.diff ~after:s ~before in
  check_int "delta messages" 1 (Stats.get d Messages_sent);
  check_int "delta wire" 32 (Stats.get d Bytes_on_wire);
  check_int "delta pack" 1 (Stats.get d Pack_callbacks)

(* diff measures an interval, but live/peak are levels, not deltas: the
   result must carry the [after] values unchanged. *)
let test_stats_diff_live_peak_carry_over () =
  let s = Stats.create () in
  Stats.record_alloc s 1000;
  Stats.record_free s 400;
  let before = Stats.snapshot s in
  Stats.record_alloc s 200;
  let d = Stats.diff ~after:s ~before in
  check_int "delta allocs" 1 (Stats.get d Allocs);
  check_int "delta allocated" 200 (Stats.get d Bytes_allocated);
  check_int "live carries after" 800 d.live_alloc_bytes;
  check_int "peak carries after" 1000 d.peak_alloc_bytes;
  check_int "after live unchanged" 800 s.live_alloc_bytes;
  check_int "after peak unchanged" 1000 s.peak_alloc_bytes

(* Every counter has its own non-empty name: reports and the
   OBSERVABILITY.md table tell counters apart by name alone. *)
let test_stats_names () =
  let names = List.map Stats.name Stats.all in
  List.iter (fun n -> if n = "" then Alcotest.fail "a counter has no name") names;
  check_int "names are distinct" (List.length names)
    (List.length (List.sort_uniq compare names))

(* docs/OBSERVABILITY.md's counter table names exactly the counters
   there are.  Run by dune from test/, or by hand from the root. *)
let test_stats_names_documented () =
  let path =
    List.find Sys.file_exists [ "../docs/OBSERVABILITY.md"; "docs/OBSERVABILITY.md" ]
  in
  let lines =
    String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all)
  in
  let rec section = function
    | [] -> Alcotest.fail "no \"## Simulation counters\" section"
    | l :: rest ->
        if String.starts_with ~prefix:"## Simulation counters" l then rest
        else section rest
  in
  let rec rows acc = function
    | l :: rest when not (String.starts_with ~prefix:"## " l) ->
        let acc =
          if String.starts_with ~prefix:"| `" l then
            List.nth (String.split_on_char '`' l) 1 :: acc
          else acc
        in
        rows acc rest
    | _ -> List.sort compare acc
  in
  Alcotest.(check (list string))
    "table = Stats.name of every counter"
    (List.sort compare (List.map Stats.name Stats.all))
    (rows [] (section lines))

(* Properties *)

(* Random increments between two snapshots: [diff] returns exactly what
   was added between them and carries the levels from [after], and
   neither snapshot moves when the live counters do. *)
let prop_stats_diff =
  let counters = Array.of_list Stats.all in
  let n = Array.length counters in
  let op = QCheck.(pair (int_bound (n - 1)) (int_bound 1000)) in
  QCheck.Test.make ~name:"stats: diff = increments applied" ~count:200
    QCheck.(triple (list op) (list op) (pair small_nat small_nat))
    (fun (pre, ops, (live, peak)) ->
      (* [by = 0] stands for one [incr] *)
      let apply s (i, by) =
        if by = 0 then Stats.incr s counters.(i) else Stats.add s counters.(i) by
      in
      let applied ops i =
        List.fold_left (fun a (j, by) -> if j = i then a + max by 1 else a) 0 ops
      in
      let s = Stats.create () in
      List.iter (apply s) pre;
      let before = Stats.snapshot s in
      List.iter (apply s) ops;
      s.live_alloc_bytes <- live;
      s.peak_alloc_bytes <- peak;
      let after = Stats.snapshot s in
      List.iter (apply s) ops;
      s.live_alloc_bytes <- live + 1;
      let d = Stats.diff ~after ~before in
      List.for_all
        (fun i ->
          let c = counters.(i) in
          Stats.get d c = applied ops i
          && Stats.get before c = applied pre i
          && Stats.get after c = applied pre i + applied ops i)
        (List.init n Fun.id)
      && d.live_alloc_bytes = live && d.peak_alloc_bytes = peak
      && after.live_alloc_bytes = live)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap: pops are sorted" ~count:100
    QCheck.(list (pair (float_bound_inclusive 1000.) small_nat))
    (fun entries ->
      let h = Heap.create () in
      List.iteri (fun i (t, _) -> Heap.push h ~time:t ~seq:i ()) entries;
      let rec drain last =
        match Heap.pop h with
        | None -> true
        | Some (t, _, ()) -> t >= last && drain t
      in
      drain neg_infinity)

let prop_rng_int_in_range =
  QCheck.Test.make ~name:"rng: int always in range" ~count:200
    QCheck.(pair small_nat (int_range 1 10000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int r bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

(* Evq: the engine's calendar-queue event queue *)

let test_evq_ordering () =
  let q = Evq.create () in
  Evq.push q ~time:3. ~seq:0 "c";
  Evq.push q ~time:1. ~seq:1 "a";
  Evq.push q ~time:2. ~seq:2 "b";
  Alcotest.(check (float 0.)) "min_time" 1. (Evq.min_time q);
  Alcotest.(check string) "first" "a" (Evq.pop_min q);
  Alcotest.(check string) "second" "b" (Evq.pop_min q);
  Alcotest.(check string) "third" "c" (Evq.pop_min q);
  Alcotest.(check bool) "empty" true (Evq.is_empty q)

let test_evq_fifo_ties () =
  let q = Evq.create () in
  for i = 0 to 9 do
    Evq.push q ~time:5. ~seq:i i
  done;
  for i = 0 to 9 do
    match Evq.pop q with
    | Some (_, _, v) -> check_int "fifo order at equal time" i v
    | None -> Alcotest.fail "empty"
  done

let test_evq_counters () =
  let q = Evq.create () in
  (* 300 pushes double the initial 16-entry capacity five times (at
     pushes 17, 33, 65, 129 and 257): every push except those that grew
     the arrays counts as a pool reuse *)
  for i = 1 to 300 do
    Evq.push q ~time:(float_of_int i) ~seq:i i
  done;
  check_int "pushes" 300 (Evq.pushes q);
  check_int "max_live" 300 (Evq.max_live q);
  check_int "reuses" 295 (Evq.reuses q);
  for _ = 1 to 300 do
    ignore (Evq.pop_min q)
  done;
  for i = 1 to 5 do
    Evq.push q ~time:(float_of_int i) ~seq:(300 + i) i
  done;
  check_int "steady-state pushes all reuse" 300 (Evq.reuses q);
  check_int "max_live unchanged by drain" 300 (Evq.max_live q)

(* The queue's performance expectation, stated as exact counts on the
   steady-state "hold" pattern: pop the minimum, push a replacement at
   the popped time plus a delay in 1..1024 from a fixed xorshift
   stream, keeping [live] events queued — a [live]-rank simulation's
   shape.  A pop's cost follows the buckets it scans, so buckets
   scanned per pop must stay under a pinned bound at both scales (a
   calendar whose width stops fitting the events' spacing walks empty
   buckets), and once warm every push must reuse a freed entry. *)
let hold_counts ~live ~ops =
  let s = ref 88172645463325252 in
  let next_delta () =
    let x = !s in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    s := x;
    float_of_int (1 + (x land 1023))
  in
  let q = Evq.create () in
  for i = 1 to live do
    Evq.push q ~time:(next_delta ()) ~seq:i ()
  done;
  let scans0 = Evq.scans q and reuses0 = Evq.reuses q in
  for i = 1 to ops do
    let time = Evq.min_time q in
    Evq.pop_min q;
    Evq.push q ~time:(time +. next_delta ()) ~seq:(live + i) ()
  done;
  (Evq.scans q - scans0, Evq.reuses q - reuses0)

let test_evq_hold_counts () =
  let ops = 100_000 in
  (* measured 0.253 at 1k and 0.254 at 4k: a pop scans a quarter of a
     bucket at either scale *)
  let max_scans_per_pop = 0.30 in
  List.iter
    (fun live ->
      let scans, reuses = hold_counts ~live ~ops in
      let per_pop = float_of_int scans /. float_of_int ops in
      Alcotest.(check bool)
        (Printf.sprintf "hold %d: %.3f buckets scanned per pop <= %.2f" live
           per_pop max_scans_per_pop)
        true
        (per_pop <= max_scans_per_pop);
      check_int (Printf.sprintf "hold %d: every warm push reuses" live) ops
        reuses)
    [ 1024; 4096 ]

(* The tentpole correctness pin: over an arbitrary interleaving of
   pushes and pops — with heavy timestamp ties and far-future outliers
   that exercise the calendar's clamp path — Evq must produce exactly
   the (time, seq, value) pop sequence of the reference binary heap. *)
let prop_evq_matches_heap =
  let time_gen =
    QCheck.Gen.(
      oneof
        [
          map float_of_int (int_bound 20);
          float_bound_inclusive 1000.;
          oneofl [ 1e13; 0.; 0.125 ];
        ])
  in
  let ops_gen = QCheck.Gen.(list (pair bool time_gen)) in
  let print_ops ops =
    String.concat "; "
      (List.map
         (fun (push, t) -> if push then Printf.sprintf "push %g" t else "pop")
         ops)
  in
  QCheck.Test.make ~name:"evq: pop order identical to reference heap"
    ~count:300
    (QCheck.make ~print:print_ops ops_gen)
    (fun ops ->
      let h = Heap.create () in
      let q = Evq.create () in
      let seq = ref 0 in
      let ok = ref true in
      let pop_both () =
        let want = Heap.pop h in
        let got = Evq.pop q in
        if got <> want then ok := false
      in
      List.iter
        (fun (push, time) ->
          if push then begin
            incr seq;
            Heap.push h ~time ~seq:!seq !seq;
            Evq.push q ~time ~seq:!seq !seq
          end
          else pop_both ())
        ops;
      while not (Heap.is_empty h && Evq.is_empty q) do
        pop_both ()
      done;
      !ok)

(* The same pin on the shape a small faulty world gives the queue: 1–8
   live events, each pop pushing successors at the popped time plus a
   delay that is a tie (0), link-latency-like (µs), a heartbeat (50 µs)
   or a far-future sentinel (1e13).  A few events spread this far apart
   make the scan wrap whole years, so this drives the width
   re-estimation on a wrap over and over. *)
let prop_evq_matches_heap_sim_shaped =
  let max_live = 8 in
  let delay_gen =
    QCheck.Gen.(
      frequency
        [
          (1, return 0.);
          (6, map (fun k -> 1e3 *. float_of_int k) (1 -- 20));
          (2, return 5e4);
          (1, return 1e13);
        ])
  in
  let step_gen = QCheck.Gen.(pair (0 -- 2) (list_repeat 2 delay_gen)) in
  let gen =
    QCheck.Gen.(
      pair
        (pair (1 -- max_live) (list_repeat max_live delay_gen))
        (list_size (100 -- 600) step_gen))
  in
  let print ((n0, _), steps) =
    Printf.sprintf "%d initial events, %d steps" n0 (List.length steps)
  in
  QCheck.Test.make
    ~name:"evq: pop order identical to reference heap on simulation-shaped runs"
    ~count:200 (QCheck.make ~print gen)
    (fun ((n0, initial), steps) ->
      let h = Heap.create () in
      let q = Evq.create () in
      let seq = ref 0 in
      let push time =
        incr seq;
        Heap.push h ~time ~seq:!seq !seq;
        Evq.push q ~time ~seq:!seq !seq
      in
      List.iteri (fun i d -> if i < n0 then push d) initial;
      let ok = ref true in
      let pop_both () =
        let want = Heap.pop h and got = Evq.pop q in
        if got <> want then ok := false;
        want
      in
      List.iter
        (fun (k, delays) ->
          match pop_both () with
          | None -> ok := false
          | Some (now, _, _) ->
              let live = Heap.size h in
              (* keep 1..max_live events live *)
              let k = min (max k (if live = 0 then 1 else 0)) (max_live - live) in
              List.iteri (fun i d -> if i < k then push (now +. d)) delays)
        steps;
      while not (Heap.is_empty h && Evq.is_empty q) do
        ignore (pop_both ())
      done;
      !ok)

(* Engine virtual-time hardening *)

let test_sleep_rejects_bad_durations () =
  let e = Engine.create () in
  Engine.spawn e (fun () ->
      Alcotest.check_raises "NaN sleep"
        (Invalid_argument "Engine.sleep: NaN duration") (fun () ->
          Engine.sleep e Float.nan);
      Alcotest.check_raises "negative sleep"
        (Invalid_argument "Engine.sleep: negative duration") (fun () ->
          Engine.sleep e (-1.)));
  Engine.run e

let test_schedule_rejects_poison_delays () =
  let e = Engine.create () in
  Alcotest.check_raises "NaN delay"
    (Invalid_argument "Engine.schedule: NaN delay") (fun () ->
      Engine.at e ~delay:Float.nan (fun () -> ()));
  Alcotest.check_raises "-infinity delay"
    (Invalid_argument "Engine.schedule: -infinity delay") (fun () ->
      Engine.at e ~delay:Float.neg_infinity (fun () -> ()))

let test_schedule_clamps_negative_delay () =
  let e = Engine.create () in
  let seen = ref Float.nan in
  Engine.at e ~delay:(-5.) (fun () -> seen := Engine.now e);
  Engine.run e;
  check_float "negative delay runs at now" 0. !seen

let test_engine_event_stats () =
  let e = Engine.create () in
  let s = Stats.create () in
  Engine.set_stats e s;
  Engine.spawn e (fun () ->
      Engine.sleep e 1.;
      Engine.sleep e 2.);
  Engine.spawn e (fun () -> Engine.sleep e 1.5);
  Engine.run e;
  Alcotest.(check bool)
    "events counted" true
    (s.Stats.events_scheduled_total >= 3);
  Alcotest.(check bool) "peak live tracked" true (s.Stats.max_live_events >= 1);
  Alcotest.(check bool)
    "pooled <= scheduled" true
    (s.Stats.events_pooled_reuses <= s.Stats.events_scheduled_total)

(* Sleeps that continue in place *)

(* A sleeper whose wake-up ties a queued event runs after it: the
   queued event has the lower seq.  A sleep past every queued event
   continues in place, and is counted as a logical event. *)
let test_sleep_tie_yields () =
  let e = Engine.create () in
  let s = Stats.create () in
  Engine.set_stats e s;
  let log = ref [] in
  let note what = log := (what, Engine.now e) :: !log in
  Engine.spawn e (fun () ->
      Engine.at e ~delay:5. (fun () -> note "event");
      Engine.sleep e 5.;
      note "sleeper";
      Engine.sleep e 3.;
      note "alone");
  Engine.run e;
  Alcotest.(check (list (pair string (float 0.))))
    "queued event first"
    [ ("event", 5.); ("sleeper", 5.); ("alone", 8.) ]
    (List.rev !log);
  check_int "in place: the last sleep only" 1 (Stats.get s Sleeps_in_place);
  check_int "logical events: spawn, at, two sleeps" 4 s.Stats.events_scheduled_total

(* Only a fiber of the engine may sleep: outside any fiber, in an
   [at] callback, or on another engine the effect stays unhandled
   instead of continuing in place. *)
let test_sleep_outside_fiber_fails () =
  let unhandled what f =
    match f () with
    | exception Effect.Unhandled _ -> ()
    | () -> Alcotest.failf "%s: sleep did not fail" what
  in
  let e = Engine.create () in
  unhandled "before run" (fun () -> Engine.sleep e 5.);
  check_float "clock untouched" 0. (Engine.now e);
  let e = Engine.create () in
  Engine.at e ~delay:1. (fun () -> Engine.sleep e 5.);
  unhandled "in an at callback" (fun () -> Engine.run e);
  let e = Engine.create () in
  Engine.spawn e (fun () -> ());
  Engine.run e;
  unhandled "after every fiber returned" (fun () -> Engine.sleep e 5.);
  let a = Engine.create () and b = Engine.create () in
  Engine.spawn a (fun () -> Engine.sleep b 5.);
  unhandled "on another engine" (fun () -> Engine.run a);
  check_float "other engine's clock untouched" 0. (Engine.now b)

(* Random fiber programs against a reference scheduler that queues
   every sleep: a [Heap] of [(time, seq)] events, with spawns, ivar
   wake-ups and sleeps scheduled exactly as the engine schedules them.
   Sleeps come from a small set that includes 0, so wake-ups often tie
   queued events.  Each step logs [(now, fiber, step)]; the logs, and
   whether the run deadlocks, must agree. *)
type op = Sleep of float | Fill of int | Read of int | Spawn of int

let n_ivars = 3

let run_programs_engine programs roots =
  let e = Engine.create () in
  let ivars = Array.init n_ivars (fun _ -> Engine.Ivar.create ()) in
  let filled = Array.make n_ivars false in
  let log = ref [] and ids = ref 0 in
  let rec start prog =
    incr ids;
    let id = !ids in
    Engine.spawn e (fun () -> exec id 0 prog)
  and exec id k = function
    | [] -> log := (Engine.now e, id, k) :: !log
    | op :: rest ->
        log := (Engine.now e, id, k) :: !log;
        (match op with
        | Sleep d -> Engine.sleep e d
        | Fill i ->
            if not filled.(i) then begin
              filled.(i) <- true;
              Engine.Ivar.fill ivars.(i) ()
            end
        | Read i -> Engine.Ivar.read e ivars.(i)
        | Spawn j -> start programs.(j));
        exec id (k + 1) rest
  in
  List.iter (fun j -> start programs.(j)) roots;
  let deadlocked = match Engine.run e with () -> false | exception Engine.Deadlock _ -> true in
  (List.rev !log, deadlocked)

let run_programs_reference programs roots =
  let h = Heap.create () and seq = ref 0 and now = ref 0. in
  let push delay v =
    incr seq;
    Heap.push h ~time:(!now +. delay) ~seq:!seq v
  in
  let readers = Array.make n_ivars [] and filled = Array.make n_ivars false in
  let log = ref [] and ids = ref 0 in
  let start prog =
    incr ids;
    push 0. (!ids, 0, prog)
  in
  let rec exec id k = function
    | [] -> log := (!now, id, k) :: !log
    | op :: rest -> (
        log := (!now, id, k) :: !log;
        let next = (id, k + 1, rest) in
        match op with
        | Sleep d -> push d next
        | Fill i ->
            if not filled.(i) then begin
              filled.(i) <- true;
              List.iter (fun r -> push 0. r) (List.rev readers.(i));
              readers.(i) <- []
            end;
            exec id (k + 1) rest
        | Read i ->
            if filled.(i) then exec id (k + 1) rest
            else readers.(i) <- next :: readers.(i)
        | Spawn j ->
            start programs.(j);
            exec id (k + 1) rest)
  in
  List.iter (fun j -> start programs.(j)) roots;
  let rec loop () =
    match Heap.pop h with
    | None -> ()
    | Some (time, _, (id, k, prog)) ->
        now := time;
        exec id k prog;
        loop ()
  in
  loop ();
  (List.rev !log, Array.exists (fun r -> r <> []) readers)

let prop_sleeps_in_place_keep_order =
  let n_programs = 4 in
  (* a program may spawn only later programs, so spawning ends *)
  let op_gen j =
    QCheck.Gen.(
      frequency
        ([
           (6, map (fun d -> Sleep d) (oneofl [ 0.; 0.; 1.; 2.5; 5. ]));
           (2, map (fun i -> Fill i) (0 -- (n_ivars - 1)));
           (2, map (fun i -> Read i) (0 -- (n_ivars - 1)));
         ]
        @ if j + 1 < n_programs then [ (1, map (fun k -> Spawn k) ((j + 1) -- (n_programs - 1))) ]
          else []))
  in
  let gen =
    QCheck.Gen.(
      pair
        (flatten_l (List.init n_programs (fun j -> list_size (0 -- 8) (op_gen j))))
        (list_size (1 -- 4) (0 -- (n_programs - 1))))
  in
  let print (programs, roots) =
    let op = function
      | Sleep d -> Printf.sprintf "sleep %g" d
      | Fill i -> Printf.sprintf "fill %d" i
      | Read i -> Printf.sprintf "read %d" i
      | Spawn j -> Printf.sprintf "spawn %d" j
    in
    String.concat " | "
      (List.mapi
         (fun j p -> Printf.sprintf "p%d: %s" j (String.concat "; " (List.map op p)))
         programs)
    ^ Printf.sprintf " | roots %s" (String.concat "," (List.map string_of_int roots))
  in
  QCheck.Test.make ~name:"engine: in-place sleeps keep the reference event order"
    ~count:500 (QCheck.make ~print gen)
    (fun (programs, roots) ->
      let programs = Array.of_list programs in
      run_programs_engine programs roots = run_programs_reference programs roots)

(* Topology *)

let test_topology_switch_paths () =
  let t = Topology.switch ~nranks:8 in
  check_int "self-send crosses no links" 0 (Topology.path_hops t ~src:3 ~dst:3);
  check_int "cross-switch is two links" 2 (Topology.path_hops t ~src:0 ~dst:5);
  check_float "flat latency" 100.
    (Topology.path_latency t ~latency_ns:100. ~src:0 ~dst:5)

let test_topology_fattree_latency () =
  let t = Topology.fat_tree ~nranks:64 () in
  (* default shape: 16 ranks per leaf *)
  check_float "intra-leaf latency matches flat" 100.
    (Topology.path_latency t ~latency_ns:100. ~src:0 ~dst:1);
  check_float "spine crossing pays 2x" 200.
    (Topology.path_latency t ~latency_ns:100. ~src:0 ~dst:16)

let test_topology_dragonfly_latency () =
  let t = Topology.dragonfly ~nranks:64 () in
  (* default shape: 32 ranks per group *)
  check_float "intra-group latency matches flat" 100.
    (Topology.path_latency t ~latency_ns:100. ~src:0 ~dst:1);
  check_float "global hop pays 3x" 300.
    (Topology.path_latency t ~latency_ns:100. ~src:0 ~dst:32)

let test_topology_congestion () =
  let t = Topology.switch ~nranks:8 in
  let ser = Topology.serialize t ~ns_per_byte:1. ~src:0 ~dst:1 ~bytes:1000 ~now:0. in
  check_float "uncontended transfer pays wire time" 1000. ser;
  (* same source link, same instant: the second transfer queues *)
  let blocked =
    Topology.serialize t ~ns_per_byte:1. ~src:0 ~dst:2 ~bytes:1000 ~now:0.
  in
  check_float "contended transfer queues behind the first" 2000. blocked;
  check_int "congestion event counted" 1 (Topology.congestion_events t);
  check_float "queueing wait accumulated" 1000. (Topology.congestion_wait_ns t);
  (* disjoint endpoints: no shared link, no wait *)
  let free =
    Topology.serialize t ~ns_per_byte:1. ~src:4 ~dst:5 ~bytes:1000 ~now:0.
  in
  check_float "disjoint path proceeds in parallel" 1000. free;
  check_int "no extra congestion" 1 (Topology.congestion_events t);
  Topology.reset_counters t;
  check_int "counters reset" 0 (Topology.congestion_events t)

let test_topology_deterministic () =
  let run () =
    let t = Topology.fat_tree ~nranks:64 () in
    let acc = ref 0. in
    for src = 0 to 63 do
      for dst = 0 to 63 do
        acc :=
          !acc
          +. Topology.serialize t ~ns_per_byte:0.5 ~src ~dst ~bytes:256
               ~now:(float_of_int (src + dst))
      done
    done;
    (!acc, Topology.congestion_events t, Topology.congestion_wait_ns t)
  in
  let a1, e1, w1 = run () in
  let a2, e2, w2 = run () in
  check_float "total cost replays bit-identical" a1 a2;
  check_int "congestion events replay" e1 e2;
  check_float "congestion wait replays" w1 w2

let test_topology_of_string () =
  check_int "switch parses" 8
    (Topology.nranks (Topology.of_string "switch" ~nranks:8));
  Alcotest.(check string)
    "fattree parses" "fattree"
    (Topology.kind_name (Topology.of_string "fattree" ~nranks:8));
  Alcotest.(check string)
    "dragonfly parses" "dragonfly"
    (Topology.kind_name (Topology.of_string "dragonfly" ~nranks:8));
  Alcotest.(check bool) "unknown name rejected" true
    (try
       ignore (Topology.of_string "torus" ~nranks:8);
       false
     with Invalid_argument _ -> true)

let test_topology_validation () =
  Alcotest.(check bool) "non-positive nranks rejected" true
    (try
       ignore (Topology.switch ~nranks:0);
       false
     with Invalid_argument _ -> true);
  let t = Topology.switch ~nranks:4 in
  Alcotest.(check bool) "out-of-range rank rejected" true
    (try
       ignore (Topology.serialize t ~ns_per_byte:1. ~src:0 ~dst:7 ~bytes:1 ~now:0.);
       false
     with Invalid_argument _ -> true)

let suite =
  let tc = Alcotest.test_case in
  ( "simnet",
    [
      tc "heap ordering" `Quick test_heap_ordering;
      tc "heap FIFO on ties" `Quick test_heap_fifo_ties;
      tc "heap many elements" `Quick test_heap_many;
      tc "sleep advances clock" `Quick test_sleep_advances_clock;
      tc "fibers interleave by time" `Quick test_two_fibers_interleave;
      tc "ivar blocks until filled" `Quick test_ivar_blocks;
      tc "ivar double fill" `Quick test_ivar_double_fill;
      tc "waitq signal wakes oldest" `Quick test_waitq_signal_fifo;
      tc "deadlock detection" `Quick test_deadlock_detection;
      tc "deadlock names exactly the blocked fibers" `Quick
        test_deadlock_names_blocked;
      tc "await_any resumes once" `Quick test_await_any_resumes_once;
      tc "deadlock names live fibers after churn" `Quick
        test_deadlock_names_live_after_churn;
      tc "await_any loser goes stale" `Quick test_await_any_loser_goes_stale;
      tc "ivar readers wake FIFO" `Quick test_ivar_readers_fifo;
      tc "deadlock names ivar readers by id" `Quick
        test_deadlock_names_ivar_readers;
      tc "at callback" `Quick test_at_callback;
      tc "spawn from fiber" `Quick test_spawn_from_fiber;
      tc "waitq broadcast" `Quick test_waitq_broadcast;
      tc "engine determinism" `Quick test_determinism;
      tc "rng deterministic" `Quick test_rng_deterministic;
      tc "rng int bounds" `Quick test_rng_bounds;
      tc "rng float bounds" `Quick test_rng_float_bounds;
      tc "rng shuffle permutes" `Quick test_rng_shuffle_permutes;
      tc "rng split independent" `Quick test_rng_split_independent;
      tc "fiber exception propagates" `Quick test_fiber_exception_propagates;
      tc "fiber exception keeps its backtrace" `Quick
        test_fiber_exception_backtrace;
      tc "mutex excludes + fifo" `Quick test_mutex_excludes;
      tc "mutex unlock errors" `Quick test_mutex_unlock_errors;
      tc "mutex releases on exception" `Quick test_mutex_with_lock_releases_on_exn;
      tc "config cost helpers" `Quick test_config_costs;
      tc "stats counters" `Quick test_stats_counters;
      tc "stats diff" `Quick test_stats_diff;
      tc "stats diff carries live/peak" `Quick
        test_stats_diff_live_peak_carry_over;
      tc "stats: counter names distinct" `Quick test_stats_names;
      tc "stats: OBSERVABILITY.md table" `Quick test_stats_names_documented;
      tc "evq ordering" `Quick test_evq_ordering;
      tc "evq FIFO on ties" `Quick test_evq_fifo_ties;
      tc "evq pool counters" `Quick test_evq_counters;
      tc "evq hold: scans per pop, warm reuse" `Quick test_evq_hold_counts;
      tc "sleep rejects NaN/negative" `Quick test_sleep_rejects_bad_durations;
      tc "schedule rejects poison delays" `Quick
        test_schedule_rejects_poison_delays;
      tc "schedule clamps negative delay" `Quick
        test_schedule_clamps_negative_delay;
      tc "engine event stats" `Quick test_engine_event_stats;
      tc "sleep tying a queued event yields to it" `Quick test_sleep_tie_yields;
      tc "sleep outside a fiber of its engine fails" `Quick
        test_sleep_outside_fiber_fails;
      tc "topology switch paths" `Quick test_topology_switch_paths;
      tc "topology fat-tree latency" `Quick test_topology_fattree_latency;
      tc "topology dragonfly latency" `Quick test_topology_dragonfly_latency;
      tc "topology congestion" `Quick test_topology_congestion;
      tc "topology deterministic" `Quick test_topology_deterministic;
      tc "topology of_string" `Quick test_topology_of_string;
      tc "topology validation" `Quick test_topology_validation;
      QCheck_alcotest.to_alcotest prop_heap_sorted;
      QCheck_alcotest.to_alcotest prop_stats_diff;
      QCheck_alcotest.to_alcotest prop_rng_int_in_range;
      QCheck_alcotest.to_alcotest prop_evq_matches_heap;
      QCheck_alcotest.to_alcotest prop_evq_matches_heap_sim_shaped;
      QCheck_alcotest.to_alcotest prop_sleeps_in_place_keep_order;
    ] )
