module Buf = Mpicd_buf.Buf
module Custom = Mpicd.Custom
module Rng = Mpicd_simnet.Rng

let analyzer = "callback-contract"

type 'obj spec = {
  name : string;
  dt : 'obj Mpicd.Custom.t;
  make : unit -> 'obj;
  make_sink : (unit -> 'obj) option;
  equal : ('obj -> 'obj -> bool) option;
  count : int;
  expected_wire : int option;
}

(* Drive the pack callback over the whole stream with caller-chosen
   fragment sizes, validating every return value.  The fragment is a
   scratch buffer so an overrun claim (n > room) is observable rather
   than masked by a blit failure. *)
type pack_fault =
  | Pf_raised of exn * int  (* offset *)
  | Pf_short of { offset : int; room : int; ret : int }
  | Pf_over of { offset : int; room : int; ret : int }
  | Pf_overstream of { offset : int; remaining : int; ret : int }

let drive_pack op ~total ~frag_size =
  let dst = Buf.create total in
  let off = ref 0 in
  let fault = ref None in
  while !fault = None && !off < total do
    let remaining = total - !off in
    let room = max 1 (frag_size ~offset:!off ~remaining) in
    let frag = Buf.create room in
    (match Custom.pack op ~offset:!off ~dst:frag with
    | exception e -> fault := Some (Pf_raised (e, !off))
    | n ->
        if n <= 0 then fault := Some (Pf_short { offset = !off; room; ret = n })
        else if n > room then fault := Some (Pf_over { offset = !off; room; ret = n })
        else if n > remaining then
          fault := Some (Pf_overstream { offset = !off; remaining; ret = n })
        else begin
          Buf.blit ~src:frag ~src_pos:0 ~dst ~dst_pos:!off ~len:n;
          off := !off + n
        end)
  done;
  match !fault with None -> Ok dst | Some f -> Error f

let pack_fault_finding ~subject = function
  | Pf_raised (e, offset) ->
      Finding.make ~id:"CB-CALLBACK-RAISED" ~severity:Finding.Error ~analyzer
        ~subject
        (Printf.sprintf "pack callback raised %s at offset %d"
           (Printexc.to_string e) offset)
  | Pf_short { offset; room; ret } ->
      Finding.make ~id:"CB-SHORT-PACK" ~severity:Finding.Error ~analyzer ~subject
        ~suggestion:
          "while the stream is not exhausted, pack must produce at least one \
           byte per fragment (paper Listing 4)"
        (Printf.sprintf
           "pack returned %d at offset %d with %d bytes of room: the engine \
            would loop forever"
           ret offset room)
  | Pf_over { offset; room; ret } ->
      Finding.make ~id:"CB-OVERRUN" ~severity:Finding.Error ~analyzer ~subject
        ~suggestion:"pack must return at most the destination length"
        (Printf.sprintf
           "pack returned %d at offset %d but the destination holds only %d \
            bytes: the claimed tail was never written"
           ret offset room)
  | Pf_overstream { offset; remaining; ret } ->
      Finding.make ~id:"CB-OVERRUN" ~severity:Finding.Error ~analyzer ~subject
        ~suggestion:"pack must not claim bytes past the queried stream size"
        (Printf.sprintf
           "pack returned %d at offset %d with only %d bytes left in the \
            stream"
           ret offset remaining)

(* Whether any two regions share bytes, in O(R log R): regions are
   grouped by storage (physical [base], bucketed by its length), each
   group is sorted by offset, and one sweep per group compares each
   region with the furthest end seen so far.  [count] accumulates the
   comparisons made, as it does in [first_overlap]. *)
let any_overlap ?(count = ref 0) regs =
  let groups = Hashtbl.create 16 in
  Array.iter
    (fun (r : Buf.t) ->
      if r.len > 0 then begin
        let key = Bigarray.Array1.dim r.base in
        let bucket = Option.value ~default:[] (Hashtbl.find_opt groups key) in
        let rec add = function
          | [] -> [ ref [ r ] ]
          | g :: rest ->
              incr count;
              if (List.hd !g).Buf.base == r.base then begin
                g := r :: !g;
                g :: rest
              end
              else g :: add rest
        in
        Hashtbl.replace groups key (add bucket)
      end)
    regs;
  let overlapping g =
    let sorted =
      List.sort
        (fun (a : Buf.t) (b : Buf.t) ->
          incr count;
          compare a.off b.off)
        !g
    in
    let rec sweep reach = function
      | [] -> false
      | (r : Buf.t) :: rest ->
          incr count;
          r.off < reach || sweep (max reach (r.off + r.len)) rest
    in
    sweep min_int sorted
  in
  Hashtbl.fold (fun _ gs acc -> acc || List.exists overlapping gs) groups false

(* A region list's entries as views, to compare pairwise. *)
let views iov = Array.init (Buf.Iov.count iov) (Buf.Iov.get iov)

(* The first pair [(i, j)], [i < j], of regions sharing bytes, in the
   order the pairwise search finds it; the search runs only when the
   sweep says there is a pair. *)
let first_overlap ?(count = ref 0) regs =
  if not (any_overlap ~count regs) then None
  else begin
    let n = Array.length regs in
    let rec search i j =
      if i >= n then None
      else if j >= n then search (i + 1) (i + 2)
      else begin
        incr count;
        if Buf.overlaps regs.(i) regs.(j) then Some (i, j) else search i (j + 1)
      end
    in
    search 0 1
  end

let check ?(seed = 0x5eed) ?(rounds = 8) s =
  let subject = s.name in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let addf ?suggestion ~id ~severity fmt =
    Printf.ksprintf
      (fun msg -> add (Finding.make ?suggestion ~id ~severity ~analyzer ~subject msg))
      fmt
  in
  let rng = Rng.create seed in
  (try
     let obj = s.make () in
     let op = Custom.start s.dt obj ~count:s.count in
     Fun.protect
       ~finally:(fun () -> Custom.finish op)
       (fun () ->
         let q1 = Custom.packed_size op in
         let q2 = Custom.packed_size op in
         if q1 <> q2 then
           addf ~id:"CB-QUERY-UNSTABLE" ~severity:Finding.Error
             "query returned %d then %d for the same operation state" q1 q2;
         if q1 < 0 then begin
           addf ~id:"CB-QUERY-NEGATIVE" ~severity:Finding.Error
             "query returned a negative packed size (%d)" q1;
           raise Exit
         end;
         (* --- regions --- *)
         let rc = Custom.region_count op in
         let regs = views (Custom.regions op) in
         if rc <> Array.length regs then
           addf ~id:"CB-REGION-COUNT" ~severity:Finding.Error
             "region_count promised %d regions but the region callback \
              produced %d"
             rc (Array.length regs);
         (match first_overlap regs with
         | Some (i, j) ->
             addf ~id:"CB-REGION-OVERLAP" ~severity:Finding.Error
               ~suggestion:
                 "regions are gathered/scattered independently by the \
                  transport; aliasing ranges make the result depend on \
                  delivery order"
               "regions %d and %d share bytes of the same underlying memory" i j
         | None -> ());
         let rbytes = Array.fold_left (fun a r -> a + Buf.length r) 0 regs in
         (match s.expected_wire with
         | Some w when q1 + rbytes <> w ->
             addf ~id:"CB-WIRE-MISMATCH" ~severity:Finding.Error
               "query (%d) + region bytes (%d) = %d, but the type declares %d \
                wire bytes"
               q1 rbytes (q1 + rbytes) w
         | _ -> ());
         (* --- reference pack: one maximal fragment per call --- *)
         let reference =
           match drive_pack op ~total:q1 ~frag_size:(fun ~offset:_ ~remaining -> remaining) with
           | Ok b -> Some b
           | Error f ->
               add (pack_fault_finding ~subject f);
               None
         in
         (* --- fragment-boundary fuzzing --- *)
         (match reference with
         | None -> ()
         | Some reference ->
             (try
                for _round = 1 to rounds do
                  (* fragment sizes drawn small to force many boundaries;
                     occasionally larger than the remaining stream to
                     check the end-of-stream contract *)
                  let frag_size ~offset:_ ~remaining =
                    1 + Rng.int rng (min (remaining + 8) 64)
                  in
                  match drive_pack op ~total:q1 ~frag_size with
                  | Ok fuzzed ->
                      if not (Buf.equal fuzzed reference) then begin
                        addf ~id:"CB-FRAG-INCONSISTENT" ~severity:Finding.Error
                          ~suggestion:
                            "pack must produce the same packed stream for \
                             every fragmentation: it may only depend on \
                             (offset, length), never on call history"
                          "packed bytes differ between fragmentations of the \
                           same object";
                        raise Exit
                      end
                  | Error f ->
                      add (pack_fault_finding ~subject f);
                      raise Exit
                done
              with Exit -> ());
             (* --- retransmission idempotence: a lossy transport may
                re-pack an arbitrary window of the stream when a
                fragment is retransmitted (see docs/FAULTS.md); the
                re-packed bytes must equal the original stream --- *)
             (try
                for _round = 1 to rounds do
                  if q1 > 0 then begin
                    let offset = Rng.int rng q1 in
                    let room = 1 + Rng.int rng (min (q1 - offset) 64) in
                    let frag = Buf.create room in
                    match Custom.pack op ~offset ~dst:frag with
                    | exception e ->
                        addf ~id:"CB-REPACK-NONIDEMPOTENT"
                          ~severity:Finding.Error
                          "re-packing offset %d for a retransmission raised %s"
                          offset (Printexc.to_string e);
                        raise Exit
                    | n when n > 0 && n <= room && offset + n <= q1 ->
                        if
                          not
                            (Buf.equal
                               (Buf.sub frag ~pos:0 ~len:n)
                               (Buf.sub reference ~pos:offset ~len:n))
                        then begin
                          addf ~id:"CB-REPACK-NONIDEMPOTENT"
                            ~severity:Finding.Error
                            ~suggestion:
                              "retransmitted fragments are re-packed from the \
                               same offset; pack must be a pure function of \
                               (offset, length), never of call history"
                            "re-packing the window at offset %d produced \
                             bytes that differ from the original stream"
                            offset;
                          raise Exit
                        end
                    | _ -> ()
                  end
                done
              with Exit -> ());
             (* --- round trip through a sink object --- *)
             match s.make_sink with
             | None -> ()
             | Some mk ->
                 let sink = mk () in
                 let sop = Custom.start s.dt sink ~count:s.count in
                 Fun.protect
                   ~finally:(fun () -> Custom.finish sop)
                   (fun () ->
                     let sq = Custom.packed_size sop in
                     if sq <> q1 then
                       addf ~id:"CB-QUERY-UNSTABLE" ~severity:Finding.Warning
                         "sink object queries %d packed bytes where the source \
                          queried %d"
                         sq q1;
                     (* feed the reference stream in fuzzed fragments *)
                     (try
                        let off = ref 0 in
                        while !off < q1 do
                          let len = 1 + Rng.int rng (min (q1 - !off) 64) in
                          (match
                             Custom.unpack sop ~offset:!off
                               ~src:(Buf.sub reference ~pos:!off ~len)
                           with
                          | () -> ()
                          | exception e ->
                              addf ~id:"CB-CALLBACK-RAISED" ~severity:Finding.Error
                                "unpack callback raised %s at offset %d"
                                (Printexc.to_string e) !off;
                              raise Exit);
                          off := !off + len
                        done;
                        (* region transfer: sender regions -> sink regions *)
                        let sregs = views (Custom.regions sop) in
                        if
                          Array.length sregs <> Array.length regs
                          || Array.exists2
                               (fun a b -> Buf.length a <> Buf.length b)
                               sregs regs
                        then
                          addf ~id:"CB-REGION-SHAPE" ~severity:Finding.Error
                            "sender and receiver region lists disagree in \
                             count or lengths; the transport cannot scatter \
                             the gathered bytes"
                        else
                          Array.iteri
                            (fun i r ->
                              Buf.blit ~src:regs.(i) ~src_pos:0 ~dst:r ~dst_pos:0
                                ~len:(Buf.length r))
                            sregs;
                        (* bytewise: re-packing the sink must reproduce the
                           reference stream *)
                        (match
                           drive_pack sop ~total:q1
                             ~frag_size:(fun ~offset:_ ~remaining -> remaining)
                         with
                        | Ok repacked ->
                            if not (Buf.equal repacked reference) then
                              addf ~id:"CB-ROUNDTRIP" ~severity:Finding.Error
                                ~suggestion:
                                  "unpack must be the exact inverse of pack: \
                                   every packed byte lands back where pack \
                                   read it from"
                                "re-packing the unpacked sink does not \
                                 reproduce the packed stream"
                        | Error f -> add (pack_fault_finding ~subject f));
                        match s.equal with
                        | Some eq when not (eq obj sink) ->
                            addf ~id:"CB-ROUNDTRIP" ~severity:Finding.Error
                              "sink object differs from the source after \
                               unpack∘pack plus region transfer"
                        | _ -> ()
                      with Exit -> ()))))
   with
  | Exit -> ()
  | Custom.Error code ->
      addf ~id:"CB-CALLBACK-RAISED" ~severity:Finding.Error
        "callback raised Custom.Error %d during contract checking" code
  | e ->
      addf ~id:"CB-CALLBACK-RAISED" ~severity:Finding.Error
        "callback raised %s during contract checking" (Printexc.to_string e));
  (* dedupe by rule id, keep first occurrence, restore order *)
  let seen = Hashtbl.create 8 in
  List.rev !findings
  |> List.filter (fun (f : Finding.t) ->
         if Hashtbl.mem seen f.id then false
         else begin
           Hashtbl.add seen f.id ();
           true
         end)
