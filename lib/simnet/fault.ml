type link_plan = {
  drop_p : float;
  corrupt_p : float;
  dup_p : float;
  delay_p : float;
  delay_ns : float;
  flap_period_ns : float;
  flap_down_ns : float;
}

let clean_link =
  {
    drop_p = 0.;
    corrupt_p = 0.;
    dup_p = 0.;
    delay_p = 0.;
    delay_ns = 0.;
    flap_period_ns = 0.;
    flap_down_ns = 0.;
  }

type inject_kind = Inj_drop | Inj_corrupt

type injection = {
  inj_kind : inject_kind;
  inj_src : int;
  inj_dst : int;
  inj_mseq : int;
  inj_frag : int;
}

type partition = {
  part_group : int list;
  part_start_ns : float;
  part_dur_ns : float;
}

type t = {
  seed : int;
  link : link_plan;
  overrides : ((int * int) * link_plan) list;
  crashes : (int * float) list;
  injections : injection list;
  partitions : partition list;
  stragglers : (int * float) list;
  max_retries : int;
  rto_ns : float;
  backoff : float;
  rndv_timeout_ns : float;
  hb_period_ns : float;
}

let default =
  {
    seed = 1;
    link = clean_link;
    overrides = [];
    crashes = [];
    injections = [];
    partitions = [];
    stragglers = [];
    max_retries = 8;
    rto_ns = 50_000.;
    backoff = 2.;
    rndv_timeout_ns = 0.;
    hb_period_ns = 100_000.;
  }

let make ?(seed = default.seed) ?(link = default.link) ?(overrides = [])
    ?(crashes = []) ?(injections = []) ?(partitions = []) ?(stragglers = [])
    ?(max_retries = default.max_retries) ?(rto_ns = default.rto_ns)
    ?(backoff = default.backoff)
    ?(rndv_timeout_ns = default.rndv_timeout_ns)
    ?(hb_period_ns = default.hb_period_ns) () =
  {
    seed;
    link;
    overrides;
    crashes;
    injections;
    partitions;
    stragglers;
    max_retries;
    rto_ns;
    backoff;
    rndv_timeout_ns;
    hb_period_ns;
  }

let link_plan t ~src ~dst =
  match t.overrides with
  | [] -> t.link
  | overrides -> (
      match List.assoc_opt (src, dst) overrides with Some lp -> lp | None -> t.link)

let rto t ~attempt = t.rto_ns *. (t.backoff ** float_of_int attempt)

let up_at t ~src ~dst ~now =
  let lp = link_plan t ~src ~dst in
  if lp.flap_period_ns <= 0. || lp.flap_down_ns <= 0. then now
  else
    let phase = Float.rem now lp.flap_period_ns in
    if phase < lp.flap_down_ns then now -. phase +. lp.flap_down_ns else now

let crashed t ~rank ~now =
  List.exists (fun (r, t0) -> r = rank && now >= t0) t.crashes

(* Earliest crash time per rank, ordered by time (ties by rank).  A rank
   listed twice dies at its earliest entry; later entries are redundant. *)
let earliest_crashes t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (r, t0) ->
      match Hashtbl.find_opt tbl r with
      | Some t1 when t1 <= t0 -> ()
      | _ -> Hashtbl.replace tbl r t0)
    t.crashes;
  Hashtbl.fold (fun r t0 acc -> (r, t0) :: acc) tbl []
  |> List.sort (fun (r1, t1) (r2, t2) -> compare (t1, r1) (t2, r2))

let crash_time t ~rank =
  List.assoc_opt rank (earliest_crashes t)

(* A partition cuts every link whose endpoints fall on opposite sides of
   the group boundary; traffic inside the isolated group (and inside the
   rest of the world) is untouched.  Partitions are deterministic drops,
   not flap-style waits, so they burn retransmission attempts and stress
   the backoff schedule the way a real cut would. *)
let partitioned t ~src ~dst ~now =
  match t.partitions with
  | [] -> false
  | partitions ->
      List.exists
        (fun p ->
          now >= p.part_start_ns
          && now < p.part_start_ns +. p.part_dur_ns
          && List.mem src p.part_group <> List.mem dst p.part_group)
        partitions

(* Per-rank CPU slowdown factor; exactly [1.] when the rank is not a
   straggler so fault-free arithmetic is bit-identical ([x *. 1. = x]). *)
let straggle_factor t ~rank =
  match List.assoc_opt rank t.stragglers with Some f -> f | None -> 1.

let injected t ~src ~dst ~mseq ~frag =
  match t.injections with
  | [] -> None
  | injections ->
      List.find_map
        (fun i ->
          if
            i.inj_src = src && i.inj_dst = dst && i.inj_mseq = mseq
            && i.inj_frag = frag
          then Some i.inj_kind
          else None)
        injections

type fate = {
  f_drop : bool;
  f_corrupt : bool;
  f_dup : bool;
  f_delay_ns : float;
}

type probe_kind = Pb_frag | Pb_ack

type probe = {
  pb_kind : probe_kind;
  pb_src : int;
  pb_dst : int;
  pb_mseq : int;
  pb_frag : int;
  pb_len : int;
  pb_time : float;
}

type runtime = {
  r_plan : t;
  r_rng : Rng.t;
  r_crash_ranks : int array;
  r_crash_at : float array;
      (* each crashing rank and its earliest crash time, precomputed at
         [start]: a plan names a few, so the per-fragment liveness check
         is a short scan that hashes and allocates nothing, and none at
         all without a crash *)
  mutable r_tap : (probe -> unit) option;
}

let start p =
  let crashes = Array.of_list (earliest_crashes p) in
  {
    r_plan = p;
    r_rng = Rng.create p.seed;
    r_crash_ranks = Array.map fst crashes;
    r_crash_at = Array.map snd crashes;
    r_tap = None;
  }

let set_tap r f = r.r_tap <- f
let notify_tap r pb = match r.r_tap with None -> () | Some f -> f pb

let plan r = r.r_plan

(* A plain recursive function: a local one would allocate its closure
   on every call. *)
let rec crashed_from r rank now i =
  i < Array.length r.r_crash_ranks
  && ((Array.unsafe_get r.r_crash_ranks i = rank && now >= Array.unsafe_get r.r_crash_at i)
     || crashed_from r rank now (i + 1))

let crashed_rt r ~rank ~now = crashed_from r rank now 0

(* Always five draws per fragment so the decision sequence stays
   aligned whichever branches fire. *)
let fate r ~src ~dst =
  let lp = link_plan r.r_plan ~src ~dst in
  let d_drop = Rng.float r.r_rng 1.0 in
  let d_corrupt = Rng.float r.r_rng 1.0 in
  let d_dup = Rng.float r.r_rng 1.0 in
  let d_delay = Rng.float r.r_rng 1.0 in
  let d_mag = Rng.float r.r_rng 1.0 in
  {
    f_drop = d_drop < lp.drop_p;
    f_corrupt = d_corrupt < lp.corrupt_p;
    f_dup = d_dup < lp.dup_p;
    f_delay_ns = (if d_delay < lp.delay_p then d_mag *. lp.delay_ns else 0.);
  }

let corrupt_bit r ~len = (Rng.int r.r_rng (max 1 len), Rng.int r.r_rng 8)

(* --- plan strings --- *)

let to_string t =
  let b = Buffer.create 128 in
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  addf "seed=%d" t.seed;
  let l = t.link in
  if l.drop_p > 0. then addf ",drop=%g" l.drop_p;
  if l.corrupt_p > 0. then addf ",corrupt=%g" l.corrupt_p;
  if l.dup_p > 0. then addf ",dup=%g" l.dup_p;
  if l.delay_p > 0. then addf ",delay_p=%g" l.delay_p;
  if l.delay_ns > 0. then addf ",delay=%g" l.delay_ns;
  if l.flap_period_ns > 0. then
    addf ",flap=%g/%g" l.flap_period_ns l.flap_down_ns;
  List.iter (fun (r, at) -> addf ",crash=%d@%g" r at) t.crashes;
  List.iter
    (fun p ->
      addf ",part=%s@%g+%g"
        (String.concat "." (List.map string_of_int p.part_group))
        p.part_start_ns p.part_dur_ns)
    t.partitions;
  List.iter (fun (r, f) -> addf ",straggle=%d@%g" r f) t.stragglers;
  List.iter
    (fun i ->
      addf ",inj=%s:%d.%d.%d.%d"
        (match i.inj_kind with Inj_drop -> "drop" | Inj_corrupt -> "corrupt")
        i.inj_src i.inj_dst i.inj_mseq i.inj_frag)
    t.injections;
  addf ",retries=%d" t.max_retries;
  addf ",rto=%g" t.rto_ns;
  addf ",backoff=%g" t.backoff;
  if t.rndv_timeout_ns > 0. then addf ",rndv_timeout=%g" t.rndv_timeout_ns;
  if t.hb_period_ns <> default.hb_period_ns then addf ",hb=%g" t.hb_period_ns;
  Buffer.contents b

let of_string s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let parse_float key v =
    match float_of_string_opt v with
    | Some f when f >= 0. -> Ok f
    | _ -> err "fault plan: %s expects a non-negative number, got %S" key v
  in
  let parse_int key v =
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> err "fault plan: %s expects an integer, got %S" key v
  in
  let ( let* ) = Result.bind in
  let fields =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun f -> f <> "")
  in
  List.fold_left
    (fun acc field ->
      let* t = acc in
      match String.index_opt field '=' with
      | None -> err "fault plan: expected key=value, got %S" field
      | Some i -> (
          let key = String.sub field 0 i in
          let v = String.sub field (i + 1) (String.length field - i - 1) in
          let set_link f = Ok { t with link = f t.link } in
          match key with
          | "seed" ->
              let* n = parse_int key v in
              Ok { t with seed = n }
          | "drop" ->
              let* p = parse_float key v in
              set_link (fun l -> { l with drop_p = p })
          | "corrupt" ->
              let* p = parse_float key v in
              set_link (fun l -> { l with corrupt_p = p })
          | "dup" ->
              let* p = parse_float key v in
              set_link (fun l -> { l with dup_p = p })
          | "delay_p" ->
              let* p = parse_float key v in
              set_link (fun l -> { l with delay_p = p })
          | "delay" ->
              let* ns = parse_float key v in
              set_link (fun l -> { l with delay_ns = ns })
          | "flap" -> (
              match String.split_on_char '/' v with
              | [ p; d ] ->
                  let* period = parse_float "flap period" p in
                  let* down = parse_float "flap down" d in
                  if down > period then
                    err "fault plan: flap down-window %g exceeds period %g" down
                      period
                  else
                    set_link (fun l ->
                        { l with flap_period_ns = period; flap_down_ns = down })
              | _ -> err "fault plan: flap expects PERIOD/DOWN, got %S" v)
          | "crash" -> (
              match String.index_opt v '@' with
              | None -> err "fault plan: crash expects RANK@TIME, got %S" v
              | Some j ->
                  let* rank = parse_int "crash rank" (String.sub v 0 j) in
                  let* at =
                    parse_float "crash time"
                      (String.sub v (j + 1) (String.length v - j - 1))
                  in
                  Ok { t with crashes = t.crashes @ [ (rank, at) ] })
          | "part" -> (
              (* part=R1.R2@START+DUR: ranks R1.R2... are cut off from
                 the rest of the world during [START, START+DUR). *)
              match String.index_opt v '@' with
              | None -> err "fault plan: part expects GROUP@START+DUR, got %S" v
              | Some j -> (
                  let group_s = String.sub v 0 j in
                  let win = String.sub v (j + 1) (String.length v - j - 1) in
                  match String.index_opt win '+' with
                  | None ->
                      err "fault plan: part expects GROUP@START+DUR, got %S" v
                  | Some k ->
                      let* start =
                        parse_float "part start" (String.sub win 0 k)
                      in
                      let* dur =
                        parse_float "part duration"
                          (String.sub win (k + 1) (String.length win - k - 1))
                      in
                      let members =
                        String.split_on_char '.' group_s
                        |> List.filter (fun m -> m <> "")
                      in
                      if members = [] then
                        err "fault plan: part group is empty in %S" v
                      else
                        let* group =
                          List.fold_left
                            (fun acc m ->
                              let* rs = acc in
                              let* r = parse_int "part rank" m in
                              Ok (rs @ [ r ]))
                            (Ok []) members
                        in
                        Ok
                          {
                            t with
                            partitions =
                              t.partitions
                              @ [
                                  {
                                    part_group = group;
                                    part_start_ns = start;
                                    part_dur_ns = dur;
                                  };
                                ];
                          }))
          | "straggle" -> (
              match String.index_opt v '@' with
              | None -> err "fault plan: straggle expects RANK@FACTOR, got %S" v
              | Some j ->
                  let* rank = parse_int "straggle rank" (String.sub v 0 j) in
                  let* f =
                    parse_float "straggle factor"
                      (String.sub v (j + 1) (String.length v - j - 1))
                  in
                  if f < 1. then
                    err "fault plan: straggle factor must be >= 1, got %g" f
                  else
                    Ok { t with stragglers = t.stragglers @ [ (rank, f) ] })
          | "inj" -> (
              match String.index_opt v ':' with
              | None ->
                  err "fault plan: inj expects KIND:SRC.DST.MSEQ.FRAG, got %S" v
              | Some j -> (
                  let* kind =
                    match String.sub v 0 j with
                    | "drop" -> Ok Inj_drop
                    | "corrupt" -> Ok Inj_corrupt
                    | k -> err "fault plan: unknown injection kind %S" k
                  in
                  let coords = String.sub v (j + 1) (String.length v - j - 1) in
                  match String.split_on_char '.' coords with
                  | [ s; d; m; f ] ->
                      let* src = parse_int "inj src" s in
                      let* dst = parse_int "inj dst" d in
                      let* mseq = parse_int "inj mseq" m in
                      let* frag = parse_int "inj frag" f in
                      Ok
                        {
                          t with
                          injections =
                            t.injections
                            @ [
                                {
                                  inj_kind = kind;
                                  inj_src = src;
                                  inj_dst = dst;
                                  inj_mseq = mseq;
                                  inj_frag = frag;
                                };
                              ];
                        }
                  | _ ->
                      err
                        "fault plan: inj expects KIND:SRC.DST.MSEQ.FRAG, got %S"
                        v))
          | "retries" ->
              let* n = parse_int key v in
              if n < 0 then err "fault plan: retries must be >= 0"
              else Ok { t with max_retries = n }
          | "rto" ->
              let* ns = parse_float key v in
              Ok { t with rto_ns = ns }
          | "backoff" ->
              let* f = parse_float key v in
              if f < 1. then err "fault plan: backoff must be >= 1"
              else Ok { t with backoff = f }
          | "rndv_timeout" ->
              let* ns = parse_float key v in
              Ok { t with rndv_timeout_ns = ns }
          | "hb" ->
              let* ns = parse_float key v in
              Ok { t with hb_period_ns = ns }
          | _ -> err "fault plan: unknown key %S" key))
    (Ok default) fields

let pp ppf t = Format.pp_print_string ppf (to_string t)
