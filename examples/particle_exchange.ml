(* Particle exchange: the molecular-dynamics workload that motivates
   the paper's LAMMPS kernel, on a 4-rank ring.

   Each rank owns particles in structure-of-arrays form (positions,
   velocities, charges).  Every step, particles that crossed the local
   boundary must migrate to the neighbour.  The migrating subset is a
   non-contiguous index list — exactly the shape classic derived
   datatypes handle poorly (the index list changes every step, forcing
   datatype recreation), and the custom API handles naturally: the
   per-operation state callback captures this step's index list.

   Run with:  dune exec examples/particle_exchange.exe *)

module Buf = Mpicd_buf.Buf
module Mpi = Mpicd.Mpi
module Stats = Mpicd_simnet.Stats
module Custom = Mpicd.Custom

let nparticles = 4096
let steps = 5

(* SoA particle store. *)
type particles = {
  x : Buf.t; (* 3 x f64 per particle *)
  v : Buf.t; (* 3 x f64 per particle *)
  q : Buf.t; (* f64 per particle *)
  mutable migrating : int array; (* indices leaving this step *)
}

let bytes_per_particle = 24 + 24 + 8

let make_particles seed =
  let p =
    {
      x = Buf.create (nparticles * 24);
      v = Buf.create (nparticles * 24);
      q = Buf.create (nparticles * 8);
      migrating = [||];
    }
  in
  for i = 0 to nparticles - 1 do
    for d = 0 to 2 do
      Buf.set_f64 p.x ((i * 24) + (d * 8)) (float_of_int ((i + seed) * (d + 1)));
      Buf.set_f64 p.v ((i * 24) + (d * 8)) (float_of_int (i - seed))
    done;
    Buf.set_f64 p.q (i * 8) (float_of_int (i mod 7))
  done;
  p

(* The custom datatype: packs x, v, q of each migrating particle.  The
   state snapshot captures the index list at operation start, so the
   application may keep simulating while the send is in flight. *)
let particle_dt : particles Custom.t =
  let fields p = [| (p.x, 24); (p.v, 24); (p.q, 8) |] in
  let pack_unpack ~into state p ~offset ~buf =
    (* byte-granular resumable copy over (particle, field) space *)
    let idx : int array = state in
    let fs = fields p in
    let remaining = ref (Buf.length buf) and off = ref offset and pos = ref 0 in
    while !remaining > 0 do
      let particle_slot = !off / bytes_per_particle in
      let within = !off mod bytes_per_particle in
      let field, foff =
        if within < 24 then (0, within)
        else if within < 48 then (1, within - 24)
        else (2, within - 48)
      in
      let fbuf, fsize = fs.(field) in
      let src_off = (idx.(particle_slot) * fsize) + foff in
      let n = min !remaining (fsize - foff) in
      if into then
        Buf.blit ~src:buf ~src_pos:!pos ~dst:fbuf ~dst_pos:src_off ~len:n
      else Buf.blit ~src:fbuf ~src_pos:src_off ~dst:buf ~dst_pos:!pos ~len:n;
      off := !off + n;
      pos := !pos + n;
      remaining := !remaining - n
    done
  in
  Custom.create
    ~pack_pieces:(fun p ~count:_ -> 3 * Array.length p.migrating)
    {
      state = (fun p ~count:_ -> Array.copy p.migrating);
      state_free = ignore;
      query = (fun idx _ ~count:_ -> Array.length idx * bytes_per_particle);
      pack =
        (fun idx p ~count:_ ~offset ~dst ->
          let total = (Array.length idx * bytes_per_particle) - offset in
          let len = min (Buf.length dst) total in
          pack_unpack ~into:false idx p ~offset ~buf:(Buf.sub dst ~pos:0 ~len);
          len);
      unpack =
        (fun idx p ~count:_ ~offset ~src ->
          pack_unpack ~into:true idx p ~offset ~buf:src);
      region_count = None;
      regions = None;
    }

let () =
  let nranks = 4 in
  let world = Mpi.create_world ~size:nranks () in
  Mpi.run world (fun comm ->
      let me = Mpi.rank comm in
      let p = make_particles me in
      let next = (me + 1) mod nranks and prev = (me + nranks - 1) mod nranks in
      for step = 1 to steps do
        (* particles with index ≡ step (mod 16) "cross the boundary" *)
        p.migrating <-
          Array.of_list
            (List.filter
               (fun i -> i mod 16 = step)
               (List.init nparticles Fun.id));
        let outgoing = Array.length p.migrating in
        (* exchange counts first (the real protocol would too) *)
        let cnt = Buf.create 4 in
        Buf.set_i32 cnt 0 (Int32.of_int outgoing);
        let creq = Mpi.isend comm ~dst:next ~tag:(2 * step) (Mpi.Bytes cnt) in
        let inc_cnt = Buf.create 4 in
        ignore (Mpi.recv comm ~source:prev ~tag:(2 * step) (Mpi.Bytes inc_cnt));
        ignore (Mpi.wait creq);
        let incoming = Int32.to_int (Buf.get_i32 inc_cnt 0) in
        (* now the particle payload as one custom-datatype message *)
        let sreq =
          Mpi.isend comm ~dst:next ~tag:((2 * step) + 1)
            (Mpi.Custom { dt = particle_dt; obj = p; count = 1 })
        in
        (* receive into slots at the end of our arrays: reuse the same
           datatype with a different index list *)
        let sink = { p with migrating = Array.init incoming (fun k -> nparticles - 1 - k) } in
        let st =
          Mpi.recv comm ~source:prev ~tag:((2 * step) + 1)
            (Mpi.Custom { dt = particle_dt; obj = sink; count = 1 })
        in
        ignore (Mpi.wait sreq);
        if me = 0 then
          Printf.printf "[step %d] rank 0: sent %d particles, received %d (%d bytes)\n"
            step outgoing incoming st.len
      done);
  let stats = Mpi.world_stats world in
  Printf.printf
    "done: %d messages, %d bytes on the wire, peak buffer memory %d bytes\n"
    (Stats.get stats Messages_sent)
    (Stats.get stats Bytes_on_wire)
    stats.peak_alloc_bytes
