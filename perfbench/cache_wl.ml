(* The cache-dfz workload: one LRU map-cache at DFZ scale, no engine.

   A Zipf(0.9) reference stream over a 1M-prefix EID universe drives a
   16,384-entry cache; every miss inserts the referenced mapping, so
   more than half of all references write (insert plus eviction) as
   well as read.  A hit-path-only workload would hide that cost. *)

open Nettypes

type spec = {
  universe : int;  (** EID prefixes *)
  alpha : float;
  capacity : int;
  warmup : int;  (** references before the measured window *)
  refs : int;  (** references in the measured window *)
}

let spec ~scale =
  { universe = int_of_float (1_000_000.0 *. scale); alpha = 0.9;
    capacity = Stdlib.max 64 (int_of_float (16_384.0 *. scale));
    warmup = int_of_float (30_000.0 *. scale);
    refs = int_of_float (30_000.0 *. scale) }

(* The M1 experiment's tolerance for the measured miss rate against the
   Che/Coras prediction: 10% relative, or 0.005 absolute. *)
let tolerance = 0.10
let abs_floor = 0.005

type world = { eids : Workload.Eid_universe.t; dist : Netsim.Rng.Zipf.dist }

(* The world, and the host seconds [Eid_universe.generate] took. *)
let setup spec ~seed =
  let eids, generate_s =
    Measure.timed (fun () ->
        Workload.Eid_universe.generate ~rng:(Netsim.Rng.create seed) ~n:spec.universe)
  in
  ({ eids; dist = Netsim.Rng.Zipf.create ~n:spec.universe ~alpha:spec.alpha }, generate_s)

let rloc = Mapping.rloc (Ipv4.addr_of_int 0x0A000001)

(* The stream for one batch; the same seed replays the same references. *)
let stream_rng ~seed = Netsim.Rng.create (seed lxor 0x5eed)

let mapping w rank =
  Mapping.create ~eid_prefix:(Workload.Eid_universe.prefix w.eids rank)
    ~rlocs:[ rloc ] ~ttl:1e9

let reference w cache rng =
  let rank = Netsim.Rng.Zipf.sample w.dist rng in
  match Lispdp.Map_cache.lookup cache ~now:0.0 (Workload.Eid_universe.network w.eids rank) with
  | Some _ -> ()
  | None -> Lispdp.Map_cache.insert cache ~now:0.0 (mapping w rank)

(* What a batch leaves behind: the measured window's figures and the
   digest of the cache's simulated state; the cache itself is dropped. *)
type batch = {
  wall_s : float;  (** the measured window *)
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  digest : string;
}

(* Warm a fresh cache up, then time [window cache rng], which makes
   [spec.refs] references. *)
let batch spec w ~seed window =
  let cache = Lispdp.Map_cache.create ~policy:Lispdp.Map_cache.Lru ~capacity:spec.capacity () in
  let rng = stream_rng ~seed in
  for _ = 1 to spec.warmup do
    reference w cache rng
  done;
  let s = Lispdp.Map_cache.stats cache in
  let open Lispdp.Map_cache in
  let h0 = s.hits and m0 = s.misses and i0 = s.insertions and e0 = s.evictions in
  let (), wall_s = Measure.timed (fun () -> window cache rng) in
  let hits = s.hits - h0 and misses = s.misses - m0 in
  let digest =
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "hits=%d;misses=%d;ins=%d;evict=%d;exp=%d;len=%d;w=%d/%d"
            s.hits s.misses s.insertions s.evictions s.expirations (length cache)
            hits misses))
  in
  { wall_s; hits; misses; insertions = s.insertions - i0;
    evictions = s.evictions - e0; digest }

let run_batch spec w ~seed =
  batch spec w ~seed (fun cache rng ->
      for _ = 1 to spec.refs do
        reference w cache rng
      done)

let miss_ratio b = float_of_int b.misses /. float_of_int (b.hits + b.misses)

(* Measured miss ratio against the model, as M1 gates it. *)
let model_check spec w b =
  let masses =
    Array.init (Netsim.Rng.Zipf.support w.dist) (Netsim.Rng.Zipf.probability w.dist)
  in
  let predicted =
    (Workload.Cache_model.predict ~masses ~capacity:spec.capacity)
      .Workload.Cache_model.miss_rate
  in
  let err = Float.abs (miss_ratio b -. predicted) in
  (predicted, err /. Float.max predicted 1e-12 <= tolerance || err <= abs_floor)

(* Per-layer costs, timed from outside on the workload's own data. *)
type probes = {
  lookup : Measure.cost;  (** [Map_cache.lookup], per reference *)
  insert : Measure.cost;  (** [Map_cache.insert] on a miss, with eviction *)
  zipf : Measure.cost;  (** [Rng.Zipf.sample] *)
  lpm : Measure.cost;  (** [Prefix_table.lookup] *)
  lpm_update : Measure.cost;  (** [Prefix_table.add] + [remove] *)
  index_update : Measure.cost;  (** [Int_table.add] + [remove] *)
}

let probes () =
  { lookup = Measure.cost (); insert = Measure.cost (); zipf = Measure.cost ();
    lpm = Measure.cost (); lpm_update = Measure.cost (); index_update = Measure.cost () }

(* The batch again, with every cache call of the measured window timed
   one by one.  It makes the same calls in the same order as
   [run_batch], so it must reach the same digest. *)
let run_traced spec w ~seed p =
  batch spec w ~seed (fun cache rng ->
      for _ = 1 to spec.refs do
        let rank = Netsim.Rng.Zipf.sample w.dist rng in
        let addr = Workload.Eid_universe.network w.eids rank in
        match
          Measure.charge p.lookup ~ops:1 (fun () ->
              Lispdp.Map_cache.lookup cache ~now:0.0 addr)
        with
        | Some _ -> ()
        | None ->
            let m = mapping w rank in
            Measure.charge p.insert ~ops:1 (fun () ->
                Lispdp.Map_cache.insert cache ~now:0.0 m)
      done)

(* The table layers under the cache, on a window of [capacity] most
   popular prefixes that slides the way misses insert and evict. *)
let probe_tables spec w ~seed p =
  let rng = stream_rng ~seed in
  let n = 100_000 in
  let ranks = Array.init n (fun _ -> Netsim.Rng.Zipf.sample w.dist rng) in
  Measure.charge p.zipf ~ops:n (fun () ->
      for _ = 1 to n do
        ignore (Netsim.Rng.Zipf.sample w.dist rng)
      done);
  let c = Stdlib.min spec.capacity (spec.universe / 2) in
  let table = Prefix_table.create () in
  for r = 0 to c - 1 do
    Prefix_table.add table (Workload.Eid_universe.prefix w.eids r) ()
  done;
  Measure.per_op p.lpm ranks (fun r ->
      ignore (Prefix_table.lookup table (Workload.Eid_universe.network w.eids r)));
  let key r =
    let pfx = Workload.Eid_universe.prefix w.eids r in
    (Ipv4.addr_to_int (Ipv4.prefix_network pfx) * 64) + Ipv4.prefix_length pfx
  in
  let index = Int_table.create ~dummy:() () in
  for r = 0 to c - 1 do
    Int_table.add index (key r) ()
  done;
  let window = Array.init (Stdlib.min c (spec.universe - c)) (fun i -> c + i) in
  Measure.per_op p.lpm_update window (fun r ->
      Prefix_table.add table (Workload.Eid_universe.prefix w.eids r) ();
      Prefix_table.remove table (Workload.Eid_universe.prefix w.eids (r - c)));
  Measure.per_op p.index_update window (fun r ->
      Int_table.add index (key r) ();
      Int_table.remove index (key (r - c)))
