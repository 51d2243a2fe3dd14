(* The repository benchmark: one workload per process, host time only.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--scale F] [--digests FILE] [--record]

   With [--trace 0] it repeats the workload's fixed batch of simulated
   work for about S seconds and reports the end-to-end metrics as
   medians over batches.  With [--trace 1] it runs rounds of untraced
   and traced batches for about S seconds, probes each layer, and
   reports the per-layer metrics instead.  The
   last line of standard output is one JSON object; tables and notes go
   to standard error.  [--record] prints the simulated digest of each
   cell for the seed, in the format of the digest file, and exits. *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  scale : float;  (** batch size multiplier; below 1 for smoke runs *)
  digests : string option;
  record : bool;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload wan-setup|cache-dfz --seed N \
     --seconds S --trace 0|1 [--scale F] [--digests FILE] [--record]";
  exit 2

let parse argv =
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: v :: rest -> go { a with trace = int_of_string v <> 0 } rest
    | "--scale" :: v :: rest -> go { a with scale = float_of_string v } rest
    | "--digests" :: v :: rest -> go { a with digests = Some v } rest
    | "--record" :: rest -> go { a with record = true } rest
    | [] -> a
    | _ -> usage ()
  in
  try
    go
      { workload = ""; seed = 0; seconds = 10.0; trace = false; scale = 1.0;
        digests = None; record = false }
      (List.tl (Array.to_list argv))
  with Failure _ -> usage ()

(* Digest file: one "workload seed cell digest" line per recorded cell. *)
let load_digests path ~workload ~seed =
  let table = Hashtbl.create 8 in
  (match path with
  | None -> ()
  | Some path ->
      let ic = open_in path in
      (try
         while true do
           match String.split_on_char ' ' (String.trim (input_line ic)) with
           | [ w; s; cell; d ] when w = workload && int_of_string_opt s = Some seed ->
               Hashtbl.replace table cell d
           | _ -> ()
         done
       with End_of_file -> ());
      close_in ic);
  table

(* Correctness bookkeeping for one run: every cell execution is one
   attempt; it fails if it raises, if its digest differs from the
   recorded one (or, for an unrecorded seed, from the first execution
   of that cell in this run), or if its own checks fail. *)
type verdict = {
  reference : (string, string) Hashtbl.t;
  recorded : bool;
  mutable attempted : int;
  mutable failed : int;
}

let verdict reference =
  { reference; recorded = Hashtbl.length reference > 0; attempted = 0; failed = 0 }

let judge v ~cell ~digest ~ok =
  v.attempted <- v.attempted + 1;
  let same =
    match Hashtbl.find_opt v.reference cell with
    | Some d -> d = digest
    | None ->
        Hashtbl.replace v.reference cell digest;
        not v.recorded
  in
  if not (same && ok) then begin
    v.failed <- v.failed + 1;
    Printf.eprintf "FAILED %s: digest %s%s\n%!" cell digest
      (if ok then " differs from the reference" else ", checks failed")
  end

let attempt v f =
  try Some (f ())
  with e ->
    v.attempted <- v.attempted + 1;
    v.failed <- v.failed + 1;
    Printf.eprintf "FAILED: %s\n%!" (Printexc.to_string e);
    None

(* Repeat [batch] for about [seconds] of host time: whole batches only,
   at least [min_batches], stopping before a batch would overrun. *)
let repeat ~seconds ~min_batches batch =
  let t0 = Measure.now_s () in
  let rec go acc n =
    let elapsed = Measure.now_s () -. t0 in
    let per = if n = 0 then 0.0 else elapsed /. float_of_int n in
    if n >= min_batches && elapsed +. per > seconds then List.rev acc
    else go (match batch () with Some r -> r :: acc | None -> acc) (n + 1)
  in
  go [] 0

let median_of f xs = match xs with [] -> 0.0 | _ -> Measure.median (List.map f xs)

(* ---- Output ---- *)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result v metrics =
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (v.failed = 0 && v.attempted > 0)
    (Stdlib.max 1 v.attempted) v.failed (String.concat ", " fields)

let reconciliation ~workload ~wall rows =
  Printf.eprintf "cost reconciliation (%s): wall %.4f s\n" workload wall;
  Printf.eprintf "  %-34s %12s %12s %10s\n" "layer" "count" "ns/op" "share";
  let explained =
    List.fold_left
      (fun acc (layer, count, ns) ->
        let s = count *. ns *. 1e-9 in
        Printf.eprintf "  %-34s %12.0f %12.1f %9.1f%%\n" layer count ns
          (100.0 *. s /. wall);
        acc +. s)
      0.0 rows
  in
  let residual = 1.0 -. (explained /. wall) in
  Printf.eprintf "  %-34s %12s %12s %9.1f%%\n%!" "residual" "" "" (100.0 *. residual);
  residual

(* ---- Engine workloads ---- *)

module E = Engine_wl

(* What one batch of cells leaves behind once its worlds are dropped;
   keeping the worlds would grow the heap, and with it the timings and
   peak RSS, with the number of batches. *)
type batch = {
  wall : float;
  events : int;
  established : int;
  delivered : int;  (** data packets delivered *)
  refs : int;  (** map-cache references over all routers *)
}

let connections_established sc =
  List.length
    (List.filter
       (fun c -> Core.Scenario.total_setup_time c <> None)
       (Core.Scenario.connections sc))

let data_delivered sc =
  List.fold_left
    (fun acc c ->
      match c.Core.Scenario.tcp with
      | Some conn -> acc + conn.Workload.Tcp.data_delivered
      | None -> acc)
    0 (Core.Scenario.connections sc)

let cache_refs sc =
  let s = Lispdp.Dataplane.cache_stats_totals (Core.Scenario.dataplane sc) in
  s.Lispdp.Map_cache.hits + s.Lispdp.Map_cache.misses

(* Run every cell of the workload once and judge each.  The heap is
   compacted first so that every batch starts from the same state. *)
let run_cells spec ~seed ~mode v =
  Gc.compact ();
  attempt v (fun () ->
      List.map
        (fun cp ->
          let c = E.run_cell spec ~seed ~mode cp in
          judge v ~cell:c.E.label ~digest:(E.digest c.E.scenario) ~ok:(E.check c.E.scenario);
          c)
        spec.E.cps)

let summary cells =
  let sum f = List.fold_left (fun acc c -> acc + f c.E.scenario) 0 cells in
  { wall = List.fold_left (fun acc c -> acc +. c.E.run_s) 0.0 cells;
    events = sum (fun sc -> Netsim.Engine.events_processed (Core.Scenario.engine sc));
    established = sum connections_established; delivered = sum data_delivered;
    refs = sum cache_refs }

let run_batch spec ~seed ~mode v = Option.map summary (run_cells spec ~seed ~mode v)

(* Set-up is timed between batches, so that it samples the host over
   the whole run as the batches do.  A world takes about a millisecond
   to build, so each batch is preceded by several timed builds of every
   cell, each after a full major collection. *)
let setup_rounds = 8

let setup_samples spec ~seed =
  List.init setup_rounds (fun _ ->
      Gc.full_major ();
      List.fold_left
        (fun acc (_, cp) ->
          acc +. snd (Measure.timed (fun () -> Core.Scenario.build (E.config spec ~seed cp))))
        0.0 spec.E.cps)

let rate count b = float_of_int count /. b.wall

let engine_end_to_end ~setup_s batches =
  [ ("wall_s", median_of (fun b -> b.wall) batches, "s");
    ("setup_s", setup_s, "s");
    ("events_per_s", median_of (fun b -> rate b.events b) batches, "1/s");
    ("flows_per_s", median_of (fun b -> rate b.established b) batches, "1/s");
    ("packets_per_s", median_of (fun b -> rate b.delivered b) batches, "1/s");
    ("refs_per_s", median_of (fun b -> rate b.refs b) batches, "1/s");
    ("peak_rss_mb", Measure.peak_rss_mb (), "MiB") ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* The traced run measures in rounds of three batches: untraced,
   prewarmed and sliced.  Host speed drifts over seconds on a shared
   machine, so the route cost and the tracing overhead are taken within
   each round and reported as medians over rounds. *)
let engine_per_layer spec ~seed ~seconds v =
  let last = ref None in
  let rounds =
    repeat ~seconds ~min_batches:2 (fun () ->
        match
          ( run_batch spec ~seed ~mode:E.Plain v,
            run_cells spec ~seed ~mode:E.Prewarmed v,
            run_cells spec ~seed ~mode:(E.Sliced 1000) v )
        with
        | Some plain, Some warm, Some sliced ->
            last := Some (warm, sliced);
            Some (plain.wall, summary warm, summary sliced)
        | _ -> None)
  in
  let untraced_wall = median_of (fun (w, _, _) -> w) rounds in
  let route_s = median_of (fun (w, warm, _) -> w -. warm.wall) rounds in
  let overhead = median_of (fun (w, _, sliced) -> sliced.wall /. w) rounds in
  match !last with
  | None -> []
  | Some (warm_cells, cells) ->
      let probes = Engine_probes.create () in
      List.iter
        (fun c -> Engine_probes.probe probes ~zipf_alpha:spec.E.zipf_alpha c.E.scenario)
        warm_cells;
      let sum_cells cells f = List.fold_left (fun acc c -> acc + f c) 0 cells in
      let sumf_cells cells f = List.fold_left (fun acc c -> acc +. f c) 0.0 cells in
      let sc c = c.E.scenario in
      let dp c = Lispdp.Dataplane.counters (Core.Scenario.dataplane (sc c)) in
      let cache c = Lispdp.Dataplane.cache_stats_totals (Core.Scenario.dataplane (sc c)) in
      let dns c = Dnssim.System.counters (Core.Scenario.dns (sc c)) in
      let cp c = Core.Scenario.cp_stats (sc c) in
      let count f = sum_cells cells f in
      let events = count (fun c -> Netsim.Engine.events_processed (Core.Scenario.engine (sc c))) in
      let lookups = count (fun c -> (cache c).Lispdp.Map_cache.hits + (cache c).Lispdp.Map_cache.misses) in
      let hits = count (fun c -> (cache c).Lispdp.Map_cache.hits) in
      let client_queries = count (fun c -> (dns c).Dnssim.System.client_queries) in
      let sent = count (fun c -> (dp c).Lispdp.Dataplane.sent) in
      let opened = count (fun c -> c.E.opened) in
      let pull_cells = List.filter (fun c -> Core.Scenario.pce (sc c) = None) cells in
      let pce_cells = List.filter (fun c -> Core.Scenario.pce (sc c) <> None) cells in
      let map_requests = sum_cells pull_cells (fun c -> (cp c).Mapsys.Cp_stats.map_requests) in
      let sources = sum_cells warm_cells (fun c -> c.E.prewarm_sources) in
      let sssp_ns =
        if sources = 0 then 0.0
        else sumf_cells warm_cells (fun c -> c.E.prewarm_s) *. 1e9 /. float_of_int sources
      in
      let slices = List.concat_map (fun c -> c.E.slices) cells in
      let gen_ns = sumf_cells warm_cells (fun c -> c.E.gen_s) *. 1e9 /. float_of_int (Stdlib.max 1 opened) in
      let open_ns = sumf_cells warm_cells (fun c -> c.E.open_s) *. 1e9 /. float_of_int (Stdlib.max 1 opened) in
      let ev_fwd = Engine_probes.events_per_forward probes in
      let ev_res = Engine_probes.events_per_resolve probes in
      let other_events =
        Float.max 0.0
          (float_of_int events -. (float_of_int sent *. ev_fwd)
          -. (float_of_int client_queries *. ev_res))
      in
      let residual =
        reconciliation ~workload:spec.E.name ~wall:untraced_wall
          [ ("graph (route computation, s)", 1.0, route_s *. 1e9);
            ("dataplane.forward x sent", float_of_int sent, Measure.ns probes.forward);
            ("dns.resolve x client_queries", float_of_int client_queries, Measure.ns probes.resolve);
            ("scenario.open_connection x opened", float_of_int opened, open_ns);
            ("traffic.random_flow x opened", float_of_int opened, gen_ns);
            ("engine.dispatch x other events", other_events, Measure.ns probes.dispatch) ]
      in
      let p = probes in
      [ ("engine.events", float_of_int events, "count");
        ("engine.pending_hwm",
         float_of_int
           (List.fold_left
              (fun acc c -> Stdlib.max acc (Netsim.Engine.pending_hwm (Core.Scenario.engine (sc c))))
              0 cells),
         "count");
        ("engine.dispatch_ns", Measure.ns p.dispatch, "ns");
        ("engine.stall_ms_p99",
         (if slices = [] then 0.0 else 1e3 *. Measure.percentile 99.0 slices), "ms");
        ("engine.stall_samples", float_of_int (List.length slices), "count");
        ("gc.minor_words_per_event",
         sumf_cells cells (fun c -> c.E.minor_words) /. float_of_int (Stdlib.max 1 events),
         "words");
        ("graph.sssp_ns", sssp_ns, "ns");
        ("graph.route_s", route_s, "s");
        ("graph.path_ns", Measure.ns p.path, "ns");
        ("graph.path_words", Measure.words p.path, "words");
        ("graph.invalidations", float_of_int (count (fun c -> c.E.flaps)), "count");
        ("prefix_table.lookup_ns", Measure.ns p.lpm, "ns");
        ("prefix_table.lookup_words", Measure.words p.lpm, "words");
        ("prefix_table.add_remove_ns", Measure.ns p.lpm_update, "ns");
        ("int_table.add_remove_ns", Measure.ns p.index_update, "ns");
        ("map_cache.lookups", float_of_int lookups, "count");
        ("map_cache.hit_ratio", ratio hits lookups, "ratio");
        ("map_cache.insertions", float_of_int (count (fun c -> (cache c).Lispdp.Map_cache.insertions)), "count");
        ("map_cache.evictions", float_of_int (count (fun c -> (cache c).Lispdp.Map_cache.evictions)), "count");
        ("map_cache.lookup_ns", Measure.ns p.cache_lookup, "ns");
        ("map_cache.lookup_words", Measure.words p.cache_lookup, "words");
        ("map_cache.insert_ns", Measure.ns p.cache_insert, "ns");
        ("map_cache.insert_words", Measure.words p.cache_insert, "words");
        ("flow_table.lookup_ns", Measure.ns p.flow_lookup, "ns");
        ("dataplane.sent", float_of_int sent, "count");
        ("dataplane.drops", float_of_int (count (fun c -> (dp c).Lispdp.Dataplane.dropped)), "count");
        ("dataplane.held", float_of_int (count (fun c -> (dp c).Lispdp.Dataplane.held)), "count");
        ("dataplane.forward_ns", Measure.ns p.forward, "ns");
        ("dns.client_queries", float_of_int client_queries, "count");
        ("dns.iterative_queries", float_of_int (count (fun c -> (dns c).Dnssim.System.iterative_queries)), "count");
        ("dns.cache_hit_ratio",
         ratio (count (fun c -> (dns c).Dnssim.System.cache_hits))
           (count (fun c -> (dns c).Dnssim.System.cache_hits + (dns c).Dnssim.System.cache_misses)),
         "ratio");
        ("dns.resolve_ns", Measure.ns p.resolve, "ns");
        ("pull.map_requests", float_of_int map_requests, "count");
        ("pull.retransmissions",
         float_of_int (sum_cells pull_cells (fun c -> (cp c).Mapsys.Cp_stats.retransmissions)),
         "count");
        ("pull.useful_ratio",
         ratio (sum_cells pull_cells (fun c -> (cp c).Mapsys.Cp_stats.resolutions)) map_requests,
         "ratio");
        ("pce.push_messages", float_of_int (sum_cells pce_cells (fun c -> (cp c).Mapsys.Cp_stats.push_messages)), "count");
        ("pce.control_bytes", float_of_int (sum_cells pce_cells (fun c -> (cp c).Mapsys.Cp_stats.control_bytes)), "bytes");
        ("scenario.open_connection_ns", open_ns, "ns");
        ("traffic.random_flow_ns", gen_ns, "ns");
        ("zipf.sample_ns", Measure.ns p.zipf, "ns");
        ("trace.records",
         float_of_int (count (fun c -> Netsim.Trace.length (Core.Scenario.trace (sc c)))),
         "count");
        ("cost.residual_ratio", residual, "ratio");
        ("trace.overhead_ratio", overhead, "ratio") ]

let engine_main a spec v =
  if a.record then begin
    List.iter
      (fun cp ->
        let c = E.run_cell spec ~seed:a.seed ~mode:E.Plain cp in
        if not (E.check c.E.scenario) then
          Printf.eprintf "%s seed %d %s: checks failed\n%!" spec.E.name a.seed c.E.label;
        Printf.printf "%s %d %s %s\n" spec.E.name a.seed c.E.label (E.digest c.E.scenario))
      spec.E.cps;
    exit 0
  end;
  if a.trace then engine_per_layer spec ~seed:a.seed ~seconds:a.seconds v
  else begin
    let setups = ref [] in
    let batches =
      repeat ~seconds:a.seconds ~min_batches:3 (fun () ->
          setups := setup_samples spec ~seed:a.seed @ !setups;
          run_batch spec ~seed:a.seed ~mode:E.Plain v)
    in
    engine_end_to_end ~setup_s:(Measure.median !setups) batches
  end

(* ---- cache-dfz ---- *)

module C = Cache_wl

let cache_main a spec v =
  (* A fresh world for every batch, so that set-up is timed across the
     whole run, as the batches are. *)
  let setups = ref [] in
  let world () =
    Gc.full_major ();
    let (w, generate_s), setup_s = Measure.timed (fun () -> C.setup spec ~seed:a.seed) in
    setups := (setup_s, generate_s) :: !setups;
    w
  in
  let w = world () in
  if a.record then begin
    let b = C.run_batch spec w ~seed:a.seed in
    if not (snd (C.model_check spec w b)) then
      Printf.eprintf "cache-dfz seed %d: miss ratio outside the model tolerance\n%!" a.seed;
    Printf.printf "cache-dfz %d lru %s\n" a.seed b.C.digest;
    exit 0
  end;
  Gc.compact ();
  let first = C.run_batch spec w ~seed:a.seed in
  let predicted, model_ok = C.model_check spec w first in
  Printf.eprintf "cache-dfz: miss ratio %.5f, model %.5f (%s)\n%!" (C.miss_ratio first)
    predicted (if model_ok then "within tolerance" else "OUTSIDE tolerance");
  let judged b =
    judge v ~cell:"lru" ~digest:b.C.digest ~ok:model_ok;
    b
  in
  let first = judged first in
  let batch run =
    let w = world () in
    Gc.compact ();
    attempt v (fun () -> judged (run w))
  in
  let untraced w = C.run_batch spec w ~seed:a.seed in
  let remaining = a.seconds -. first.C.wall_s in
  let refs_per_s b = float_of_int (b.C.hits + b.C.misses) /. b.C.wall_s in
  if not a.trace then begin
    let batches =
      first :: repeat ~seconds:remaining ~min_batches:2 (fun () -> batch untraced)
    in
    [ ("wall_s", median_of (fun b -> b.C.wall_s) batches, "s");
      ("setup_s", median_of fst !setups, "s");
      ("events_per_s", median_of refs_per_s batches, "1/s");
      ("flows_per_s", median_of (fun b -> float_of_int b.C.misses /. b.C.wall_s) batches, "1/s");
      ("packets_per_s", median_of refs_per_s batches, "1/s");
      ("refs_per_s", median_of refs_per_s batches, "1/s");
      ("peak_rss_mb", Measure.peak_rss_mb (), "MiB") ]
  end
  else begin
    (* Rounds of one untraced and one traced batch, as on the engine
       workloads, so host drift cancels out of the overhead ratio. *)
    let p = C.probes () in
    let last = ref first in
    let rounds =
      repeat ~seconds:remaining ~min_batches:2 (fun () ->
          match (batch untraced, batch (fun w -> C.run_traced spec w ~seed:a.seed p)) with
          | Some plain, Some traced ->
              last := traced;
              Some (plain.C.wall_s, traced.C.wall_s)
          | _ -> None)
    in
    C.probe_tables spec w ~seed:a.seed p;
    let wall = median_of fst rounds in
    let b = !last in
    let refs = float_of_int (b.C.hits + b.C.misses) in
    let residual =
      reconciliation ~workload:"cache-dfz" ~wall
        [ ("zipf.sample x refs", refs, Measure.ns p.C.zipf);
          ("map_cache.lookup x refs", refs, Measure.ns p.C.lookup);
          ("map_cache.insert x misses", float_of_int b.C.misses, Measure.ns p.C.insert) ]
    in
    let total = b.C.hits + b.C.misses in
    [ ("prefix_table.lookup_ns", Measure.ns p.C.lpm, "ns");
      ("prefix_table.lookup_words", Measure.words p.C.lpm, "words");
      ("prefix_table.add_remove_ns", Measure.ns p.C.lpm_update, "ns");
      ("int_table.add_remove_ns", Measure.ns p.C.index_update, "ns");
      ("map_cache.lookups", float_of_int total, "count");
      ("map_cache.hit_ratio", ratio b.C.hits total, "ratio");
      ("map_cache.insertions", float_of_int b.C.insertions, "count");
      ("map_cache.evictions", float_of_int b.C.evictions, "count");
      ("map_cache.lookup_ns", Measure.ns p.C.lookup, "ns");
      ("map_cache.lookup_words", Measure.words p.C.lookup, "words");
      ("map_cache.insert_ns", Measure.ns p.C.insert, "ns");
      ("map_cache.insert_words", Measure.words p.C.insert, "words");
      ("zipf.sample_ns", Measure.ns p.C.zipf, "ns");
      ("eid_universe.generate_s", median_of snd !setups, "s");
      ("cost.residual_ratio", residual, "ratio");
      ("trace.overhead_ratio", median_of (fun (w, t) -> t /. w) rounds, "ratio") ]
  end

let () =
  let a = parse Sys.argv in
  (* Digests are recorded for full-size batches only. *)
  let digests = if a.scale = 1.0 then a.digests else None in
  let v = verdict (load_digests digests ~workload:a.workload ~seed:a.seed) in
  if (not v.recorded) && not a.record then
    Printf.eprintf "note: no recorded digest for %s seed %d; checking determinism only\n%!"
      a.workload a.seed;
  let metrics =
    match a.workload with
    | "wan-setup" -> engine_main a (E.wan_setup ~scale:a.scale) v
    | "cache-dfz" -> cache_main a (C.spec ~scale:a.scale) v
    | _ -> usage ()
  in
  print_result v metrics
