(* The engine workload, wan-setup.

   One cell is one control plane running one fixed batch of simulated
   work on a world built from the seed.  Flows arrive as an open-loop
   Poisson stream in simulated time, so the generator can never run
   late in host time.

   A cell runs in one of three modes.  [Plain] is the measured run.
   [Sliced] runs the same simulation in fixed simulated-time slices and
   times each slice from outside.  [Prewarmed] computes every route
   source eagerly after build and after each flap, and times that
   separately, so the rest of its run is free of route computation; it
   also times each generator call, which then costs no route work.
   All three must end in the same simulated digest. *)

open Core

type spec = {
  name : string;
  params : Topology.Builder.params;
  cps : (string * Scenario.cp_kind) list;
  flows : int;
  rate : float;  (** flow arrivals per simulated second *)
  zipf_alpha : float;
  data_packets : int;  (** per flow *)
  flap_pairs : int;  (** fail/restore pairs spread over the batch *)
}

(* Connection set-up under route churn: 456 nodes, where each flap
   invalidates every cached route.  With 150 flows between flaps nearly
   every route source is recomputed in each of the three epochs, which
   keeps the batch's cost steady across seeds. *)
let wan_setup ~scale =
  { name = "wan-setup";
    params =
      { Topology.Builder.default_params with
        Topology.Builder.domain_count = 64; provider_count = 6;
        borders_per_domain = 2; hosts_per_domain = 2 };
    cps =
      [ ("pce", Scenario.Cp_pce Pce_control.default_options);
        ("pull-queue", Scenario.Cp_pull_queue 32) ];
    flows = int_of_float (450.0 *. scale); rate = 40.0; zipf_alpha = 0.9;
    data_packets = 4; flap_pairs = 1 }

type mode = Plain | Sliced of int  (** slices per arrival window *) | Prewarmed

type cell = {
  label : string;
  scenario : Scenario.t;
  run_s : float;  (** measured phase, less any eager route computation *)
  prewarm_s : float;
  prewarm_sources : int;
  slices : float list;  (** host seconds per simulated slice ([Sliced]) *)
  minor_words : float;  (** allocated during the measured phase *)
  gen_s : float;  (** [Traffic.random_flow] time ([Prewarmed]) *)
  open_s : float;  (** [Scenario.open_connection] time ([Prewarmed]) *)
  opened : int;
  flaps : int;  (** [fail_uplink]/[restore_uplink] calls *)
}

let config spec ~seed cp =
  { Scenario.default_config with
    Scenario.cp; topology = `Random spec.params; seed }

let graph sc = (Scenario.internet sc).Topology.Builder.graph

(* Fill the route cache for every source; returns the source count. *)
let prewarm sc =
  let g = graph sc in
  let n = Topology.Graph.node_count g in
  for s = 0 to n - 1 do
    try ignore (Topology.Graph.latency_between g s ((s + 1) mod n))
    with Not_found -> ()
  done;
  n

let run_cell spec ~seed ~mode (label, cp) =
  let sc = Scenario.build (config spec ~seed cp) in
  let engine = Scenario.engine sc in
  let rng = Scenario.rng sc in
  let traffic =
    Workload.Traffic.create ~rng:(Netsim.Rng.split rng)
      ~internet:(Scenario.internet sc) ~zipf_alpha:spec.zipf_alpha ()
  in
  let arrival_rng = Netsim.Rng.split rng in
  let flap_rng = Netsim.Rng.split rng in
  let prewarmed = mode = Prewarmed in
  let prewarm_s = ref 0.0 and prewarm_sources = ref 0 in
  let warm () =
    if prewarmed then begin
      let n, dt = Measure.timed (fun () -> prewarm sc) in
      prewarm_s := !prewarm_s +. dt;
      prewarm_sources := !prewarm_sources + n
    end
  in
  warm ();
  let setup_prewarm = !prewarm_s in
  let window = float_of_int spec.flows /. spec.rate in
  (match Scenario.pce sc with
  | Some p ->
      Pce_control.run_monitoring p ~interval:1.0 ~until:(window +. 10.0)
        ~rebalance:false
  | None -> ());
  let flaps = ref 0 in
  let domains = spec.params.Topology.Builder.domain_count in
  for i = 0 to spec.flap_pairs - 1 do
    let domain = Netsim.Rng.int flap_rng domains in
    let border = Netsim.Rng.int flap_rng 2 in
    let at k = window *. float_of_int k /. float_of_int ((2 * spec.flap_pairs) + 1) in
    let flap time f =
      ignore
        (Netsim.Engine.schedule_at engine ~time (fun () ->
             f sc ~domain ~border;
             incr flaps;
             warm ()))
    in
    flap (at ((2 * i) + 1)) Scenario.fail_uplink;
    flap (at ((2 * i) + 2)) Scenario.restore_uplink
  done;
  let gen_s = ref 0.0 and open_s = ref 0.0 and opened = ref 0 in
  let timed_into acc f =
    if prewarmed then begin
      let r, dt = Measure.timed f in
      acc := !acc +. dt;
      r
    end
    else f ()
  in
  let rec arrive () =
    if !opened < spec.flows then begin
      let flow = timed_into gen_s (fun () -> Workload.Traffic.random_flow traffic ()) in
      incr opened;
      timed_into open_s (fun () ->
          ignore (Scenario.open_connection sc ~flow ~data_packets:spec.data_packets ()));
      ignore
        (Netsim.Engine.schedule engine
           ~delay:(Netsim.Rng.exponential arrival_rng ~mean:(1.0 /. spec.rate))
           arrive)
    end
  in
  let w0 = Gc.minor_words () in
  let t0 = Measure.now_s () in
  ignore (Netsim.Engine.schedule engine ~delay:0.0 arrive);
  let slices =
    match mode with
    | Plain | Prewarmed ->
        Scenario.run sc;
        []
    | Sliced slice_count ->
        (* Host time of each simulated slice in which an event fired. *)
        let width = window /. float_of_int slice_count in
        let acc = ref [] in
        let k = ref 1 in
        while Netsim.Engine.pending engine > 0 do
          let e0 = Netsim.Engine.events_processed engine in
          let s0 = Measure.now_s () in
          Netsim.Engine.run ~until:(float_of_int !k *. width) engine;
          let dt = Measure.now_s () -. s0 in
          if Netsim.Engine.events_processed engine > e0 then acc := dt :: !acc;
          incr k
        done;
        !acc
  in
  let run_s = Measure.now_s () -. t0 -. (!prewarm_s -. setup_prewarm) in
  let minor_words = Gc.minor_words () -. w0 in
  { label; scenario = sc; run_s; prewarm_s = !prewarm_s;
    prewarm_sources = !prewarm_sources; slices; minor_words; gen_s = !gen_s;
    open_s = !open_s; opened = !opened; flaps = !flaps }

(* Every simulated quantity the workload produces, hashed: a change to
   the simulator that is meant to be a pure speed-up must leave it
   bit-identical. *)
let digest sc =
  let b = Buffer.create 512 in
  let ints name xs =
    Buffer.add_string b name;
    List.iter (Printf.bprintf b " %d") xs;
    Buffer.add_char b ';'
  in
  let dp = Scenario.dataplane sc in
  let c = Lispdp.Dataplane.counters dp in
  ints "dp"
    Lispdp.Dataplane.
      [ c.sent; c.delivered; c.dropped; c.held; c.encapsulated; c.decapsulated;
        c.intra_domain; c.delivered_bytes ];
  List.iter
    (fun (cause, n) -> ints cause [ n ])
    (List.sort compare (Lispdp.Dataplane.drop_causes dp));
  let s = Lispdp.Dataplane.cache_stats_totals dp in
  ints "cache"
    Lispdp.Map_cache.
      [ s.hits; s.misses; s.insertions; s.evictions; s.expirations;
        s.invalidations; s.glean_rejections ];
  let p = Scenario.cp_stats sc in
  ints "cp"
    Mapsys.Cp_stats.
      [ p.map_requests; p.map_replies; p.push_messages; p.control_bytes;
        p.detoured_packets; p.resolutions; p.retransmissions; p.timeouts;
        p.bypasses; p.recoveries; p.spoofed_accepted; p.spoofed_rejected;
        p.replayed_accepted; p.replayed_rejected ];
  let d = Dnssim.System.counters (Scenario.dns sc) in
  ints "dns"
    Dnssim.System.
      [ d.client_queries; d.iterative_queries; d.responses; d.cache_hits;
        d.cache_misses; d.wire_bytes; d.tap_bypasses; d.outage_failures;
        d.poisoned_accepted; d.poisoned_rejected ];
  ints "events" [ Netsim.Engine.events_processed (Scenario.engine sc) ];
  let conns = Scenario.connections sc in
  let established, setup_sum =
    List.fold_left
      (fun (n, sum) conn ->
        match Scenario.total_setup_time conn with
        | Some t -> (n + 1, sum +. t)
        | None -> (n, sum))
      (0, 0.0) conns
  in
  ints "conns" [ List.length conns; established ];
  Printf.bprintf b "setup %Lx" (Int64.bits_of_float setup_sum);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Simulated outcomes a correct run must show whatever the seed: every
   connection is set up, and every packet a host sent was delivered or
   counted as dropped. *)
let check sc =
  let c = Lispdp.Dataplane.counters (Scenario.dataplane sc) in
  List.for_all
    (fun conn -> Scenario.total_setup_time conn <> None)
    (Scenario.connections sc)
  && c.Lispdp.Dataplane.sent = c.Lispdp.Dataplane.delivered + c.Lispdp.Dataplane.dropped
