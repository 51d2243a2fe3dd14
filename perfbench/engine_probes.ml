(* Per-layer host costs on the engine workloads, timed from outside.

   Each probe calls one layer's public functions on a finished cell's
   own state (its graph, routers, resolvers and flows) after the cell's
   digest has been taken, so probing cannot perturb what is checked.
   Costs accumulate over the cells of a workload. *)

open Core

type t = {
  dispatch : Measure.cost;  (** [Engine.schedule] + firing, per event *)
  path : Measure.cost;  (** warm [Graph.account_path] *)
  cache_lookup : Measure.cost;  (** [Map_cache.lookup] *)
  cache_insert : Measure.cost;  (** [Map_cache.insert], evicting *)
  flow_lookup : Measure.cost;  (** [Flow_table.lookup] *)
  forward : Measure.cost;  (** [Dataplane.send_from_host] + drain *)
  resolve : Measure.cost;  (** [Dnssim.System.resolve] + drain *)
  lpm : Measure.cost;  (** [Prefix_table.lookup] *)
  lpm_update : Measure.cost;  (** [Prefix_table.remove] + [add] *)
  index_update : Measure.cost;  (** [Int_table.remove] + [add] *)
  zipf : Measure.cost;  (** [Rng.Zipf.sample] *)
  mutable forward_events : int;
  mutable resolve_events : int;
}

let create () =
  let c = Measure.cost in
  { dispatch = c (); path = c (); cache_lookup = c (); cache_insert = c ();
    flow_lookup = c (); forward = c (); resolve = c (); lpm = c ();
    lpm_update = c (); index_update = c (); zipf = c (); forward_events = 0;
    resolve_events = 0 }

(* Engine events fired per probed call, for the cost reconciliation. *)
let events_per c n = if c.Measure.ops = 0 then 0.0 else float_of_int n /. float_of_int c.Measure.ops
let events_per_forward t = events_per t.forward t.forward_events
let events_per_resolve t = events_per t.resolve t.resolve_events

(* Repeat passes over small input sets until about [target] calls. *)
let rounds_for inputs = Stdlib.max 1 (20_000 / Stdlib.max 1 (Array.length inputs))

let endpoints internet flow =
  let locate eid =
    match Topology.Builder.domain_of_eid internet eid with
    | Some d -> (
        match Topology.Domain.host_of_eid d eid with
        | Some i -> Some (d, d.Topology.Domain.hosts.(i))
        | None -> None)
    | None -> None
  in
  match (locate flow.Nettypes.Flow.src, locate flow.Nettypes.Flow.dst) with
  | Some s, Some d -> Some (s, d)
  | _ -> None

let probe t ~zipf_alpha sc =
  let engine = Scenario.engine sc in
  let internet = Scenario.internet sc in
  let g = internet.Topology.Builder.graph in
  let dp = Scenario.dataplane sc in
  let now = Netsim.Engine.now engine in
  let conns = Array.of_list (Scenario.connections sc) in
  let flows = Array.map (fun c -> c.Scenario.flow) conns in
  let with_flows =
    Array.of_list
      (List.filter_map
         (fun f -> Option.map (fun e -> (f, e)) (endpoints internet f))
         (Array.to_list flows))
  in
  let located = Array.map snd with_flows in
  (* Engine: no-op events that each reschedule themselves, keeping the
     queue as deep as the workload's own high-water mark. *)
  let n_events = 100_000 in
  let depth = Stdlib.max 1 (Stdlib.min n_events (Netsim.Engine.pending_hwm engine)) in
  let left = ref n_events in
  let rec tick i () =
    decr left;
    if !left >= depth then
      ignore
        (Netsim.Engine.schedule engine
           ~delay:(float_of_int ((i * 7919) land 1023) *. 1e-6)
           (tick (i + 1)))
  in
  Measure.charge t.dispatch ~ops:n_events (fun () ->
      for i = 1 to depth do
        ignore (Netsim.Engine.schedule engine ~delay:(float_of_int i *. 1e-6) (tick i))
      done;
      Netsim.Engine.run engine);
  (* Graph: warm shortest-path reads and link accounting, host to host. *)
  let pairs =
    Array.map (fun ((_, s), (_, d)) -> (s, d)) located
  in
  Measure.per_op t.path ~rounds:(rounds_for pairs) pairs (fun (src, dst) ->
      Topology.Graph.account_path g ~src ~dst ~bytes:1276);
  (* Map-cache and flow table of the source domain's first border. *)
  let itr (src_domain, _) = (Lispdp.Dataplane.routers_of_domain dp src_domain).(0) in
  let itr_flows =
    Array.map (fun (flow, (src, _)) -> (itr src, flow)) with_flows
  in
  Measure.per_op t.cache_lookup ~rounds:(rounds_for itr_flows) itr_flows
    (fun (r, flow) ->
      ignore (Lispdp.Map_cache.lookup r.Lispdp.Dataplane.cache ~now flow.Nettypes.Flow.dst));
  Measure.per_op t.flow_lookup ~rounds:(rounds_for itr_flows) itr_flows
    (fun (r, flow) ->
      ignore
        (Lispdp.Flow_table.lookup r.Lispdp.Dataplane.flows ~now
           ~src_eid:flow.Nettypes.Flow.src ~dst_eid:flow.Nettypes.Flow.dst));
  let domains = internet.Topology.Builder.domains in
  let mappings =
    Array.map (fun d -> Topology.Domain.advertised_mapping d ~ttl:60.0) domains
  in
  let small =
    Lispdp.Map_cache.create ~capacity:(Stdlib.max 1 (Array.length mappings / 2)) ()
  in
  Measure.per_op t.cache_insert ~rounds:(rounds_for mappings) mappings (fun m ->
      Lispdp.Map_cache.insert small ~now m);
  (* Longest-prefix match and the integer index over the domains' EID
     prefixes, looked up with the flows' destinations. *)
  let prefixes = Array.map (fun d -> d.Topology.Domain.eid_prefix) domains in
  let lpm = Nettypes.Prefix_table.create () in
  Array.iter (fun p -> Nettypes.Prefix_table.add lpm p ()) prefixes;
  let dsts = Array.map (fun f -> f.Nettypes.Flow.dst) flows in
  Measure.per_op t.lpm ~rounds:(rounds_for dsts) dsts (fun a ->
      ignore (Nettypes.Prefix_table.lookup lpm a));
  Measure.per_op t.lpm_update ~rounds:(rounds_for prefixes) prefixes (fun p ->
      Nettypes.Prefix_table.remove lpm p;
      Nettypes.Prefix_table.add lpm p ());
  let keys =
    Array.map (fun p -> Nettypes.Ipv4.addr_to_int (Nettypes.Ipv4.prefix_network p)) prefixes
  in
  let index = Nettypes.Int_table.create ~dummy:() () in
  Array.iter (fun k -> Nettypes.Int_table.add index k ()) keys;
  Measure.per_op t.index_update ~rounds:(rounds_for keys) keys (fun k ->
      Nettypes.Int_table.remove index k;
      Nettypes.Int_table.add index k ());
  let dist = Netsim.Rng.Zipf.create ~n:(Array.length domains) ~alpha:zipf_alpha in
  let rng = Netsim.Rng.create 1 in
  Measure.charge t.zipf ~ops:n_events (fun () ->
      for _ = 1 to n_events do
        ignore (Netsim.Rng.Zipf.sample dist rng)
      done);
  (* Dataplane: more data packets on the established flows, to
     destinations whose mappings are warm, each drained before the
     next. *)
  let established =
    Array.of_list
      (List.filter_map
         (fun c ->
           match Scenario.total_setup_time c with
           | Some _ -> Some c.Scenario.flow
           | None -> None)
         (Array.to_list conns))
  in
  let e0 = Netsim.Engine.events_processed engine in
  Measure.per_op t.forward ~rounds:(rounds_for established) established (fun flow ->
      Lispdp.Dataplane.send_from_host dp
        (Nettypes.Packet.make ~flow ~segment:(Nettypes.Packet.Data 1200)
           ~sent_at:(Netsim.Engine.now engine));
      Netsim.Engine.run engine);
  t.forward_events <- t.forward_events + Netsim.Engine.events_processed engine - e0;
  (* DNS: the flows' own client resolutions again, each drained. *)
  let dns = Scenario.dns sc in
  let queries =
    Array.map
      (fun (flow, ((src_domain, client), (dst_domain, _))) ->
        let host =
          Option.value ~default:0
            (Topology.Domain.host_of_eid dst_domain flow.Nettypes.Flow.dst)
        in
        ( src_domain.Topology.Domain.dns, client, flow.Nettypes.Flow.src,
          Dnssim.Name.of_string (Topology.Domain.host_name dst_domain host) ))
      with_flows
  in
  let e0 = Netsim.Engine.events_processed engine in
  Measure.per_op t.resolve queries (fun (resolver, client, client_eid, name) ->
      Dnssim.System.resolve dns ~resolver ~client ~client_eid name ~callback:ignore;
      Netsim.Engine.run engine);
  t.resolve_events <- t.resolve_events + Netsim.Engine.events_processed engine - e0
