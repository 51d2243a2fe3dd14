(* Tests for the topology substrate: graph shortest paths, link
   accounting, domain construction and the Figure-1 / random internet
   builders. *)

open Topology

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Graph                                                               *)
(* ------------------------------------------------------------------ *)

let diamond () =
  (* a - b - d and a - c - d with a shortcut a - d. *)
  let g = Graph.create () in
  let a = Graph.add_node g ~kind:Node.Host ~label:"a" in
  let b = Graph.add_node g ~kind:Node.Hub ~label:"b" in
  let c = Graph.add_node g ~kind:Node.Hub ~label:"c" in
  let d = Graph.add_node g ~kind:Node.Host ~label:"d" in
  ignore (Graph.connect g a b ~latency:1.0 ());
  ignore (Graph.connect g b d ~latency:1.0 ());
  ignore (Graph.connect g a c ~latency:0.5 ());
  ignore (Graph.connect g c d ~latency:0.4 ());
  ignore (Graph.connect g a d ~latency:5.0 ());
  (g, a, b, c, d)

let test_graph_shortest_path () =
  let g, a, _, c, d = diamond () in
  check_float "a->d via c" 0.9 (Graph.latency_between g a d);
  Alcotest.(check (list int)) "path nodes" [ a; c; d ] (Graph.path_between g a d);
  check_float "self" 0.0 (Graph.latency_between g a a)

let test_graph_symmetry () =
  let g, a, b, _, d = diamond () in
  check_float "symmetric" (Graph.latency_between g a d) (Graph.latency_between g d a);
  check_float "a->b direct" 1.0 (Graph.latency_between g a b)

let test_graph_disconnected () =
  let g = Graph.create () in
  let a = Graph.add_node g ~kind:Node.Host ~label:"a" in
  let b = Graph.add_node g ~kind:Node.Host ~label:"b" in
  Alcotest.check_raises "disconnected" Not_found (fun () ->
      ignore (Graph.latency_between g a b))

let test_graph_duplicate_link_rejected () =
  let g = Graph.create () in
  let a = Graph.add_node g ~kind:Node.Host ~label:"a" in
  let b = Graph.add_node g ~kind:Node.Host ~label:"b" in
  ignore (Graph.connect g a b ~latency:1.0 ());
  (match Graph.connect g b a ~latency:2.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate link accepted");
  match Graph.connect g a a ~latency:1.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "self loop accepted"

let test_graph_cache_invalidation () =
  let g = Graph.create () in
  let a = Graph.add_node g ~kind:Node.Host ~label:"a" in
  let b = Graph.add_node g ~kind:Node.Host ~label:"b" in
  let c = Graph.add_node g ~kind:Node.Host ~label:"c" in
  ignore (Graph.connect g a b ~latency:10.0 ());
  ignore (Graph.connect g b c ~latency:10.0 ());
  check_float "long way" 20.0 (Graph.latency_between g a c);
  ignore (Graph.connect g a c ~latency:1.0 ());
  check_float "shortcut after new link" 1.0 (Graph.latency_between g a c)

let test_graph_account_path () =
  let g, a, _, c, d = diamond () in
  Graph.account_path g ~src:a ~dst:d ~bytes:1000;
  let link_ac = Option.get (Graph.link_between g a c) in
  let link_cd = Option.get (Graph.link_between g c d) in
  let link_ad = Option.get (Graph.link_between g a d) in
  Alcotest.(check int) "a->c charged" 1000 (Link.bytes_from link_ac a);
  Alcotest.(check int) "c->d charged" 1000 (Link.bytes_from link_cd c);
  Alcotest.(check int) "reverse direction empty" 0 (Link.bytes_from link_ac c);
  Alcotest.(check int) "direct link unused" 0 (Link.bytes_from link_ad a)

let test_graph_account_path_interior_hops () =
  let g, a, b, c, d = diamond () in
  Netsim.Telemetry.start ~now:0.0 ();
  Fun.protect ~finally:Netsim.Telemetry.stop @@ fun () ->
  Graph.account_path g ~src:a ~dst:d ~bytes:1000;
  let fwd node = (Netsim.Telemetry.node_stat ~node `Fwd).Netsim.Telemetry.st_bytes in
  Alcotest.(check int) "interior hop forwards" 1000 (fwd c);
  Alcotest.(check (list int)) "endpoints and off-path nodes do not" [ 0; 0; 0 ]
    [ fwd a; fwd d; fwd b ]

let test_graph_add_node_after_query () =
  let g = Graph.create () in
  let a = Graph.add_node g ~kind:Node.Host ~label:"a" in
  let b = Graph.add_node g ~kind:Node.Host ~label:"b" in
  ignore (Graph.connect g a b ~latency:1.0 ());
  check_float "a->b" 1.0 (Graph.latency_between g a b);
  let c = Graph.add_node g ~kind:Node.Host ~label:"c" in
  Alcotest.check_raises "latency to new node" Not_found (fun () ->
      ignore (Graph.latency_between g a c));
  Alcotest.check_raises "path to new node" Not_found (fun () ->
      ignore (Graph.path_between g a c));
  Alcotest.check_raises "from new node" Not_found (fun () ->
      ignore (Graph.latency_between g c a));
  check_float "cached route intact" 1.0 (Graph.latency_between g a b);
  ignore (Graph.connect g b c ~latency:2.0 ());
  check_float "reachable once linked" 3.0 (Graph.latency_between g a c);
  Alcotest.(check (list int)) "path once linked" [ a; b; c ] (Graph.path_between g a c)

(* ------------------------------------------------------------------ *)
(* Differential oracle: the dense-scan Dijkstra the heap/CSR kernel     *)
(* replaced, written against the public graph API.                     *)
(* ------------------------------------------------------------------ *)

module Dense_oracle = struct
  let phases = 3

  (* O(V^2): settle the unvisited state of least distance, lowest index
     first on ties; relax with a strict [<]. *)
  let dijkstra g src =
    let states = Graph.node_count g * phases in
    let dist = Array.make states infinity in
    let pred = Array.make states (-1) in
    let visited = Array.make states false in
    dist.(src * phases) <- 0.0;
    let settling = ref true in
    while !settling do
      let u = ref (-1) and best = ref infinity in
      for v = 0 to states - 1 do
        if (not visited.(v)) && dist.(v) < !best then begin
          best := dist.(v);
          u := v
        end
      done;
      if !u < 0 then settling := false
      else begin
        let u = !u in
        visited.(u) <- true;
        List.iter
          (fun (v, link) ->
            let next =
              if not (Link.is_up link) then None
              else
                match (Link.kind link, u mod phases) with
                | Link.Internal, 0 -> Some 0
                | Link.Internal, _ -> Some 2
                | Link.External, (0 | 1) -> Some 1
                | Link.External, _ -> None
            in
            match next with
            | Some p ->
                let state = (v * phases) + p in
                let candidate = dist.(u) +. Link.latency link in
                if candidate < dist.(state) then begin
                  dist.(state) <- candidate;
                  pred.(state) <- u
                end
            | None -> ())
          (Graph.neighbours g (u / phases))
      end
    done;
    (dist, pred)

  let best_state g dist b =
    let allowed =
      match (Graph.node g b).Node.kind with
      | Node.Border_router -> [ 0; 1 ]
      | _ -> [ 0; 1; 2 ]
    in
    List.fold_left
      (fun acc p ->
        let state = (b * phases) + p in
        match acc with
        | Some s when dist.(s) <= dist.(state) -> acc
        | Some _ | None -> if dist.(state) = infinity then acc else Some state)
      None allowed

  (* Every destination's [(latency, path)], or [None] when unreachable. *)
  let routes_from g a =
    let dist, pred = dijkstra g a in
    Array.init (Graph.node_count g) (fun b ->
        if b = a then Some (0.0, [ a ])
        else
          match best_state g dist b with
          | None -> None
          | Some final ->
              let rec walk state acc =
                let node = state / phases in
                if node = a && state mod phases = 0 then node :: acc
                else walk pred.(state) (node :: acc)
              in
              Some (dist.(final), walk final []))
end

let graph_route g a b =
  match Graph.latency_between g a b with
  | latency -> Some (latency, Graph.path_between g a b)
  | exception Not_found -> (
      match Graph.path_between g a b with
      | _ -> Alcotest.failf "%d->%d: no latency but a path" a b
      | exception Not_found -> None)

(* Every pair: the latency bit for bit, the path, and unreachability. *)
let check_against_oracle what g =
  let n = Graph.node_count g in
  for a = 0 to n - 1 do
    let expected = Dense_oracle.routes_from g a in
    for b = 0 to n - 1 do
      let same =
        match (expected.(b), graph_route g a b) with
        | None, None -> true
        | Some (l, p), Some (l', p') ->
            Int64.equal (Int64.bits_of_float l) (Int64.bits_of_float l') && p = p'
        | Some _, None | None, Some _ -> false
      in
      if not same then
        Alcotest.failf "%s: %d->%d differs from the dense oracle" what a b
    done
  done

(* Mutations between query rounds: flaps, extra links (tie-prone
   latencies from a small set, either kind) and late nodes.  Each round
   first queries a random subset, so some sources are cached and some
   not when the next mutation lands. *)
let mutate rng g =
  let n = Graph.node_count g in
  let links = Array.of_list (Graph.links g) in
  match Netsim.Rng.int rng 4 with
  | 0 | 1 when Array.length links > 0 ->
      let l = Netsim.Rng.choice rng links in
      Graph.set_link_up g l (not (Link.is_up l))
  | 2 ->
      let a = Netsim.Rng.int rng n and b = Netsim.Rng.int rng n in
      if a <> b && Graph.link_between g a b = None then
        ignore
          (Graph.connect g a b
             ~latency:(0.001 *. float_of_int (1 + Netsim.Rng.int rng 3))
             ~kind:(if Netsim.Rng.bool rng then Link.Internal else Link.External)
             ())
  | _ -> ignore (Graph.add_node g ~kind:Node.Hub ~label:"late")

let warm_some rng g =
  let n = Graph.node_count g in
  for _ = 1 to n do
    let a = Netsim.Rng.int rng n and b = Netsim.Rng.int rng n in
    ignore (graph_route g a b)
  done

let generated_internet rng =
  let params =
    { Builder.default_params with
      domain_count = 2 + Netsim.Rng.int rng 6;
      provider_count = 2 + Netsim.Rng.int rng 4;
      hosts_per_domain = 1 + Netsim.Rng.int rng 3;
      core_shape =
        (if Netsim.Rng.bool rng then Builder.Full_mesh else Builder.Two_tier 2) }
  in
  let params =
    if params.Builder.provider_count < 3 then
      { params with core_shape = Builder.Full_mesh }
    else params
  in
  Builder.generate (Netsim.Rng.split rng) params

let prop_oracle_generated =
  QCheck.Test.make ~name:"heap kernel matches dense oracle on generated internets"
    ~count:15 QCheck.(int_range 1 10_000)
    (fun seed ->
      let rng = Netsim.Rng.create seed in
      let g = (generated_internet rng).Builder.graph in
      check_against_oracle "fresh" g;
      for _ = 1 to 6 do
        mutate rng g;
        warm_some rng g;
        mutate rng g;
        check_against_oracle "mutated" g
      done;
      true)

(* Small dense graphs with integer latencies: ties everywhere, so the
   settle order decides the predecessors. *)
let tie_graph rng =
  let g = Graph.create () in
  let kinds = [| Node.Host; Node.Border_router; Node.Hub; Node.Provider_core |] in
  let n = 2 + Netsim.Rng.int rng 10 in
  for i = 0 to n - 1 do
    ignore (Graph.add_node g ~kind:(Netsim.Rng.choice rng kinds) ~label:(string_of_int i))
  done;
  for _ = 1 to 2 * n do
    let a = Netsim.Rng.int rng n and b = Netsim.Rng.int rng n in
    if a <> b && Graph.link_between g a b = None then
      ignore
        (Graph.connect g a b ~latency:(float_of_int (1 + Netsim.Rng.int rng 3))
           ~kind:(if Netsim.Rng.bool rng then Link.Internal else Link.External)
           ())
  done;
  g

let prop_oracle_ties =
  QCheck.Test.make ~name:"heap kernel breaks ties like the dense oracle"
    ~count:200 QCheck.(int_range 1 100_000)
    (fun seed ->
      let rng = Netsim.Rng.create seed in
      let g = tie_graph rng in
      check_against_oracle "fresh" g;
      for _ = 1 to 4 do
        mutate rng g;
        warm_some rng g;
        check_against_oracle "mutated" g
      done;
      true)

(* ------------------------------------------------------------------ *)
(* Flap repair: with every source current, a flap repairs each cached   *)
(* route in place instead of recomputing it.                           *)
(* ------------------------------------------------------------------ *)

let warm_all g =
  let n = Graph.node_count g in
  for a = 0 to n - 1 do
    ignore (graph_route g a ((a + 1) mod n))
  done

let flap_checked what g link up =
  warm_all g;
  Graph.set_link_up g link up;
  check_against_oracle what g

(* Both uplinks of one domain go down, cutting it off, and come back;
   then random links flap. *)
let prop_repair_generated =
  QCheck.Test.make ~name:"flap repair matches dense oracle on generated internets"
    ~count:10 QCheck.(int_range 1 10_000)
    (fun seed ->
      let rng = Netsim.Rng.create seed in
      let net = generated_internet rng in
      let g = net.Builder.graph in
      let d = Netsim.Rng.choice rng net.Builder.domains in
      let uplinks = Array.map (fun b -> b.Domain.uplink) d.Domain.borders in
      Array.iter (fun l -> flap_checked "uplink down" g l false) uplinks;
      Array.iter (fun l -> flap_checked "uplink restored" g l true) uplinks;
      let links = Array.of_list (Graph.links g) in
      for _ = 1 to 6 do
        let l = Netsim.Rng.choice rng links in
        flap_checked "random flap" g l (not (Link.is_up l))
      done;
      true)

(* Random flaps, then every link of one node down and back up. *)
let prop_repair_ties =
  QCheck.Test.make ~name:"flap repair breaks ties like the dense oracle"
    ~count:200 QCheck.(int_range 1 100_000)
    (fun seed ->
      let rng = Netsim.Rng.create seed in
      let g = tie_graph rng in
      let links = Array.of_list (Graph.links g) in
      if Array.length links > 0 then
        for _ = 1 to 6 do
          let l = Netsim.Rng.choice rng links in
          flap_checked "random flap" g l (not (Link.is_up l))
        done;
      let node = Netsim.Rng.int rng (Graph.node_count g) in
      let cut = List.map snd (Graph.neighbours g node) in
      List.iter (fun l -> flap_checked "cut" g l false) cut;
      List.iter (fun l -> flap_checked "rejoined" g l true) cut;
      true)

(* A flap while the CSR awaits its rebuild after [add_node] cannot be
   repaired, yet must still reach the cached routes.  Once a query has
   rebuilt the CSR, the slices filled before [add_node] are too short to
   repair and must go stale. *)
let test_flap_after_add_node () =
  let g, a, _, c, d = diamond () in
  let ac = Option.get (Graph.link_between g a c) in
  warm_all g;
  ignore (Graph.add_node g ~kind:Node.Hub ~label:"late");
  Graph.set_link_up g ac false;
  check_float "detour via b" 2.0 (Graph.latency_between g a d);
  check_against_oracle "flap after add_node" g;
  let late = Graph.add_node g ~kind:Node.Hub ~label:"later" in
  Alcotest.check_raises "isolated" Not_found (fun () ->
      ignore (Graph.latency_between g late a));
  Graph.set_link_up g ac true;
  check_float "via c again" 0.9 (Graph.latency_between g a d);
  check_against_oracle "flap over short slices" g

(* A flap between [connect] and the next query: the link's endpoint is a
   node the stale CSR has no edge range for. *)
let test_flap_after_connect () =
  let g, a, _, _, d = diamond () in
  warm_all g;
  let e = Graph.add_node g ~kind:Node.Hub ~label:"e" in
  let ed = Graph.connect g e d ~latency:1.0 () in
  Graph.set_link_up g ed false;
  Alcotest.check_raises "cut off" Not_found (fun () ->
      ignore (Graph.latency_between g a e));
  check_against_oracle "flap after connect" g;
  Graph.set_link_up g ed true;
  check_float "rejoined" 1.9 (Graph.latency_between g a e);
  check_against_oracle "restored after connect" g

(* The same uplink fails and recovers three times, with a redundant set
   in between; every slice stays current throughout. *)
let test_repeated_flap () =
  let net =
    Builder.generate (Netsim.Rng.create 23)
      { Builder.default_params with domain_count = 6; provider_count = 4 }
  in
  let g = net.Builder.graph in
  let uplink = net.Builder.domains.(2).Domain.borders.(0).Domain.uplink in
  for _ = 1 to 3 do
    flap_checked "down" g uplink false;
    Graph.set_link_up g uplink false;
    check_against_oracle "down again" g;
    flap_checked "up" g uplink true
  done

let wan_setup_internet () =
  Builder.generate (Netsim.Rng.create 1)
    { Builder.default_params with domain_count = 64; provider_count = 6;
      borders_per_domain = 2; hosts_per_domain = 2 }

(* Once its scratch has grown, repairing all 456 warm sources of the
   wan-setup internet allocates nothing. *)
let test_flap_repair_allocates_nothing () =
  let net = wan_setup_internet () in
  let g = net.Builder.graph in
  let uplink = net.Builder.domains.(5).Domain.borders.(0).Domain.uplink in
  warm_all g;
  Graph.set_link_up g uplink false;
  Graph.set_link_up g uplink true;
  let w0 = Gc.minor_words () in
  Graph.set_link_up g uplink false;
  Graph.set_link_up g uplink true;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "flap pair allocates nothing (%.0f words)" dw)
    true (dw = 0.0)

(* [account_path] charges exactly the links of the oracle's path, in the
   forward direction. *)
let test_account_path_matches_oracle () =
  let net =
    Builder.generate (Netsim.Rng.create 17)
      { Builder.default_params with domain_count = 6; provider_count = 4 }
  in
  let g = net.Builder.graph in
  let n = Graph.node_count g in
  let expected = Hashtbl.create 64 in
  for a = 0 to n - 1 do
    let routes = Dense_oracle.routes_from g a in
    for b = 0 to n - 1 do
      match routes.(b) with
      | Some (_, path) ->
          Graph.account_path g ~src:a ~dst:b ~bytes:1;
          let rec charge = function
            | u :: (v :: _ as rest) ->
                let link = Option.get (Graph.link_between g u v) in
                let key = (Link.id link, u) in
                Hashtbl.replace expected key
                  (1 + Option.value ~default:0 (Hashtbl.find_opt expected key));
                charge rest
            | [ _ ] | [] -> ()
          in
          charge path
      | None -> ()
    done
  done;
  List.iter
    (fun link ->
      List.iter
        (fun u ->
          Alcotest.(check int) "bytes per direction"
            (Option.value ~default:0 (Hashtbl.find_opt expected (Link.id link, u)))
            (Link.bytes_from link u))
        [ Link.a link; Link.b link ])
    (Graph.links g)

(* The benchmark's wan-setup internet (456 nodes) with one uplink flap
   pair, every pair checked at each step. *)
let test_oracle_wan_setup () =
  let net = wan_setup_internet () in
  let g = net.Builder.graph in
  Alcotest.(check int) "wan-setup size" 456 (Graph.node_count g);
  check_against_oracle "built" g;
  let border = net.Builder.domains.(5).Domain.borders.(0) in
  let uplink =
    List.find
      (fun (v, _) -> (Graph.node g v).Node.kind = Node.Provider_core)
      (Graph.neighbours g border.Domain.router)
    |> snd
  in
  Graph.set_link_up g uplink false;
  check_against_oracle "uplink down" g;
  Graph.set_link_up g uplink true;
  check_against_oracle "uplink restored" g

(* ------------------------------------------------------------------ *)
(* Link                                                                *)
(* ------------------------------------------------------------------ *)

let test_link_accounting () =
  let l = Link.create ~a:0 ~b:1 ~latency:0.01 ~capacity_bps:1e6 () in
  Link.account l ~src:0 ~bytes:500;
  Link.account l ~src:0 ~bytes:500;
  Link.account l ~src:1 ~bytes:100;
  Alcotest.(check int) "0->1" 1000 (Link.bytes_from l 0);
  Alcotest.(check int) "1->0" 100 (Link.bytes_from l 1);
  (* 1000 bytes = 8000 bits over 1 s at 1 Mbit/s = 0.008. *)
  check_float "utilisation" 0.008 (Link.utilisation_from l 0 ~duration:1.0);
  Link.reset_counters l;
  Alcotest.(check int) "reset" 0 (Link.bytes_from l 0)

let test_link_other_end () =
  let l = Link.create ~a:3 ~b:9 ~latency:0.01 () in
  Alcotest.(check int) "other of a" 9 (Link.other_end l 3);
  Alcotest.(check int) "other of b" 3 (Link.other_end l 9);
  Alcotest.check_raises "stranger" (Invalid_argument "Link.other_end: node is not an endpoint")
    (fun () -> ignore (Link.other_end l 4))

(* ------------------------------------------------------------------ *)
(* Figure 1 internet                                                   *)
(* ------------------------------------------------------------------ *)

let test_figure1_shape () =
  let net = Builder.figure1 () in
  Alcotest.(check int) "two domains" 2 (Array.length net.Builder.domains);
  Alcotest.(check int) "four providers" 4 (Array.length net.Builder.providers);
  Array.iter
    (fun d ->
      Alcotest.(check int) "two borders" 2 (Array.length d.Domain.borders);
      Alcotest.(check int) "two hosts" 2 (Array.length d.Domain.hosts))
    net.Builder.domains;
  let as_s = net.Builder.domains.(0) and as_d = net.Builder.domains.(1) in
  (* AS_S homes to providers A (10/8) and B (11/8); AS_D to X and Y. *)
  let provider_prefix_of b =
    Nettypes.Ipv4.prefix_to_string
      net.Builder.providers.(b.Domain.provider).Builder.prefix
  in
  Alcotest.(check (list string)) "AS_S providers" [ "10.0.0.0/8"; "11.0.0.0/8" ]
    (List.map provider_prefix_of (Array.to_list as_s.Domain.borders));
  Alcotest.(check (list string)) "AS_D providers" [ "12.0.0.0/8"; "13.0.0.0/8" ]
    (List.map provider_prefix_of (Array.to_list as_d.Domain.borders))

let test_figure1_rlocs_in_provider_space () =
  let net = Builder.figure1 () in
  Array.iter
    (fun d ->
      Array.iter
        (fun b ->
          let p = net.Builder.providers.(b.Domain.provider) in
          Alcotest.(check bool) "rloc inside provider prefix" true
            (Nettypes.Ipv4.prefix_mem p.Builder.prefix b.Domain.rloc))
        d.Domain.borders)
    net.Builder.domains

let test_figure1_connectivity () =
  let net = Builder.figure1 () in
  let as_s = net.Builder.domains.(0) and as_d = net.Builder.domains.(1) in
  let h_s = as_s.Domain.hosts.(0) and h_d = as_d.Domain.hosts.(0) in
  let owd = Builder.latency net h_s h_d in
  Alcotest.(check bool) "host to host reachable and plausible" true
    (owd > 0.01 && owd < 0.2);
  (* DNS of S reaches the root. *)
  let dns_latency = Builder.latency net as_s.Domain.dns net.Builder.root_dns in
  Alcotest.(check bool) "dns to root" true (dns_latency > 0.0 && dns_latency < 0.2)

let test_figure1_eid_lookup () =
  let net = Builder.figure1 () in
  let as_s = net.Builder.domains.(0) in
  let eid = Domain.host_eid as_s 1 in
  (match Builder.domain_of_eid net eid with
  | Some d -> Alcotest.(check int) "domain found" 0 d.Domain.id
  | None -> Alcotest.fail "eid not found");
  Alcotest.(check (option int)) "host index roundtrip" (Some 1)
    (Domain.host_of_eid as_s eid);
  Alcotest.(check bool) "foreign eid rejected" true
    (Domain.host_of_eid as_s (Nettypes.Ipv4.addr_of_string "100.0.1.1") = None)

let test_figure1_border_of_rloc () =
  let net = Builder.figure1 () in
  let as_d = net.Builder.domains.(1) in
  let b0 = as_d.Domain.borders.(0) in
  match Builder.border_of_rloc net b0.Domain.rloc with
  | Some (d, b) ->
      Alcotest.(check int) "domain" 1 d.Domain.id;
      Alcotest.(check int) "router" b0.Domain.router b.Domain.router
  | None -> Alcotest.fail "rloc not resolved"

let test_domain_names () =
  let net = Builder.figure1 () in
  let as_s = net.Builder.domains.(0) in
  Alcotest.(check string) "fqdn" "as0.net." (Domain.fqdn as_s);
  Alcotest.(check string) "host name" "h1.as0.net." (Domain.host_name as_s 1);
  (match Builder.domain_of_name net "as1" with
  | Some d -> Alcotest.(check int) "by label" 1 d.Domain.id
  | None -> Alcotest.fail "label lookup failed");
  match Builder.domain_of_name net "as1.net." with
  | Some d -> Alcotest.(check int) "by fqdn" 1 d.Domain.id
  | None -> Alcotest.fail "fqdn lookup failed"

let test_advertised_mapping () =
  let net = Builder.figure1 () in
  let as_d = net.Builder.domains.(1) in
  let m = Domain.advertised_mapping as_d ~ttl:60.0 in
  Alcotest.(check int) "one rloc per border" 2
    (List.length m.Nettypes.Mapping.rlocs);
  Alcotest.(check bool) "covers its hosts" true
    (Nettypes.Mapping.covers m (Domain.host_eid as_d 0))

(* ------------------------------------------------------------------ *)
(* Random internet                                                     *)
(* ------------------------------------------------------------------ *)

let test_generate_deterministic () =
  let build () =
    Builder.generate (Netsim.Rng.create 11)
      { Builder.default_params with domain_count = 6; provider_count = 5 }
  in
  let n1 = build () and n2 = build () in
  let rlocs net =
    Array.to_list net.Builder.domains
    |> List.concat_map (fun d ->
           List.map Nettypes.Ipv4.addr_to_string (Domain.rlocs d))
  in
  Alcotest.(check (list string)) "same seed, same internet" (rlocs n1) (rlocs n2)

let test_generate_all_connected () =
  let net =
    Builder.generate (Netsim.Rng.create 3)
      { Builder.default_params with domain_count = 8; provider_count = 4 }
  in
  let d0 = net.Builder.domains.(0) in
  Array.iter
    (fun d ->
      let l = Builder.latency net d0.Domain.hosts.(0) d.Domain.hosts.(0) in
      Alcotest.(check bool) "reachable" true (l >= 0.0))
    net.Builder.domains

let test_generate_distinct_providers_per_domain () =
  let net =
    Builder.generate (Netsim.Rng.create 5)
      { Builder.default_params with domain_count = 10; provider_count = 6;
        borders_per_domain = 3 }
  in
  Array.iter
    (fun d ->
      let providers =
        Array.to_list (Array.map (fun b -> b.Domain.provider) d.Domain.borders)
      in
      Alcotest.(check int) "three distinct providers" 3
        (List.length (List.sort_uniq compare providers)))
    net.Builder.domains

let test_generate_unique_rlocs () =
  let net =
    Builder.generate (Netsim.Rng.create 7)
      { Builder.default_params with domain_count = 20; provider_count = 4;
        borders_per_domain = 2 }
  in
  let all =
    Array.to_list net.Builder.domains
    |> List.concat_map (fun d -> List.map Nettypes.Ipv4.addr_to_int (Domain.rlocs d))
  in
  Alcotest.(check int) "no duplicate rlocs" (List.length all)
    (List.length (List.sort_uniq compare all))

let test_generate_unique_eid_prefixes () =
  let net =
    Builder.generate (Netsim.Rng.create 7)
      { Builder.default_params with domain_count = 30 }
  in
  let prefixes =
    Array.to_list net.Builder.domains
    |> List.map (fun d -> Nettypes.Ipv4.prefix_to_string d.Domain.eid_prefix)
  in
  Alcotest.(check int) "distinct eid prefixes" (List.length prefixes)
    (List.length (List.sort_uniq compare prefixes))

let test_generate_two_tier_core () =
  let params =
    { Builder.default_params with domain_count = 8; provider_count = 7;
      core_shape = Builder.Two_tier 3 }
  in
  let net = Builder.generate (Netsim.Rng.create 6) params in
  let graph = net.Builder.graph in
  (* Tier-1 cores form a triangle; tier-2 cores have exactly two core
     neighbours, both tier-1. *)
  let core_neighbours i =
    List.filter
      (fun (n, _) ->
        (Graph.node graph n).Node.kind = Node.Provider_core)
      (Graph.neighbours graph net.Builder.providers.(i).Builder.core)
  in
  (* Tier-1 cores peer with both other tier-1s (plus their tier-2
     children). *)
  for i = 0 to 2 do
    let neighbours = List.map fst (core_neighbours i) in
    List.iter
      (fun j ->
        if j <> i then
          Alcotest.(check bool) "tier-1 mesh edge present" true
            (List.mem net.Builder.providers.(j).Builder.core neighbours))
      [ 0; 1; 2 ]
  done;
  for i = 3 to 6 do
    let neighbours = core_neighbours i in
    Alcotest.(check int) "tier-2 dual-homed" 2 (List.length neighbours);
    List.iter
      (fun (n, _) ->
        let tier1 =
          List.exists
            (fun j -> net.Builder.providers.(j).Builder.core = n)
            [ 0; 1; 2 ]
        in
        Alcotest.(check bool) "parents are tier-1" true tier1)
      neighbours
  done;
  (* Everything still reachable. *)
  let d0 = net.Builder.domains.(0) in
  Array.iter
    (fun d ->
      Alcotest.(check bool) "connected" true
        (Builder.latency net d0.Domain.hosts.(0) d.Domain.hosts.(0) < infinity))
    net.Builder.domains

let test_generate_two_tier_validation () =
  List.iter
    (fun shape ->
      let params =
        { Builder.default_params with provider_count = 5; core_shape = shape }
      in
      match Builder.generate (Netsim.Rng.create 1) params with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "bad tier-1 size accepted")
    [ Builder.Two_tier 0; Builder.Two_tier 6; Builder.Two_tier 1 ]

let test_generate_bad_params_rejected () =
  List.iter
    (fun params ->
      match Builder.generate (Netsim.Rng.create 1) params with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "bad params accepted")
    [ { Builder.default_params with domain_count = 0 };
      { Builder.default_params with provider_count = 0 };
      { Builder.default_params with provider_count = 101 };
      { Builder.default_params with hosts_per_domain = 0 };
      { Builder.default_params with hosts_per_domain = 255 } ]

let prop_generated_rloc_resolves =
  QCheck.Test.make ~name:"every generated rloc resolves to its border" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let net =
        Builder.generate (Netsim.Rng.create seed)
          { Builder.default_params with domain_count = 5; provider_count = 3 }
      in
      Array.for_all
        (fun d ->
          Array.for_all
            (fun b ->
              match Builder.border_of_rloc net b.Domain.rloc with
              | Some (d', b') -> d'.Domain.id = d.Domain.id && b'.Domain.router = b.Domain.router
              | None -> false)
            d.Domain.borders)
        net.Builder.domains)

let () =
  Alcotest.run "topology"
    [
      ( "graph",
        [
          Alcotest.test_case "shortest path" `Quick test_graph_shortest_path;
          Alcotest.test_case "symmetry" `Quick test_graph_symmetry;
          Alcotest.test_case "disconnected" `Quick test_graph_disconnected;
          Alcotest.test_case "duplicate rejected" `Quick test_graph_duplicate_link_rejected;
          Alcotest.test_case "cache invalidation" `Quick test_graph_cache_invalidation;
          Alcotest.test_case "account path" `Quick test_graph_account_path;
          Alcotest.test_case "account path interior hops" `Quick
            test_graph_account_path_interior_hops;
          Alcotest.test_case "add node after query" `Quick test_graph_add_node_after_query;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "account path" `Quick test_account_path_matches_oracle;
          Alcotest.test_case "wan-setup internet" `Quick test_oracle_wan_setup;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_oracle_generated; prop_oracle_ties ] );
      ( "repair",
        [
          Alcotest.test_case "flap after add_node" `Quick test_flap_after_add_node;
          Alcotest.test_case "flap after connect" `Quick test_flap_after_connect;
          Alcotest.test_case "repeated flap" `Quick test_repeated_flap;
          Alcotest.test_case "wan-setup flap allocates nothing" `Quick
            test_flap_repair_allocates_nothing;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_repair_generated; prop_repair_ties ] );
      ( "link",
        [
          Alcotest.test_case "accounting" `Quick test_link_accounting;
          Alcotest.test_case "other end" `Quick test_link_other_end;
        ] );
      ( "figure1",
        [
          Alcotest.test_case "shape" `Quick test_figure1_shape;
          Alcotest.test_case "rloc spaces" `Quick test_figure1_rlocs_in_provider_space;
          Alcotest.test_case "connectivity" `Quick test_figure1_connectivity;
          Alcotest.test_case "eid lookup" `Quick test_figure1_eid_lookup;
          Alcotest.test_case "border of rloc" `Quick test_figure1_border_of_rloc;
          Alcotest.test_case "names" `Quick test_domain_names;
          Alcotest.test_case "advertised mapping" `Quick test_advertised_mapping;
        ] );
      ( "generate",
        [
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "connected" `Quick test_generate_all_connected;
          Alcotest.test_case "distinct providers" `Quick test_generate_distinct_providers_per_domain;
          Alcotest.test_case "unique rlocs" `Quick test_generate_unique_rlocs;
          Alcotest.test_case "unique eid prefixes" `Quick test_generate_unique_eid_prefixes;
          Alcotest.test_case "two-tier core" `Quick test_generate_two_tier_core;
          Alcotest.test_case "two-tier validation" `Quick test_generate_two_tier_validation;
          Alcotest.test_case "bad params" `Quick test_generate_bad_params_rejected;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_generated_rloc_resolves ] );
    ]
