(* Routes are a valley-free Dijkstra over (node, phase) states; see
   [fill_route].  Each source's result lives in a [route] slice that is
   allocated on the source's first query and refilled in place after an
   invalidation.  A link flap invalidates nothing: [set_link_up] repairs
   every current slice in place ([repair_down], [repair_up]), touching
   only the states whose route changes, and allocates nothing. *)

type route = {
  mutable stamp : int;  (** [epoch] the slice was filled in *)
  dist : float array;  (** per state *)
  pred : int array;
      (** per state: [(edge * phases) + phase] of the predecessor state,
          [edge] indexing the CSR arrays; -1 for the source and for
          unreached states *)
}

type t = {
  mutable nodes : Node.t array;
  mutable node_count : int;
  mutable adjacency : (Node.id * Link.t) list array;
  mutable links : Link.t list;
  (* CSR view of [adjacency], rebuilt by the first route query after a
     [connect]: node [u]'s edges are [off.(u)] .. [off.(u + 1) - 1], in
     adjacency-list order. *)
  mutable csr_valid : bool;
  mutable off : int array;
  mutable e_src : int array;
  mutable e_dst : int array;
  mutable e_lat : float array;
  mutable e_ext : int array;  (** 0 internal, [phases] external *)
  mutable e_link : Link.t array;
  mutable e_twin : int array;  (** the same link's edge the other way *)
  (* Route cache: a slice is current iff its stamp equals [epoch]. *)
  mutable epoch : int;
  mutable routes : route array;  (** per source, [no_route] until queried *)
  (* Scratch owned by the graph, sized by [ensure_scratch]: one byte per
     state ([fill_route]'s visited set, [repair_down]'s classes), a
     state list and the heap. *)
  mutable mark : Bytes.t;
  mutable work : int array;  (** [repair_down]'s affected states *)
  mutable heap_key : float array;
  mutable heap_state : int array;
}

let phases = 3
let dummy_node : Node.t = { id = -1; kind = Node.Host; label = "" }
let no_route = { stamp = -1; dist = [||]; pred = [||] }

let create () =
  { nodes = Array.make 16 dummy_node; node_count = 0;
    adjacency = Array.make 16 []; links = []; csr_valid = false;
    off = [| 0 |]; e_src = [||]; e_dst = [||]; e_lat = [||]; e_ext = [||];
    e_link = [||]; e_twin = [||]; epoch = 0; routes = Array.make 16 no_route;
    mark = Bytes.empty; work = [||]; heap_key = [||]; heap_state = [||] }

let grow t =
  let capacity = Array.length t.nodes in
  let extend a fill =
    let a' = Array.make (2 * capacity) fill in
    Array.blit a 0 a' 0 t.node_count;
    a'
  in
  t.nodes <- extend t.nodes dummy_node;
  t.adjacency <- extend t.adjacency [];
  t.routes <- extend t.routes no_route

(* No invalidation: a new node has no links, so cached routes stay
   exact, and [best_state] reads states beyond a slice as unreached.
   The CSR arrays are rebuilt to give it an (empty) edge range; edge
   indices, which cached routes record, do not move, as it comes last. *)
let add_node t ~kind ~label =
  if t.node_count = Array.length t.nodes then grow t;
  let id = t.node_count in
  t.nodes.(id) <- { Node.id; kind; label };
  t.node_count <- id + 1;
  t.csr_valid <- false;
  id

let check_id t id fn =
  if id < 0 || id >= t.node_count then
    invalid_arg (Printf.sprintf "Graph.%s: unknown node %d" fn id)

let node t id =
  check_id t id "node";
  t.nodes.(id)

let node_count t = t.node_count
let invalidate_cache t = t.epoch <- t.epoch + 1

let link_between t a b =
  check_id t a "link_between";
  check_id t b "link_between";
  List.assoc_opt b t.adjacency.(a)

let connect t a b ~latency ?capacity_bps ?kind () =
  check_id t a "connect";
  check_id t b "connect";
  if a = b then invalid_arg "Graph.connect: self-loop";
  if link_between t a b <> None then
    invalid_arg (Printf.sprintf "Graph.connect: duplicate link %d-%d" a b);
  let link = Link.create ~a ~b ~latency ?capacity_bps ?kind () in
  t.adjacency.(a) <- (b, link) :: t.adjacency.(a);
  t.adjacency.(b) <- (a, link) :: t.adjacency.(b);
  t.links <- link :: t.links;
  t.csr_valid <- false;
  invalidate_cache t;
  link

let links t = t.links

let neighbours t id =
  check_id t id "neighbours";
  t.adjacency.(id)

let build_csr t =
  let n = t.node_count in
  let m = 2 * List.length t.links in
  let off = Array.make (n + 1) 0 in
  let e_src = Array.make m 0 and e_dst = Array.make m 0 in
  let e_lat = Array.make m 0.0 and e_ext = Array.make m 0 in
  let e_link = match t.links with [] -> [||] | l :: _ -> Array.make m l in
  let e = ref 0 in
  for u = 0 to n - 1 do
    off.(u) <- !e;
    List.iter
      (fun (v, link) ->
        e_src.(!e) <- u;
        e_dst.(!e) <- v;
        e_lat.(!e) <- Link.latency link;
        e_ext.(!e) <-
          (match Link.kind link with Link.Internal -> 0 | Link.External -> phases);
        e_link.(!e) <- link;
        incr e)
      t.adjacency.(u)
  done;
  off.(n) <- !e;
  let e_twin = Array.make m (-1) and first = Hashtbl.create m in
  for e = 0 to m - 1 do
    let id = Link.id e_link.(e) in
    match Hashtbl.find_opt first id with
    | Some f ->
        e_twin.(e) <- f;
        e_twin.(f) <- e
    | None -> Hashtbl.add first id e
  done;
  t.off <- off;
  t.e_src <- e_src;
  t.e_dst <- e_dst;
  t.e_lat <- e_lat;
  t.e_ext <- e_ext;
  t.e_link <- e_link;
  t.e_twin <- e_twin;
  t.csr_valid <- true

(* Grown, never shrunk: after the first query of a built graph these
   are allocated once.  Each push is a seed (the source, or a state
   [repair_down] resets) or a successful relaxation, at most one per
   settled state and out-edge, so the heap never holds more than
   [states + phases * edges] entries. *)
let ensure_scratch t states =
  if Bytes.length t.mark < states then begin
    t.mark <- Bytes.make states '\000';
    t.work <- Array.make states 0
  end;
  let bound = states + (phases * Array.length t.e_dst) in
  if Array.length t.heap_key < bound then begin
    t.heap_key <- Array.make bound 0.0;
    t.heap_state <- Array.make bound 0
  end

(* Binary min-heap of [size] entries on (distance, state index) in the
   parallel arrays [keys] and [states], with lazy deletion: a state is
   pushed again on every decrease and stale entries are skipped when
   popped.  Both operations move a hole instead of swapping.  A push
   takes its key from [dist], so no float crosses a call boundary. *)
let heap_push (keys : float array) (states : int array) size
    (dist : float array) state =
  let key = Array.unsafe_get dist state in
  let i = ref size and rising = ref true in
  while !rising && !i > 0 do
    let parent = (!i - 1) / 2 in
    let kp = Array.unsafe_get keys parent in
    if kp > key || (kp = key && Array.unsafe_get states parent > state) then begin
      Array.unsafe_set keys !i kp;
      Array.unsafe_set states !i (Array.unsafe_get states parent);
      i := parent
    end
    else rising := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set states !i state

(* Drops the root of a heap of [size] > 0 entries: the last entry sinks
   from the root. *)
let heap_pop (keys : float array) (states : int array) size =
  let last = size - 1 in
  let key = Array.unsafe_get keys last and state = Array.unsafe_get states last in
  let i = ref 0 and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    if l >= last then sinking := false
    else begin
      let c =
        if l + 1 < last then begin
          let kl = Array.unsafe_get keys l and kr = Array.unsafe_get keys (l + 1) in
          if kr < kl || (kr = kl && Array.unsafe_get states (l + 1) < Array.unsafe_get states l)
          then l + 1
          else l
        end
        else l
      in
      let kc = Array.unsafe_get keys c in
      if kc < key || (kc = key && Array.unsafe_get states c < state) then begin
        Array.unsafe_set keys !i kc;
        Array.unsafe_set states !i (Array.unsafe_get states c);
        i := c
      end
      else sinking := false
    end
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set states !i state

(* Valley-free Dijkstra from [src].  The search state is (node, phase)
   with three phases:

     0 - still inside the source domain (only internal links used);
     1 - on external links (access / core);
     2 - inside the destination domain (internal links after external).

   Internal links keep phase 0, move 1 -> 2, and keep 2; external links
   move 0 -> 1, keep 1, and are forbidden from phase 2.  This is exactly
   "no domain transits traffic between two providers".

   States settle in (distance, state index) order — the lowest index wins
   a tie — and relaxation is a strict [<] on [dist u +. latency], so the
   first settled state to reach the least distance is the predecessor.
   That makes [dist] and [pred] a pure function of the graph, whatever
   the order of the adjacency lists.  O((V + E) log V) per source. *)
let next_phase = [| 0; 2; 2; 1; 1; -1 |] (* .(e_ext + phase) *)

let fill_route t src r =
  let states = t.node_count * phases in
  ensure_scratch t states;
  let dist = r.dist and pred = r.pred and visited = t.mark in
  Array.fill dist 0 states infinity;
  Array.fill pred 0 states (-1);
  Bytes.fill visited 0 states '\000';
  let off = t.off and e_dst = t.e_dst and e_lat = t.e_lat
  and e_ext = t.e_ext and e_link = t.e_link in
  let keys = t.heap_key and heap = t.heap_state in
  dist.(src * phases) <- 0.0;
  heap_push keys heap 0 dist (src * phases);
  let size = ref 1 in
  while !size > 0 do
    let u = Array.unsafe_get heap 0 in
    heap_pop keys heap !size;
    decr size;
    if Bytes.unsafe_get visited u = '\000' then begin
      Bytes.unsafe_set visited u '\001';
      let node = u / phases and phase = u mod phases in
      let du = dist.(u) in
      for e = off.(node) to off.(node + 1) - 1 do
        let p = next_phase.(e_ext.(e) + phase) in
        if p >= 0 && Link.is_up e_link.(e) then begin
          let state = (e_dst.(e) * phases) + p in
          let candidate = du +. e_lat.(e) in
          if candidate < dist.(state) then begin
            dist.(state) <- candidate;
            pred.(state) <- (e * phases) + phase;
            heap_push keys heap !size dist state;
            incr size
          end
        end
      done
    end
  done;
  r.stamp <- t.epoch

let sssp t src =
  let r = t.routes.(src) in
  if r.stamp = t.epoch then r
  else begin
    if not t.csr_valid then build_csr t;
    let states = t.node_count * phases in
    let r =
      if Array.length r.dist = states then r
      else begin
        let r =
          { stamp = -1; dist = Array.make states infinity;
            pred = Array.make states (-1) }
        in
        t.routes.(src) <- r;
        r
      end
    in
    fill_route t src r;
    r
  end

(* ---- Repairing routes after a flap ----

   A flap changes few states of a tree: an uplink flap on the wan-setup
   internet moves about 0.6% of them.  So instead of refilling every
   cached slice, [set_link_up] repairs each in place and ends with
   exactly what [fill_route] would have computed.  That is possible
   because [fill_route]'s predecessors have a static description: since
   latencies are positive, states settle in (distance, state index)
   order and a strict [<] keeps the first settled state to offer the
   least distance, so [pred v] is the in-edge whose source [u] has the
   least (dist u + latency, dist u, u).  Both repairs compare offers by
   that triple ([beats]), so the predecessor they keep does not depend
   on the order offers arrive in. *)

(* The state before [state] on the route in [pred]. *)
let pred_state t pred state =
  let p = pred.(state) in
  (t.e_src.(p / phases) * phases) + (p mod phases)

(* Whether [u]'s offer over edge [e] beats the route [v] holds. *)
let beats t (dist : float array) pred u e v =
  let du = dist.(u) and dv = dist.(v) in
  let offer = du +. t.e_lat.(e) in
  offer < dv
  || offer = dv
     &&
     let w = pred_state t pred v in
     du < dist.(w) || (du = dist.(w) && u < w)

(* Routes [v] over [u]'s offer on edge [e]. *)
let take t (dist : float array) pred u e v =
  dist.(v) <- dist.(u) +. t.e_lat.(e);
  pred.(v) <- (e * phases) + (u mod phases)

(* [repair_down]'s classes of a state, in [t.mark]. *)
let clean = '\000' (* its route avoids the failed link: unchanged *)
let affected = '\001' (* its route crossed it: recomputed *)
let settled = '\002' (* affected, and final *)

(* The link of CSR edges [e1] and [e2] went down.  The affected states
   are the subtrees below the two edges, found from the heads of the
   edges by following out-edges that are some state's [pred].  Every
   other state keeps its route: it is still the least triple, as no
   offer to it fell.  The affected ones are reset and seeded from their
   clean in-neighbours, then the heap settles them in order, relaxing
   only into states still affected. *)
let repair_down t r e1 e2 =
  let dist = r.dist and pred = r.pred and mark = t.mark and work = t.work in
  let off = t.off and e_dst = t.e_dst and e_ext = t.e_ext
  and e_link = t.e_link and e_twin = t.e_twin in
  let keys = t.heap_key and heap = t.heap_state in
  Bytes.fill mark 0 (t.node_count * phases) clean;
  let n = ref 0 in
  for q = 0 to phases - 1 do
    let v1 = (e_dst.(e1) * phases) + q and v2 = (e_dst.(e2) * phases) + q in
    if pred.(v1) >= 0 && pred.(v1) / phases = e1 then begin
      Bytes.unsafe_set mark v1 affected;
      work.(!n) <- v1;
      incr n
    end;
    if pred.(v2) >= 0 && pred.(v2) / phases = e2 then begin
      Bytes.unsafe_set mark v2 affected;
      work.(!n) <- v2;
      incr n
    end
  done;
  let i = ref 0 in
  while !i < !n do
    let u = work.(!i) in
    let node = u / phases and phase = u mod phases in
    for e = off.(node) to off.(node + 1) - 1 do
      let p = next_phase.(e_ext.(e) + phase) in
      if p >= 0 then begin
        let v = (e_dst.(e) * phases) + p in
        if pred.(v) = (e * phases) + phase && Bytes.unsafe_get mark v = clean
        then begin
          Bytes.unsafe_set mark v affected;
          work.(!n) <- v;
          incr n
        end
      end
    done;
    incr i
  done;
  let size = ref 0 in
  for i = 0 to !n - 1 do
    let v = work.(i) in
    dist.(v) <- infinity;
    pred.(v) <- -1;
    let node = v / phases and phase = v mod phases in
    (* In-edges are the twins of the out-edges. *)
    for out = off.(node) to off.(node + 1) - 1 do
      let e = e_twin.(out) in
      if Link.is_up e_link.(e) then
        for q = 0 to phases - 1 do
          let u = (e_dst.(out) * phases) + q in
          if
            next_phase.(e_ext.(e) + q) = phase
            && Bytes.unsafe_get mark u = clean
            && dist.(u) < infinity
            && beats t dist pred u e v
          then take t dist pred u e v
        done
    done;
    if dist.(v) < infinity then begin
      heap_push keys heap !size dist v;
      incr size
    end
  done;
  while !size > 0 do
    let u = Array.unsafe_get heap 0 in
    heap_pop keys heap !size;
    decr size;
    if Bytes.unsafe_get mark u = affected then begin
      Bytes.unsafe_set mark u settled;
      let node = u / phases and phase = u mod phases in
      for e = off.(node) to off.(node + 1) - 1 do
        let p = next_phase.(e_ext.(e) + phase) in
        if p >= 0 && Link.is_up e_link.(e) then begin
          let v = (e_dst.(e) * phases) + p in
          if Bytes.unsafe_get mark v = affected && beats t dist pred u e v then begin
            let fell = dist.(u) +. t.e_lat.(e) < dist.(v) in
            take t dist pred u e v;
            if fell then begin
              heap_push keys heap !size dist v;
              incr size
            end
          end
        end
      done
    end
  done

(* Offers [u]'s route over edge [e] to the state it leads to; pushes
   that state when its distance fell.  Returns the new heap size. *)
let relax_up t dist pred u e size =
  let p = next_phase.(t.e_ext.(e) + (u mod phases)) in
  if p < 0 || dist.(u) = infinity || not (Link.is_up t.e_link.(e)) then size
  else begin
    let v = (t.e_dst.(e) * phases) + p in
    if not (beats t dist pred u e v) then size
    else begin
      let fell = dist.(u) +. t.e_lat.(e) < dist.(v) in
      take t dist pred u e v;
      if fell then begin
        heap_push t.heap_key t.heap_state size dist v;
        size + 1
      end
      else size
    end
  end

(* The link of CSR edges [e1] and [e2] came up.  Distances only fall:
   the two edges are offered from every state of their tails, and
   every state whose distance fell offers its out-edges in turn.  An
   offer that only ties changes [pred] but no distance, so it spreads
   no further.  A state is popped at its final distance once, as the
   heap pops in distance order; earlier entries for it are stale. *)
let repair_up t r e1 e2 =
  let dist = r.dist and pred = r.pred in
  let keys = t.heap_key and heap = t.heap_state in
  let size = ref 0 in
  for q = 0 to phases - 1 do
    size := relax_up t dist pred ((t.e_src.(e1) * phases) + q) e1 !size;
    size := relax_up t dist pred ((t.e_src.(e2) * phases) + q) e2 !size
  done;
  while !size > 0 do
    let u = Array.unsafe_get heap 0 and key = Array.unsafe_get keys 0 in
    heap_pop keys heap !size;
    decr size;
    if key = dist.(u) then begin
      let node = u / phases in
      for e = t.off.(node) to t.off.(node + 1) - 1 do
        size := relax_up t dist pred u e !size
      done
    end
  done

(* [link]'s CSR edge out of [Link.a link], or -1 if it is not ours. *)
let edge_of t link =
  let a = Link.a link in
  let edge = ref (-1) in
  if a >= 0 && a < t.node_count then
    for e = t.off.(a) to t.off.(a + 1) - 1 do
      if t.e_link.(e) == link then edge := e
    done;
  !edge

(* Up/down is read at relax time, so a flap leaves the CSR arrays as
   they are.  Current slices are repaired; one filled before an
   [add_node] is too short to repair and goes stale, and so does every
   slice when the CSR awaits a rebuild.  A valid CSR was built by a
   query, whose [fill_route] sized the scratch for it. *)
let set_link_up t link up =
  if Link.is_up link <> up then begin
    Link.set_up_internal link up;
    let e = if t.csr_valid then edge_of t link else -1 in
    if e < 0 then invalidate_cache t
    else begin
      let states = t.node_count * phases in
      for src = 0 to t.node_count - 1 do
        let r = t.routes.(src) in
        if r.stamp = t.epoch then
          if Array.length r.dist <> states then r.stamp <- -1
          else if up then repair_up t r e t.e_twin.(e)
          else repair_down t r e t.e_twin.(e)
      done
    end
  end

(* The state [b] is reached in, or -1.  A border router may not be
   reached through a sibling border (phase 2): traffic addressed to its
   RLOC arrives over its own uplink.  A node added after [dist] was
   filled has no states in it and no links yet: unreached. *)
let best_state t dist b =
  let base = b * phases in
  if base >= Array.length dist then -1
  else begin
    let last =
      match t.nodes.(b).Node.kind with
      | Node.Border_router -> 1
      | Node.Host | Node.Dns_server | Node.Pce | Node.Provider_core | Node.Hub -> 2
    in
    let best = ref (-1) in
    for s = base to base + last do
      if dist.(s) < infinity && (!best < 0 || dist.(s) < dist.(!best)) then
        best := s
    done;
    !best
  end

let latency_between t a b =
  check_id t a "latency_between";
  check_id t b "latency_between";
  if a = b then 0.0
  else begin
    let r = sssp t a in
    let s = best_state t r.dist b in
    if s < 0 then raise Not_found else r.dist.(s)
  end

let path_between t a b =
  check_id t a "path_between";
  check_id t b "path_between";
  if a = b then [ a ]
  else begin
    let r = sssp t a in
    let final = best_state t r.dist b in
    if final < 0 then raise Not_found;
    let source = a * phases in
    let rec walk state acc =
      if state = source then a :: acc
      else walk (pred_state t r.pred state) ((state / phases) :: acc)
    in
    walk final []
  end

(* Walks the predecessor edges back from [dst]; the counters are
   additive, so charging in reverse is the same as charging forward.
   Interior hops transit an edge's far end, so every edge but the last
   (the first walked) also counts a forward at it; endpoints are charged
   by the dataplane as tx/rx instead. *)
let account_path t ~src ~dst ~bytes =
  check_id t src "account_path";
  check_id t dst "account_path";
  if src <> dst then begin
    let r = sssp t src in
    let final = best_state t r.dist dst in
    if final < 0 then raise Not_found;
    let source = src * phases in
    let telemetry = Netsim.Telemetry.enabled () in
    let state = ref final in
    while !state <> source do
      let e = r.pred.(!state) / phases in
      Link.account t.e_link.(e) ~src:t.e_src.(e) ~bytes;
      if telemetry && !state <> final then
        Netsim.Telemetry.on_node_fwd ~node:t.e_dst.(e) ~bytes;
      state := pred_state t r.pred !state
    done
  end
