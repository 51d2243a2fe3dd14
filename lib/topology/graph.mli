(** The topology graph.

    Nodes are added first, then links; shortest-path latencies (Dijkstra
    on link latency) are computed lazily, one source at a time, on that
    source's first query, and cached per source.  Each source's route
    storage is allocated once.  A new link invalidates every cached
    route, and the next query from a source recomputes into the same
    storage in place; a link failing or recovering instead repairs the
    cached routes where they change (see {!set_link_up}).  Nothing is
    precomputed when the graph is built.  All message and packet delays
    in the simulator derive from {!latency_between}.

    Routing is {e valley-free}: every path decomposes into an internal
    prefix (leaving the source domain over {!Link.Internal} links), an
    external middle (access and core links), and an internal suffix
    (entering the destination domain).  A domain's internal wiring can
    therefore never act as transit between two providers.  In addition,
    a border router is only reachable from outside through its own
    access link — traffic addressed to an RLOC enters via that RLOC's
    provider, as inter-domain routing would deliver it. *)

type t

val create : unit -> t

val add_node : t -> kind:Node.kind -> label:string -> Node.id
(** Allocates the next dense id.  Cached routes stay valid: the new node
    is unreachable until a link to it is added. *)

val node : t -> Node.id -> Node.t
(** Raises [Invalid_argument] on an unknown id. *)

val node_count : t -> int

val connect :
  t -> Node.id -> Node.id -> latency:float -> ?capacity_bps:float ->
  ?kind:Link.kind -> unit ->
  Link.t
(** Add a bidirectional link.  Raises [Invalid_argument] on unknown
    endpoints, a self-loop, or a duplicate link. *)

val link_between : t -> Node.id -> Node.id -> Link.t option
val links : t -> Link.t list
val neighbours : t -> Node.id -> (Node.id * Link.t) list

val latency_between : t -> Node.id -> Node.id -> float
(** Shortest-path latency in seconds.  0 for a node to itself.  Raises
    [Not_found] if the nodes are disconnected. *)

val path_between : t -> Node.id -> Node.id -> Node.id list
(** Shortest path as a node sequence including both endpoints.  Raises
    [Not_found] if disconnected. *)

val account_path : t -> src:Node.id -> dst:Node.id -> bytes:int -> unit
(** Charge [bytes] to every link along the shortest path from [src] to
    [dst] in the forward direction — how data-plane transmissions feed
    the utilisation counters.  Interior nodes of the path (not the
    endpoints) also count a forwarded packet when {!Netsim.Telemetry} is
    enabled.  Allocates nothing once [src]'s route is cached.  Raises
    [Not_found] if disconnected. *)

val set_link_up : t -> Link.t -> bool -> unit
(** Fail or restore a link.  Down links are invisible to shortest-path
    computation.  Every cached route stays cached and is repaired in
    place, touching only the states whose route changes, to exactly the
    result of recomputing it, ties included; once the graph's scratch
    has grown this allocates nothing.  A cached route filled before the
    last {!add_node} goes stale instead, as after {!invalidate_cache};
    so do all of them if no route has been computed since that
    [add_node]. *)

val invalidate_cache : t -> unit
(** Mark every cached route stale; each is recomputed in place on its
    source's next query.  [connect] calls this. *)
