(** Longest-prefix-match table.

    Keyed by IPv4 prefixes, as used by EID-prefix lookup in map-caches,
    NERD databases and the ALT overlay's aggregation hierarchy.  Lookup
    returns the most specific (longest) matching prefix's binding.

    A flat binary trie: nodes are indices into [int] arrays of child
    links, with the bindings in a value array beside them, so a lookup
    is at most 32 array hops and {!lookup_value} allocates nothing.
    {!remove} prunes the path nodes a binding no longer needs and
    {!add} reuses them, so memory follows the live binding count
    ({!node_count}), not every prefix the table has ever held. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> Ipv4.prefix -> 'a -> unit
(** Insert or replace the binding of an exact prefix. *)

val remove : 'a t -> Ipv4.prefix -> unit
(** Remove the binding of an exact prefix (no-op if absent). *)

val find_exact : 'a t -> Ipv4.prefix -> 'a option

val lookup : 'a t -> Ipv4.addr -> (Ipv4.prefix * 'a) option
(** Longest-prefix match for an address. *)

val lookup_value : 'a t -> Ipv4.addr -> 'a option
(** The value of {!lookup}, without the prefix.  Returns the option
    stored at insertion, so it allocates nothing — the hot-path form
    for callers that only need the binding. *)

val covering : 'a t -> Ipv4.prefix -> (Ipv4.prefix * 'a) option
(** Most specific binding whose prefix subsumes the given prefix. *)

val length : 'a t -> int
(** Number of bound prefixes. *)

val is_empty : 'a t -> bool

val node_count : 'a t -> int
(** Trie nodes in use, root included.  Every leaf carries a binding, so
    this is at most [1 + 32 * length t] however many prefixes have come
    and gone.  Meant for tests and diagnostics. *)

val iter : 'a t -> f:(Ipv4.prefix -> 'a -> unit) -> unit
(** Visit bindings in ascending (network, length) order.  [f] (here and
    in the folds) must not modify the table. *)

val fold : 'a t -> init:'b -> f:(Ipv4.prefix -> 'a -> 'b -> 'b) -> 'b

val fold_covered :
  'a t -> Ipv4.prefix -> init:'b -> f:(Ipv4.prefix -> 'a -> 'b -> 'b) -> 'b
(** Fold over the bindings the given prefix subsumes — the exact
    binding, if any, and every more-specific one under it — in
    ascending (network, length) order.  Visits only the covered
    subtree, so the cost is proportional to the matching bindings, not
    {!length}. *)

val to_list : 'a t -> (Ipv4.prefix * 'a) list
val clear : 'a t -> unit
