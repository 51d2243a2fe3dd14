open Nettypes

(* Entries live in a prefix trie for longest-prefix lookup and in a flat
   int-keyed exact index (the prefix packed into a single int) so the
   insert/refresh/remove paths skip the trie walk that
   [Prefix_table.find_exact] costs.  On top of those two shared
   structures each eviction policy keeps its own victim-selection state:

   - LRU: an intrusive doubly-linked recency list (head = most recent);
     the victim is the tail.  List ends are the sentinel entry [nil],
     so relinking an entry on a hit allocates nothing.
   - LFU: a doubly-linked list of frequency buckets in ascending
     hit-count order, each bucket an intrusive recency list of the
     entries in that class; the victim is the least-recent entry of the
     lowest bucket (classic LFU with LRU tie-break).  All operations are
     O(1) because a hit moves an entry to the adjacent class.  The
     bucket list ends in the sentinel bucket [nil_bucket], and emptied
     buckets go on a free list for the next new classes, so a hit
     allocates nothing.
   - TTL-hybrid: a lazy-deletion binary min-heap on [expires_at]; the
     victim is the entry closest to (or past) expiry.  Entries removed
     for other reasons are only marked dead and skipped when popped;
     the heap compacts when dead nodes dominate. *)

type policy = Lru | Lfu | Ttl_hybrid

let policy_label = function
  | Lru -> "lru"
  | Lfu -> "lfu"
  | Ttl_hybrid -> "ttl-hybrid"

let policy_of_string s =
  match String.lowercase_ascii s with
  | "lru" -> Some Lru
  | "lfu" -> Some Lfu
  | "ttl-hybrid" | "ttl_hybrid" | "ttl" -> Some Ttl_hybrid
  | _ -> None

(* How the entry got here.  Verified and pushed mappings came over an
   authenticated exchange (nonce-checked map-reply, PCE/NERD push);
   gleaned ones were copied off a data packet anybody could have
   forged, so they are the cache-pollution vector an EID-scan flood
   exploits — the admission cap bounds how much of the cache they can
   take. *)
type provenance = Verified | Gleaned | Pushed

let provenance_label = function
  | Verified -> "verified"
  | Gleaned -> "gleaned"
  | Pushed -> "pushed"

type entry = {
  mapping : Mapping.t;
  expires_at : float;
  mutable provenance : provenance;
  (* Recency links: the global list under LRU / TTL-hybrid, the
     within-bucket list under LFU; [nil] ends a list. *)
  mutable prev : entry;
  mutable next : entry;
  (* LFU state: hit-count class and the bucket currently holding the
     entry ([nil_bucket] when none). *)
  mutable freq : int;
  mutable bucket : bucket;
  (* TTL-hybrid state: lazy-deletion marker for the expiry heap. *)
  mutable dead : bool;
}

and bucket = {
  mutable b_freq : int;
  mutable b_head : entry; (* most recent in this class; [nil] when empty *)
  mutable b_tail : entry; (* least recent in this class; [nil] when empty *)
  mutable b_prev : bucket; (* next lower frequency class, or [nil_bucket] *)
  mutable b_next : bucket; (* next higher frequency class, or [nil_bucket] *)
}

(* A /len prefix packs into [network lsl 6 lor len]: 32 + 6 bits, well
   inside an OCaml int, and distinct prefixes give distinct keys. *)
let prefix_key p =
  (Ipv4.addr_to_int (Ipv4.prefix_network p) lsl 6) lor Ipv4.prefix_length p

let nil_mapping =
  Mapping.create
    ~eid_prefix:(Ipv4.prefix (Ipv4.addr_of_int 0) 0)
    ~rlocs:[ Mapping.rloc (Ipv4.addr_of_int 0) ]
    ~ttl:1.0

(* The sentinel entry: the end of every recency list and the filler of
   the index's and the heap's empty cells; and the sentinel bucket, the
   end of the bucket list.  Neither is cached, and their own links are
   never written. *)
let rec nil =
  { mapping = nil_mapping;
    expires_at = 0.0;
    provenance = Verified;
    prev = nil;
    next = nil;
    freq = 0;
    bucket = nil_bucket;
    dead = true }

and nil_bucket =
  { b_freq = 0; b_head = nil; b_tail = nil; b_prev = nil_bucket;
    b_next = nil_bucket }

type heap = { mutable h_arr : entry array; mutable h_len : int }

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable expirations : int;
  mutable invalidations : int;
  mutable glean_rejections : int;
}

type t = {
  capacity : int;
  policy : policy;
  glean_cap : int option;
  mutable gleaned_live : int;
  table : entry Prefix_table.t;
  index : entry Int_table.t; (* packed prefix -> entry, exact match *)
  mutable head : entry; (* most recently used (LRU / TTL-hybrid) *)
  mutable tail : entry; (* least recently used (LRU / TTL-hybrid) *)
  mutable lfu_min : bucket; (* lowest frequency class (LFU) *)
  mutable lfu_spare : bucket; (* emptied buckets, chained by [b_next] (LFU) *)
  heap : heap; (* expiry min-heap (TTL-hybrid) *)
  stats : stats;
  mutable evict_hook : (Mapping.t -> unit) option;
  mutable expire_hook : (Mapping.t -> unit) option;
  mutable reject_hook : (Mapping.t -> unit) option;
}

let create ?(policy = Lru) ?(capacity = 10_000) ?glean_cap () =
  if capacity <= 0 then invalid_arg "Map_cache.create: capacity must be positive";
  (match glean_cap with
  | Some c when c < 0 -> invalid_arg "Map_cache.create: negative glean_cap"
  | Some _ | None -> ());
  { capacity; policy; glean_cap; gleaned_live = 0;
    table = Prefix_table.create ();
    index = Int_table.create ~dummy:nil ();
    head = nil; tail = nil; lfu_min = nil_bucket; lfu_spare = nil_bucket;
    heap = { h_arr = [||]; h_len = 0 };
    stats =
      { hits = 0; misses = 0; insertions = 0; evictions = 0; expirations = 0;
        invalidations = 0; glean_rejections = 0 };
    evict_hook = None; expire_hook = None; reject_hook = None }

let set_evict_hook t hook = t.evict_hook <- hook
let set_expire_hook t hook = t.expire_hook <- hook
let set_reject_hook t hook = t.reject_hook <- hook

let stats t = t.stats
let length t = Prefix_table.length t.table
let capacity t = t.capacity
let policy t = t.policy
let glean_cap t = t.glean_cap
let gleaned t = t.gleaned_live

(* ---- global recency list (LRU / TTL-hybrid) ---- *)

let unlink t e =
  if e.prev != nil then e.prev.next <- e.next else t.head <- e.next;
  if e.next != nil then e.next.prev <- e.prev else t.tail <- e.prev;
  e.prev <- nil;
  e.next <- nil

let push_front t e =
  e.prev <- nil;
  e.next <- t.head;
  if t.head != nil then t.head.prev <- e else t.tail <- e;
  t.head <- e

(* ---- LFU frequency buckets ---- *)

let bucket_unlink t e =
  let b = e.bucket in
  if b != nil_bucket then begin
    if e.prev != nil then e.prev.next <- e.next else b.b_head <- e.next;
    if e.next != nil then e.next.prev <- e.prev else b.b_tail <- e.prev;
    e.prev <- nil;
    e.next <- nil;
    e.bucket <- nil_bucket;
    if b.b_head == nil then begin
      if b.b_prev != nil_bucket then b.b_prev.b_next <- b.b_next
      else t.lfu_min <- b.b_next;
      if b.b_next != nil_bucket then b.b_next.b_prev <- b.b_prev;
      b.b_next <- t.lfu_spare;
      t.lfu_spare <- b
    end
  end

let bucket_push_entry b e =
  e.prev <- nil;
  e.next <- b.b_head;
  if b.b_head != nil then b.b_head.prev <- e else b.b_tail <- e;
  b.b_head <- e;
  e.bucket <- b

(* The bucket for class [f] sitting right after [anchor] (or at the list
   head when [anchor] is [nil_bucket]), taken from the free list or
   created if missing.  Callers must pass an anchor with a strictly
   lower class whose successor has class [>= f], so the ascending order
   is preserved. *)
let bucket_after t anchor f =
  let next = if anchor == nil_bucket then t.lfu_min else anchor.b_next in
  if next != nil_bucket && next.b_freq = f then next
  else begin
    let nb =
      if t.lfu_spare == nil_bucket then
        { b_freq = f; b_head = nil; b_tail = nil; b_prev = anchor;
          b_next = next }
      else begin
        let nb = t.lfu_spare in
        t.lfu_spare <- nb.b_next;
        nb.b_freq <- f;
        nb.b_prev <- anchor;
        nb.b_next <- next;
        nb
      end
    in
    if next != nil_bucket then next.b_prev <- nb;
    if anchor != nil_bucket then anchor.b_next <- nb else t.lfu_min <- nb;
    nb
  end

let lfu_insert t e =
  let rec find prev next =
    if next != nil_bucket && next.b_freq < e.freq then find next next.b_next
    else prev
  in
  bucket_push_entry (bucket_after t (find nil_bucket t.lfu_min) e.freq) e

let lfu_promote t e =
  let b = e.bucket in
  if b != nil_bucket then begin
    (* If [e] is alone in its bucket, the bucket dies with the unlink
       and the next class anchors on its predecessor instead. *)
    let anchor = if e.prev == nil && e.next == nil then b.b_prev else b in
    bucket_unlink t e;
    e.freq <- e.freq + 1;
    bucket_push_entry (bucket_after t anchor e.freq) e
  end

(* ---- TTL-hybrid expiry heap ---- *)

let heap_swap h i j =
  let a = h.h_arr in
  let e = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- e

let heap_sift_down h i0 =
  let i = ref i0 in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let s = ref !i in
    if l < h.h_len && h.h_arr.(l).expires_at < h.h_arr.(!s).expires_at then
      s := l;
    if r < h.h_len && h.h_arr.(r).expires_at < h.h_arr.(!s).expires_at then
      s := r;
    if !s = !i then moving := false
    else begin
      heap_swap h !i !s;
      i := !s
    end
  done

let heap_push h e =
  let cap = Array.length h.h_arr in
  if h.h_len = cap then begin
    let arr = Array.make (Stdlib.max 8 (2 * cap)) nil in
    Array.blit h.h_arr 0 arr 0 h.h_len;
    h.h_arr <- arr
  end;
  h.h_arr.(h.h_len) <- e;
  let i = ref h.h_len in
  h.h_len <- h.h_len + 1;
  while
    !i > 0 && h.h_arr.((!i - 1) / 2).expires_at > h.h_arr.(!i).expires_at
  do
    heap_swap h !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let heap_pop h =
  let top = h.h_arr.(0) in
  h.h_len <- h.h_len - 1;
  h.h_arr.(0) <- h.h_arr.(h.h_len);
  h.h_arr.(h.h_len) <- nil;
  heap_sift_down h 0;
  top

(* The earliest-expiring live entry, or [nil] when none is left. *)
let rec heap_pop_live h =
  if h.h_len = 0 then nil
  else
    let e = heap_pop h in
    if e.dead then heap_pop_live h else e

(* Dead nodes accumulate when entries die without being popped (TTL
   reaps, invalidations, refreshes); rebuild once they dominate so the
   heap stays proportional to the live entry count. *)
let heap_compact h ~live =
  if h.h_len > (2 * live) + 8 then begin
    let n = ref 0 in
    for i = 0 to h.h_len - 1 do
      let e = h.h_arr.(i) in
      if not e.dead then begin
        h.h_arr.(!n) <- e;
        incr n
      end
    done;
    for i = !n to h.h_len - 1 do
      h.h_arr.(i) <- nil
    done;
    h.h_len <- !n;
    for i = (h.h_len / 2) - 1 downto 0 do
      heap_sift_down h i
    done
  end

(* ---- shared entry lifecycle ---- *)

let drop_entry t e =
  (match t.policy with
  | Lfu -> bucket_unlink t e
  | Lru | Ttl_hybrid -> unlink t e);
  if e.provenance = Gleaned then t.gleaned_live <- t.gleaned_live - 1;
  e.dead <- true;
  Prefix_table.remove t.table e.mapping.Mapping.eid_prefix;
  Int_table.remove t.index (prefix_key e.mapping.Mapping.eid_prefix);
  if t.policy = Ttl_hybrid then heap_compact t.heap ~live:(length t)

(* Explicit removal: count as an invalidation and tell the hook, so the
   SMR invalidation path is visible to the observability layer. *)
let invalidate t e =
  drop_entry t e;
  t.stats.invalidations <- t.stats.invalidations + 1;
  match t.evict_hook with Some hook -> hook e.mapping | None -> ()

let remove t prefix =
  match Int_table.find t.index (prefix_key prefix) with
  | Some e -> invalidate t e
  | None -> ()

let remove_covered t prefix =
  (* Only the covered subtree is walked: under invalidation churn with
     millions of entries a whole-table fold per call is quadratic. *)
  let victims =
    Prefix_table.fold_covered t.table prefix ~init:[] ~f:(fun _ e acc ->
        e :: acc)
  in
  List.iter (invalidate t) victims;
  List.length victims

let clear t =
  Prefix_table.clear t.table;
  Int_table.clear t.index;
  t.head <- nil;
  t.tail <- nil;
  t.lfu_min <- nil_bucket;
  Array.fill t.heap.h_arr 0 (Array.length t.heap.h_arr) nil;
  t.heap.h_len <- 0;
  t.gleaned_live <- 0;
  t.stats.hits <- 0;
  t.stats.misses <- 0;
  t.stats.insertions <- 0;
  t.stats.evictions <- 0;
  t.stats.expirations <- 0;
  t.stats.invalidations <- 0;
  t.stats.glean_rejections <- 0

(* Victim choice when the cache is full, per policy.  A TTL-hybrid
   victim has already been popped off the heap; [drop_entry]'s dead
   marking is then a no-op as far as the heap is concerned.  [nil] when
   the cache is empty. *)
let victim t =
  match t.policy with
  | Lru -> t.tail
  | Lfu -> t.lfu_min.b_tail
  | Ttl_hybrid -> heap_pop_live t.heap

(* Capacity pressure drops one entry; the books must say why it died.
   A victim whose TTL already lapsed was going to be reaped by the next
   lookup anyway — counting it as an eviction (and telling the evict
   hook) would overstate capacity pressure and skew miss-curve stats,
   so attribution checks [expires_at] against [now] first. *)
let evict_one t ~now =
  let e = victim t in
  if e != nil then begin
    drop_entry t e;
    if e.expires_at <= now then begin
      t.stats.expirations <- t.stats.expirations + 1;
      match t.expire_hook with Some hook -> hook e.mapping | None -> ()
    end
    else begin
      t.stats.evictions <- t.stats.evictions + 1;
      match t.evict_hook with Some hook -> hook e.mapping | None -> ()
    end
  end

let insert t ~now ?(provenance = Verified) mapping =
  (* A refresh replaces the old entry silently: it is neither an
     invalidation (nothing was lost) nor a new insertion, which keeps
     the balance insertions = live + evictions + expirations +
     invalidations exact.  Under LFU the refreshed entry keeps its
     hit-count class — it is the same logical cache line.

     Provenance on refresh only ever upgrades: a gleaned copy of a
     prefix that already has a verified/pushed entry is ignored (a
     forged data packet must not be able to re-stamp a verified line),
     while a verified reply refreshing a gleaned entry takes over. *)
  let key = prefix_key mapping.Mapping.eid_prefix in
  let existing = Int_table.find t.index key in
  match (existing, provenance) with
  | Some e, Gleaned when e.provenance <> Gleaned -> ()
  | _ ->
      (* Admission policy: a brand-new gleaned entry is refused once the
         gleaned population hits the cap (a refresh of an existing
         gleaned line never changes the population). *)
      let new_glean = existing = None && provenance = Gleaned in
      if
        new_glean
        && match t.glean_cap with Some c -> t.gleaned_live >= c | None -> false
      then begin
        t.stats.glean_rejections <- t.stats.glean_rejections + 1;
        match t.reject_hook with Some hook -> hook mapping | None -> ()
      end
      else begin
        let refreshed_freq =
          match existing with
          | Some e ->
              drop_entry t e;
              Some e.freq
          | None -> None
        in
        if length t >= t.capacity then evict_one t ~now;
        let e =
          { mapping; expires_at = now +. mapping.Mapping.ttl; provenance;
            prev = nil; next = nil;
            freq = (match refreshed_freq with Some f -> f | None -> 1);
            bucket = nil_bucket; dead = false }
        in
        if provenance = Gleaned then t.gleaned_live <- t.gleaned_live + 1;
        Prefix_table.add t.table mapping.Mapping.eid_prefix e;
        Int_table.add t.index key e;
        (match t.policy with
        | Lru -> push_front t e
        | Lfu -> lfu_insert t e
        | Ttl_hybrid ->
            push_front t e;
            heap_push t.heap e);
        if refreshed_freq = None then
          t.stats.insertions <- t.stats.insertions + 1
      end

(* Longest-prefix match skipping (and reaping) expired entries.  A live
   hit returns the option the trie stored at insertion, so the hit path
   allocates nothing. *)
let rec live_lookup t ~now addr =
  match Prefix_table.lookup_value t.table addr with
  | None -> None
  | Some e as hit ->
      if e.expires_at > now then hit
      else begin
        drop_entry t e;
        t.stats.expirations <- t.stats.expirations + 1;
        (match t.expire_hook with
        | Some hook -> hook e.mapping
        | None -> ());
        live_lookup t ~now addr
      end

let lookup t ~now addr =
  match live_lookup t ~now addr with
  | Some e ->
      t.stats.hits <- t.stats.hits + 1;
      (match t.policy with
      | Lru | Ttl_hybrid ->
          unlink t e;
          push_front t e
      | Lfu -> lfu_promote t e);
      Some e.mapping
  | None ->
      t.stats.misses <- t.stats.misses + 1;
      None

let contains t ~now addr = live_lookup t ~now addr <> None

let provenance_of t prefix =
  match Int_table.find t.index (prefix_key prefix) with
  | Some e when not e.dead -> Some e.provenance
  | Some _ | None -> None

let hit_ratio t =
  let total = t.stats.hits + t.stats.misses in
  if total = 0 then 0.0 else float_of_int t.stats.hits /. float_of_int total
