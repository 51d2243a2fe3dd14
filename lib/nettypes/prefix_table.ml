(* Flat binary trie over address bits, most significant bit first.

   Node [n]'s children are [zero.(n)] and [one.(n)], where 0 means "no
   child" (node 0 is the root, which is nobody's child), and
   [values.(n)] holds the binding of the prefix that ends at [n].  The
   binding is stored pre-boxed as [Some v], so the lookups hand it back
   without allocating.

   Every leaf carries a binding: [remove] prunes the valueless leaves it
   leaves behind, back up the path, onto a free list threaded through
   [zero], and [add] takes nodes from that list before growing the
   arrays.  The node count therefore follows the live bindings, not
   every prefix the table has ever held. *)

type 'a t = {
  mutable zero : int array;
  mutable one : int array;
  mutable values : 'a option array;
  mutable used : int; (* nodes [0, used) have been handed out at least once *)
  mutable free : int; (* head of the free-node list; 0 when empty *)
  mutable nodes : int; (* nodes in the trie, root included *)
  mutable size : int;
}

let initial_nodes = 16

let create () =
  { zero = Array.make initial_nodes 0;
    one = Array.make initial_nodes 0;
    values = Array.make initial_nodes None;
    used = 1;
    free = 0;
    nodes = 1;
    size = 0 }

(* Bit [depth] of an address counted from the most significant (depth 0
   is bit 31). *)
let bit a depth = a lsr (31 - depth) land 1

let child t n b =
  if b = 0 then Array.unsafe_get t.zero n else Array.unsafe_get t.one n

let set_child t n b c = if b = 0 then t.zero.(n) <- c else t.one.(n) <- c

let grow t =
  let cap = Array.length t.zero in
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.zero <- extend t.zero 0;
  t.one <- extend t.one 0;
  t.values <- extend t.values None

(* A fresh node with no children and no binding. *)
let alloc t =
  let n =
    if t.free <> 0 then begin
      let n = t.free in
      t.free <- t.zero.(n);
      t.zero.(n) <- 0;
      n
    end
    else begin
      if t.used = Array.length t.zero then grow t;
      let n = t.used in
      t.used <- n + 1;
      n
    end
  in
  t.nodes <- t.nodes + 1;
  n

let release t n =
  t.zero.(n) <- t.free;
  t.free <- n;
  t.nodes <- t.nodes - 1

let add t prefix v =
  let a = Ipv4.addr_to_int (Ipv4.prefix_network prefix) in
  let n = ref 0 in
  for depth = 0 to Ipv4.prefix_length prefix - 1 do
    let b = bit a depth in
    let c = child t !n b in
    if c <> 0 then n := c
    else begin
      let c = alloc t in
      set_child t !n b c;
      n := c
    end
  done;
  if Option.is_none t.values.(!n) then t.size <- t.size + 1;
  t.values.(!n) <- Some v

let rec remove_at t n depth a len =
  if depth = len then begin
    if Option.is_some t.values.(n) then begin
      t.values.(n) <- None;
      t.size <- t.size - 1
    end
  end
  else
    let b = bit a depth in
    let c = child t n b in
    if c <> 0 then begin
      remove_at t c (depth + 1) a len;
      if t.zero.(c) = 0 && t.one.(c) = 0 && Option.is_none t.values.(c) then begin
        set_child t n b 0;
        release t c
      end
    end

let remove t prefix =
  remove_at t 0 0
    (Ipv4.addr_to_int (Ipv4.prefix_network prefix))
    (Ipv4.prefix_length prefix)

(* The node the prefix [a]/[len] ends on, or -1 when its path is
   absent. *)
let rec find_node t n depth a len =
  if depth = len then n
  else
    let c = child t n (bit a depth) in
    if c = 0 then -1 else find_node t c (depth + 1) a len

let find_exact t prefix =
  let n =
    find_node t 0 0
      (Ipv4.addr_to_int (Ipv4.prefix_network prefix))
      (Ipv4.prefix_length prefix)
  in
  if n < 0 then None else t.values.(n)

(* The deepest bound node on the path of [a], at most [limit] bits down,
   packed with its depth as [node lsl 6 lor depth]; -1 when no prefix on
   the path is bound.  One int result keeps the walk allocation-free. *)
let deepest t a limit =
  let zero = t.zero and one = t.one and values = t.values in
  let best = ref (if Option.is_some (Array.unsafe_get values 0) then 0 else -1) in
  let n = ref 0 and depth = ref 0 in
  while !depth < limit do
    let c =
      if bit a !depth = 0 then Array.unsafe_get zero !n
      else Array.unsafe_get one !n
    in
    if c = 0 then depth := limit
    else begin
      n := c;
      incr depth;
      if Option.is_some (Array.unsafe_get values c) then
        best := (c lsl 6) lor !depth
    end
  done;
  !best

let lookup_value t addr =
  let r = deepest t (Ipv4.addr_to_int addr) 32 in
  if r < 0 then None else Array.unsafe_get t.values (r lsr 6)

let with_prefix t a r =
  if r < 0 then None
  else
    match t.values.(r lsr 6) with
    | Some v -> Some (Ipv4.prefix a (r land 63), v)
    | None -> None

let lookup t addr = with_prefix t addr (deepest t (Ipv4.addr_to_int addr) 32)

let covering t prefix =
  let network = Ipv4.prefix_network prefix in
  with_prefix t network
    (deepest t (Ipv4.addr_to_int network) (Ipv4.prefix_length prefix))

let length t = t.size
let is_empty t = t.size = 0
let node_count t = t.nodes

(* Depth-first from node [n] (holding the [depth]-bit prefix [bits]),
   zero branch before one branch, so bindings come out in ascending
   (network, length) order. *)
let rec walk t n depth bits f acc =
  let acc =
    match t.values.(n) with
    | Some v ->
        let network = Ipv4.addr_of_int (bits lsl (32 - depth) land 0xFFFFFFFF) in
        f (Ipv4.prefix network depth) v acc
    | None -> acc
  in
  let z = t.zero.(n) in
  let acc = if z <> 0 then walk t z (depth + 1) (bits lsl 1) f acc else acc in
  let o = t.one.(n) in
  if o <> 0 then walk t o (depth + 1) ((bits lsl 1) lor 1) f acc else acc

let fold t ~init ~f = walk t 0 0 0 f init

let fold_covered t prefix ~init ~f =
  (* Start the walk at the node the prefix ends on: only the covered
     subtree is visited, so the cost is proportional to the bindings
     under the prefix, not the whole table. *)
  let a = Ipv4.addr_to_int (Ipv4.prefix_network prefix) in
  let len = Ipv4.prefix_length prefix in
  let n = find_node t 0 0 a len in
  if n < 0 then init else walk t n len (a lsr (32 - len)) f init

let iter t ~f = fold t ~init:() ~f:(fun p v () -> f p v)
let to_list t = List.rev (fold t ~init:[] ~f:(fun p v acc -> (p, v) :: acc))

let clear t =
  t.zero <- Array.make initial_nodes 0;
  t.one <- Array.make initial_nodes 0;
  t.values <- Array.make initial_nodes None;
  t.used <- 1;
  t.free <- 0;
  t.nodes <- 1;
  t.size <- 0
