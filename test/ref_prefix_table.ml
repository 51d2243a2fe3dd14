(* Reference longest-prefix-match table for the differential tests: the
   option-boxed binary trie that [Nettypes.Prefix_table] was before it
   became a flat array trie.  Slow (a record and option boxes per node,
   a tuple per matching level) but obviously correct; the flat trie
   must agree with it on every query. *)

open Nettypes

type 'a node = {
  mutable value : 'a option;
  mutable zero : 'a node option;
  mutable one : 'a node option;
}

type 'a t = { mutable root : 'a node; mutable size : int }

let fresh_node () = { value = None; zero = None; one = None }
let create () = { root = fresh_node (); size = 0 }

let bit_of addr i =
  (* Bit [i] counted from the most significant (i = 0 is bit 31). *)
  Ipv4.addr_to_int addr lsr (31 - i) land 1

let add t prefix v =
  let network = Ipv4.prefix_network prefix in
  let len = Ipv4.prefix_length prefix in
  let rec descend node depth =
    if depth = len then begin
      if node.value = None then t.size <- t.size + 1;
      node.value <- Some v
    end
    else begin
      let child =
        if bit_of network depth = 0 then (
          match node.zero with
          | Some c -> c
          | None ->
              let c = fresh_node () in
              node.zero <- Some c;
              c)
        else
          match node.one with
          | Some c -> c
          | None ->
              let c = fresh_node () in
              node.one <- Some c;
              c
      in
      descend child (depth + 1)
    end
  in
  descend t.root 0

let remove t prefix =
  let network = Ipv4.prefix_network prefix in
  let len = Ipv4.prefix_length prefix in
  let rec descend node depth =
    if depth = len then begin
      if node.value <> None then t.size <- t.size - 1;
      node.value <- None
    end
    else
      let child = if bit_of network depth = 0 then node.zero else node.one in
      match child with None -> () | Some c -> descend c (depth + 1)
  in
  descend t.root 0

let find_exact t prefix =
  let network = Ipv4.prefix_network prefix in
  let len = Ipv4.prefix_length prefix in
  let rec descend node depth =
    if depth = len then node.value
    else
      let child = if bit_of network depth = 0 then node.zero else node.one in
      match child with None -> None | Some c -> descend c (depth + 1)
  in
  descend t.root 0

let lookup t addr =
  let rec descend node depth best =
    let best =
      match node.value with
      | Some v -> Some (Ipv4.prefix addr depth, v)
      | None -> best
    in
    if depth = 32 then best
    else
      let child = if bit_of addr depth = 0 then node.zero else node.one in
      match child with None -> best | Some c -> descend c (depth + 1) best
  in
  descend t.root 0 None

let lookup_value t addr = Option.map snd (lookup t addr)

let covering t prefix =
  let network = Ipv4.prefix_network prefix in
  let len = Ipv4.prefix_length prefix in
  let rec descend node depth best =
    let best =
      match node.value with
      | Some v -> Some (Ipv4.prefix network depth, v)
      | None -> best
    in
    if depth = len then best
    else
      let child = if bit_of network depth = 0 then node.zero else node.one in
      match child with None -> best | Some c -> descend c (depth + 1) best
  in
  descend t.root 0 None

let length t = t.size
let is_empty t = t.size = 0

let fold t ~init ~f =
  (* Depth-first, zero branch before one branch, so bindings come out in
     ascending (network, length) order. *)
  let rec walk node depth bits acc =
    let acc =
      match node.value with
      | Some v ->
          let network = Ipv4.addr_of_int (bits lsl (32 - depth) land 0xFFFFFFFF) in
          f (Ipv4.prefix network depth) v acc
      | None -> acc
    in
    let acc =
      match node.zero with
      | Some c -> walk c (depth + 1) (bits lsl 1) acc
      | None -> acc
    in
    match node.one with
    | Some c -> walk c (depth + 1) ((bits lsl 1) lor 1) acc
    | None -> acc
  in
  walk t.root 0 0 init

let fold_covered t prefix ~init ~f =
  let network = Ipv4.prefix_network prefix in
  let len = Ipv4.prefix_length prefix in
  (* Same walk as [fold], but started at the node the prefix ends on:
     only the covered subtree is visited, so the cost is proportional
     to the bindings under the prefix, not the whole table. *)
  let rec walk node depth bits acc =
    let acc =
      match node.value with
      | Some v ->
          let network = Ipv4.addr_of_int (bits lsl (32 - depth) land 0xFFFFFFFF) in
          f (Ipv4.prefix network depth) v acc
      | None -> acc
    in
    let acc =
      match node.zero with
      | Some c -> walk c (depth + 1) (bits lsl 1) acc
      | None -> acc
    in
    match node.one with
    | Some c -> walk c (depth + 1) ((bits lsl 1) lor 1) acc
    | None -> acc
  in
  let rec descend node depth =
    if depth = len then
      walk node len (Ipv4.addr_to_int network lsr (32 - len)) init
    else
      let child = if bit_of network depth = 0 then node.zero else node.one in
      match child with None -> init | Some c -> descend c (depth + 1)
  in
  descend t.root 0

let iter t ~f = fold t ~init:() ~f:(fun p v () -> f p v)
let to_list t = List.rev (fold t ~init:[] ~f:(fun p v acc -> (p, v) :: acc))

let clear t =
  t.root <- fresh_node ();
  t.size <- 0
