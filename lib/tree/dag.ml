(* Hash-consed subtree store: every distinct subtree of every interned
   tree gets exactly one immutable node, found by structural hashing
   with collision-checked equality.  Because children are interned
   before their parent, two subtrees are structurally equal iff their
   node ids are equal, so the shallow check (same label, same child
   ids) is exact — no deep comparison ever runs after the leaves.

   Node ids are drawn from a process-wide atomic counter, never from a
   per-store one: the TED kernels read equal ids as equal subtrees,
   and a pair may come from two stores (a query against a collection),
   so ids from different stores must never alias.

   Like [Label], the intern table is not synchronized: call [intern]
   only from one domain at a time (joins intern sequentially before
   fanning out; the parallel phases only read the resulting nodes). *)

type node = {
  id : int;          (* globally unique across all stores *)
  label : Label.t;
  children : node array;
  size : int;        (* nodes in the subtree *)
  hash : int;        (* structural hash, already masked *)
  tree : Tree.t;     (* shared view: equal subtrees are [==] *)
}

type t = {
  table : (int, node list) Hashtbl.t; (* hash -> bucket *)
  mask : int;
  mutable distinct : int; (* nodes created by this store *)
  mutable total : int;    (* subtree intern requests (sum of tree sizes) *)
}

let next_id = Atomic.make 0

let create ?hash_bits () =
  let mask =
    match hash_bits with
    | None -> max_int
    | Some b ->
      if b < 1 || b > 62 then invalid_arg "Dag.create: hash_bits must be in 1..62";
      (1 lsl b) - 1
  in
  { table = Hashtbl.create 1024; mask; distinct = 0; total = 0 }

let hash_parts t label children =
  let h =
    Array.fold_left (fun acc c -> (acc * 1000003) + c.id + 1) (label + 17) children
  in
  h land max_int land t.mask

let same_node label children n =
  n.label = label
  &&
  let nc = n.children in
  let len = Array.length children in
  Array.length nc = len
  &&
  let i = ref 0 in
  while
    !i < len && (Array.unsafe_get nc !i).id = (Array.unsafe_get children !i).id
  do
    incr i
  done;
  !i = len

(* The interning pass walks every node of every added tree, so this
   lookup is the hot path: scan the bucket with a bare loop (no closure,
   no option) before falling back to node construction. *)
let rec find_in_bucket label children = function
  | [] -> None
  | n :: rest ->
    if same_node label children n then Some n
    else find_in_bucket label children rest

let intern_node t label (children : node array) =
  t.total <- t.total + 1;
  let h = hash_parts t label children in
  let bucket = try Hashtbl.find t.table h with Not_found -> [] in
  match find_in_bucket label children bucket with
  | Some n -> n
  | None ->
    let size = Array.fold_left (fun acc c -> acc + c.size) 1 children in
    let tree =
      { Tree.label; children = Array.to_list (Array.map (fun c -> c.tree) children) }
    in
    let n =
      { id = Atomic.fetch_and_add next_id 1; label; children; size; hash = h; tree }
    in
    Hashtbl.replace t.table h (n :: bucket);
    t.distinct <- t.distinct + 1;
    n

let rec intern t (tr : Tree.t) =
  let children = Array.of_list (List.map (intern t) tr.children) in
  intern_node t tr.label children

let rec find t (tr : Tree.t) =
  match
    List.fold_left
      (fun acc c ->
        match acc with
        | None -> None
        | Some kids -> (
          match find t c with Some n -> Some (n :: kids) | None -> None))
      (Some []) tr.children
  with
  | None -> None
  | Some rev_kids ->
    let children = Array.of_list (List.rev rev_kids) in
    let h = hash_parts t tr.label children in
    let bucket = Option.value (Hashtbl.find_opt t.table h) ~default:[] in
    List.find_opt (same_node tr.label children) bucket

let tree n = n.tree

let id n = n.id

let size n = n.size

let n_nodes t = t.distinct

let interned t = t.total

let sharing t = if t.distinct = 0 then 1.0 else float_of_int t.total /. float_of_int t.distinct
