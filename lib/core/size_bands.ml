module Binary_tree = Tsj_tree.Binary_tree

type t = {
  delta : int;
  index : Two_layer_index.t; (* the subgraphs of the δ-partitioned trees *)
  small : (int, int list) Hashtbl.t;
      (* size -> its band: the sub-δ trees of that size, which have no
         subgraphs to index (overflow list, newest first) *)
}

let create ?(mode = Two_layer_index.Two_sided) ~tau () =
  if tau < 0 then invalid_arg "Size_bands.create: negative threshold";
  {
    delta = (2 * tau) + 1;
    index = Two_layer_index.create ~mode ~tau ();
    small = Hashtbl.create 16;
  }

let overflow t size = Option.value (Hashtbl.find_opt t.small size) ~default:[]

let insert ?(partition = Partition.partition) t id btree =
  let size = btree.Binary_tree.size in
  if size < t.delta then begin
    Hashtbl.replace t.small size (id :: overflow t size);
    0
  end
  else begin
    let subgraphs = Subgraph.of_partition ~tree_id:id (partition btree ~delta:t.delta) in
    Array.iter (Two_layer_index.insert t.index) subgraphs;
    Array.length subgraphs
  end

type probe = { candidates : int list; probed : int; matched : int; small_hits : int }

(* A tree is a candidate once, at its first discovery: through its
   size's overflow list, or through the first of its subgraphs that
   matches the probed tree at some node. *)
let probe t ~lo ~hi btree =
  let seen = Hashtbl.create 16 in
  let found = ref [] in
  let probed = ref 0 and matched = ref 0 and small_hits = ref 0 in
  let add tj =
    Hashtbl.add seen tj ();
    found := tj :: !found
  in
  for size = max 1 lo to hi do
    List.iter
      (fun tj ->
        if not (Hashtbl.mem seen tj) then begin
          incr small_hits;
          add tj
        end)
      (overflow t size)
  done;
  if Two_layer_index.n_subgraphs t.index > 0 then
    Two_layer_index.probe t.index (Two_layer_index.cursor btree) ~lo ~hi (fun s v ->
        incr probed;
        let tj = s.Subgraph.tree_id in
        if (not (Hashtbl.mem seen tj)) && Subgraph.matches s btree v then begin
          incr matched;
          add tj
        end);
  {
    candidates = List.rev !found;
    probed = !probed;
    matched = !matched;
    small_hits = !small_hits;
  }
