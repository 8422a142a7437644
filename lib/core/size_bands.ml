module Binary_tree = Tsj_tree.Binary_tree

(* One size's inverted list: the two-layer index of its δ-partitioned
   trees plus the overflow list of its sub-δ trees (newest first). *)
type band = { index : Two_layer_index.t; mutable small : int list }

type t = {
  tau : int;
  mode : Two_layer_index.mode;
  delta : int;
  bands : (int, band) Hashtbl.t; (* size -> band *)
}

let create ?(mode = Two_layer_index.Two_sided) ~tau () =
  if tau < 0 then invalid_arg "Size_bands.create: negative threshold";
  { tau; mode; delta = (2 * tau) + 1; bands = Hashtbl.create 64 }

let band_for t size =
  match Hashtbl.find_opt t.bands size with
  | Some b -> b
  | None ->
    let b = { index = Two_layer_index.create ~mode:t.mode ~tau:t.tau (); small = [] } in
    Hashtbl.add t.bands size b;
    b

let insert ?(partition = Partition.partition) ?also t id btree =
  let size = btree.Binary_tree.size in
  let targets =
    band_for t size :: (match also with Some o -> [ band_for o size ] | None -> [])
  in
  if size < t.delta then begin
    List.iter (fun b -> b.small <- id :: b.small) targets;
    0
  end
  else begin
    let subgraphs = Subgraph.of_partition ~tree_id:id (partition btree ~delta:t.delta) in
    Array.iter
      (fun s -> List.iter (fun b -> Two_layer_index.insert b.index s) targets)
      subgraphs;
    Array.length subgraphs
  end

type probe = { candidates : int list; probed : int; matched : int; small_hits : int }

(* A tree is a candidate once, at its first discovery: through its
   band's overflow list, or through the first of its subgraphs that
   matches the probed tree at some node. *)
let probe ?cursor t ~lo ~hi btree =
  let size = btree.Binary_tree.size in
  (* One cursor serves every size of the window (the twig keys depend
     only on the probed tree); built lazily so a window with no indexed
     subgraphs costs only the band lookups. *)
  let cursor =
    match cursor with Some c -> Lazy.from_val c | None -> lazy (Two_layer_index.cursor btree)
  in
  let seen = Hashtbl.create 16 in
  let found = ref [] in
  let probed = ref 0 and matched = ref 0 and small_hits = ref 0 in
  let add tj =
    Hashtbl.add seen tj ();
    found := tj :: !found
  in
  for other = max 1 lo to hi do
    match Hashtbl.find_opt t.bands other with
    | None -> ()
    | Some band ->
      List.iter
        (fun tj ->
          if not (Hashtbl.mem seen tj) then begin
            incr small_hits;
            add tj
          end)
        band.small;
      if Two_layer_index.n_subgraphs band.index > 0 then begin
        let cursor = Lazy.force cursor in
        for v = 0 to size - 1 do
          Two_layer_index.probe_cursor band.index cursor v (fun s ->
              incr probed;
              let tj = s.Subgraph.tree_id in
              if (not (Hashtbl.mem seen tj)) && Subgraph.matches s btree v then begin
                incr matched;
                add tj
              end)
        done
      end
  done;
  {
    candidates = List.rev !found;
    probed = !probed;
    matched = !matched;
    small_hits = !small_hits;
  }

(* The view is the bands themselves: what makes concurrent probing safe
   is that no insert runs meanwhile, and the abstract type keeps inserts
   out of the probing code. *)
type frozen = t

let freeze t = t

let probe_frozen = probe
