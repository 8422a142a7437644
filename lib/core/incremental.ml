module Tree = Tsj_tree.Tree
module Binary_tree = Tsj_tree.Binary_tree
module Ted = Tsj_ted.Ted

type size_entry = { index : Two_layer_index.t; mutable small : int list }

type t = {
  tau : int;
  mode : Two_layer_index.mode;
  delta : int;
  mutable trees : Tree.t array;     (* growable; slot i = tree id i *)
  mutable preps : Ted.prep option array;
  mutable count : int;
  entries : (int, size_entry) Hashtbl.t;
  exact : (int, int list) Hashtbl.t;
      (* structural hash -> ids, newest first; collisions are resolved
         by [Tree.equal].  Serves tau = 0 point queries without probing
         or TED: distance 0 is exactly structural equality. *)
  dag : Tsj_tree.Dag.t option;
      (* hash-consing store shared by every inserted tree.  [add] and
         [insert] (the only mutators, and like every index mutation
         single-writer) intern there; the stored tree becomes the
         shared structural view, so repeated subtrees across the stream
         cost one node and the consed preps unlock the kernels'
         equal-subtree fast path and the cross-pair memo cache. *)
  mutable n_candidates : int;
  mutable n_indexed : int;
}

let create ?(mode = Two_layer_index.Two_sided) ?(consing = true) ~tau () =
  if tau < 0 then invalid_arg "Incremental.create: negative threshold";
  {
    tau;
    mode;
    delta = (2 * tau) + 1;
    trees = Array.make 16 (Tree.leaf Tsj_tree.Label.epsilon);
    preps = Array.make 16 None;
    count = 0;
    entries = Hashtbl.create 64;
    exact = Hashtbl.create 64;
    dag = (if consing then Some (Tsj_tree.Dag.create ()) else None);
    n_candidates = 0;
    n_indexed = 0;
  }

(* Deep structural hash: the default [Hashtbl.hash] caps the traversal
   at 10 meaningful nodes, which would lump most real trees into a
   handful of buckets. *)
let tree_key tree = Hashtbl.hash_param 1024 4096 tree

let tau t = t.tau

let n_trees t = t.count

let tree t id =
  if id < 0 || id >= t.count then invalid_arg "Incremental.tree: unknown id";
  t.trees.(id)

let stats t = (t.n_candidates, t.n_indexed)

let grow t =
  let cap = Array.length t.trees in
  if t.count = cap then begin
    let trees = Array.make (2 * cap) t.trees.(0) in
    Array.blit t.trees 0 trees 0 cap;
    t.trees <- trees;
    let preps = Array.make (2 * cap) None in
    Array.blit t.preps 0 preps 0 cap;
    t.preps <- preps
  end

(* Lazy fallback for trees whose consing failed (or consing off).  It
   must stay UNconsed: [prep] is called from inside [query]'s parallel
   verification chunks, and interning from a worker would race on the
   store — consed preps are built eagerly in [add] instead. *)
let prep t id =
  match t.preps.(id) with
  | Some p -> p
  | None ->
    let p = Ted.preprocess t.trees.(id) in
    t.preps.(id) <- Some p;
    p

let entry_for t size =
  match Hashtbl.find_opt t.entries size with
  | Some e -> e
  | None ->
    let e = { index = Two_layer_index.create ~mode:t.mode ~tau:t.tau (); small = [] } in
    Hashtbl.add t.entries size e;
    e

(* Candidate ids among the already-inserted trees for a probe of shape
   [btree], over the [size ± tau] band.  One cursor serves every size in
   the band (the twig keys depend only on the probed tree); it is built
   lazily so a probe whose whole band is empty — common in streams with
   disparate tree sizes — costs only the band scan.  A band entry left
   with no subgraphs and no small trees is skipped without probing. *)
let band_candidates t ~tau btree =
  let size = btree.Binary_tree.size in
  let cursor = lazy (Two_layer_index.cursor btree) in
  let checked = Hashtbl.create 16 in
  let pending = ref [] in
  for other_size = max 1 (size - tau) to size + tau do
    match Hashtbl.find_opt t.entries other_size with
    | None -> ()
    | Some entry ->
      List.iter
        (fun tj ->
          if not (Hashtbl.mem checked tj) then begin
            Hashtbl.add checked tj ();
            pending := tj :: !pending
          end)
        entry.small;
      if Two_layer_index.n_subgraphs entry.index > 0 then begin
        let cursor = Lazy.force cursor in
        for v = 0 to size - 1 do
          Two_layer_index.probe_cursor entry.index cursor v (fun s ->
              let tj = s.Subgraph.tree_id in
              if not (Hashtbl.mem checked tj) then
                if Subgraph.matches s btree v then begin
                  Hashtbl.add checked tj ();
                  pending := tj :: !pending
                end)
        done
      end
  done;
  !pending

let find_equal t q =
  Option.value (Hashtbl.find_opt t.exact (tree_key q)) ~default:[]
  |> List.filter (fun id -> Tree.equal t.trees.(id) q)
  |> function
  | [] -> None
  | ids -> Some (List.fold_left min max_int ids)

(* Store [tree] under the next id and index it.  With [verify] it
   first probes and verifies the earlier trees in its size band and
   returns its partners; without, it only indexes. *)
let insert_tree ~verify t tree =
  grow t;
  let id = t.count in
  let tree =
    (* Intern first so the stored slot is the shared structural view:
       a duplicate of an earlier tree is then physically equal to it,
       and the eager consed prep carries DAG ids for the kernels.
       Consing is an optimisation — if it raises on a pathological
       shape, fall back to storing the tree as given (lazy unconsed
       prep). *)
    match t.dag with
    | None -> tree
    | Some dag -> (
      match Ted.cons dag tree with
      | c ->
        t.preps.(id) <- Some (Ted.preprocess_consed c);
        Ted.consed_tree c
      | exception _ -> tree)
  in
  t.trees.(id) <- tree;
  t.count <- t.count + 1;
  (let key = tree_key tree in
   let ids = Option.value (Hashtbl.find_opt t.exact key) ~default:[] in
   Hashtbl.replace t.exact key (id :: ids));
  let btree = Binary_tree.of_tree tree in
  let size = btree.Binary_tree.size in
  (* 1. Probe: candidates among all previously inserted trees in the
     size band, in either direction; 2. verify them. *)
  let results =
    if not verify then []
    else begin
      let pending = band_candidates t ~tau:t.tau btree in
      let my_prep = prep t id in
      List.filter_map
        (fun tj ->
          t.n_candidates <- t.n_candidates + 1;
          let d = Ted.bounded_distance_prep my_prep (prep t tj) t.tau in
          if d <= t.tau then Some (tj, d) else None)
        pending
      |> List.sort compare
    end
  in
  (* 3. Index the new tree. *)
  let entry = entry_for t size in
  if size < t.delta then entry.small <- id :: entry.small
  else begin
    let part = Partition.partition btree ~delta:t.delta in
    Array.iter
      (fun s ->
        Two_layer_index.insert entry.index s;
        t.n_indexed <- t.n_indexed + 1)
      (Subgraph.of_partition ~tree_id:id part)
  end;
  results

let add t tree = insert_tree ~verify:true t tree

let insert t tree = ignore (insert_tree ~verify:false t tree)

(* --- non-mutating queries (the serving path) --- *)

type query_result = {
  hits : (int * int) list;
  degraded : bool;
  unverified : (int * int * int) list;
}

(* Verification runs in chunks so a per-request budget is polled at a
   bounded interval even when the chunk itself fans out over domains.
   Chunks must clear [Parallel.map]'s small-input cutoff (64) or the
   [domains] knob would silently do nothing. *)
let verify_chunk_size = 128

let query ?budget ?(domains = 1) ?tau t q =
  let tau = Option.value tau ~default:t.tau in
  if tau > t.tau then
    invalid_arg
      (Printf.sprintf "Incremental.query: tau = %d exceeds the index threshold %d" tau
         t.tau);
  if tau < 0 then invalid_arg "Incremental.query: negative threshold";
  if domains < 1 then invalid_arg "Incremental.query: domains must be >= 1";
  if tau = 0 then begin
    (* Point query: TED 0 is exactly structural equality, so the
       exact-match hash answers without probing, preprocessing or any
       distance computation — this is the hot read of the serving
       path. *)
    let hits =
      Option.value (Hashtbl.find_opt t.exact (tree_key q)) ~default:[]
      |> List.filter (fun id -> Tree.equal t.trees.(id) q)
      |> List.sort compare
      |> List.map (fun id -> (id, 0))
    in
    { hits; degraded = false; unverified = [] }
  end
  else begin
  let qb = Binary_tree.of_tree q in
  let cands = Array.of_list (List.sort compare (band_candidates t ~tau qb)) in
  let qprep = Ted.preprocess q in
  let n = Array.length cands in
  let hits = ref [] in
  let unverified = ref [] in
  let degraded = ref false in
  let live () =
    match budget with None -> true | Some b -> Tsj_join.Budget.live b
  in
  let chunk_from lo =
    let hi = min n (lo + verify_chunk_size) in
    let ds =
      Tsj_join.Parallel.map ~domains
        (fun tj -> Ted.bounded_distance_prep qprep (prep t tj) tau)
        (Array.sub cands lo (hi - lo))
    in
    Array.iteri
      (fun k d -> if d <= tau then hits := (cands.(lo + k), d) :: !hits)
      ds;
    hi
  in
  let rec go lo =
    if lo < n then
      if live () then go (chunk_from lo)
      else begin
        (* Over budget: the remaining candidates are reported with their
           bound sandwich instead of hanging on the exact kernel.  A
           candidate whose cheap lower bound already exceeds τ is
           discarded — it is provably not a result. *)
        degraded := true;
        let cq = Tsj_ted.Bounds.Compiled.of_tree q in
        for k = lo to n - 1 do
          let tj = cands.(k) in
          let other = Tsj_ted.Bounds.Compiled.of_tree t.trees.(tj) in
          let lower = Tsj_ted.Bounds.Compiled.best cq other in
          if lower <= tau then begin
            let upper = Tsj_ted.Bounds.Compiled.upper cq other in
            unverified := (tj, lower, upper) :: !unverified
          end
        done
      end
  in
  go 0;
  {
    hits =
      List.sort
        (fun (i1, d1) (i2, d2) -> if d1 <> d2 then compare d1 d2 else compare i1 i2)
        !hits;
    degraded = !degraded;
    unverified = List.sort compare !unverified;
  }
  end

let nearest ~k t q =
  if k < 0 then invalid_arg "Incremental.nearest: negative k";
  if k = 0 then []
  else begin
    let qprep = Ted.preprocess q in
    let qb = Binary_tree.of_tree q in
    let dist_cache : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let dist tj =
      match Hashtbl.find_opt dist_cache tj with
      | Some d -> d
      | None ->
        let d = Ted.bounded_distance_prep qprep (prep t tj) t.tau in
        Hashtbl.add dist_cache tj d;
        d
    in
    let sorted_hits tau' =
      Hashtbl.fold (fun tj d acc -> if d <= tau' then (tj, d) :: acc else acc) dist_cache []
      |> List.sort (fun (i1, d1) (i2, d2) ->
             if d1 <> d2 then compare d1 d2 else compare i1 i2)
    in
    (* Expand the radius until k trees are within it (see Search.nearest:
       every tree within radius tau' is found by the radius-tau' candidate
       set, so once hits >= k the closest k are final). *)
    let rec expand tau' =
      List.iter (fun tj -> ignore (dist tj)) (band_candidates t ~tau:tau' qb);
      let hits = sorted_hits tau' in
      if List.length hits >= k || tau' = t.tau then hits else expand (tau' + 1)
    in
    let hits = expand 0 in
    List.filteri (fun i _ -> i < k) hits
  end
