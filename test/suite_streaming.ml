(* Tests for the streaming (incremental) join and parallel verification. *)

module Tree = Tsj_tree.Tree
module Prng = Tsj_util.Prng
module Edit_op = Tsj_tree.Edit_op
module Incremental = Tsj_core.Incremental
module Partsj = Tsj_core.Partsj
module Parallel = Tsj_join.Parallel
module Types = Tsj_join.Types

let clustered seed n =
  let rng = Prng.create seed in
  let acc = ref [] in
  for _ = 1 to n / 2 do
    let base = Gen.random_tree rng (3 + Prng.int rng 14) in
    acc := base :: !acc;
    let _, copy = Edit_op.random_script rng ~labels:Gen.default_alphabet 2 base in
    acc := copy :: !acc
  done;
  Array.of_list !acc

(* Feed trees through the incremental join in the given order; collect all
   pairs translated back to original indices. *)
let stream_join trees order tau =
  let inc = Incremental.create ~tau () in
  let pairs = ref [] in
  Array.iter
    (fun orig ->
      let id = Incremental.n_trees inc in
      ignore id;
      let hits = Incremental.add inc trees.(orig) in
      List.iter (fun (earlier, d) -> pairs := (earlier, orig, d) :: !pairs) hits)
    order;
  (* [earlier] is an insertion id; translate via the order array, then
     normalize pair direction. *)
  List.map
    (fun (earlier_id, orig_j, d) ->
      let i = order.(earlier_id) in
      (min i orig_j, max i orig_j, d))
    !pairs
  |> List.sort compare

let batch_triples trees tau =
  (Partsj.join ~trees ~tau ()).Types.pairs
  |> List.map (fun p -> (p.Types.i, p.Types.j, p.Types.distance))
  |> List.sort compare

let test_incremental_equals_batch_in_order () =
  let trees = clustered 31 30 in
  let order = Array.init (Array.length trees) (fun i -> i) in
  List.iter
    (fun tau ->
      Alcotest.(check (list (triple int int int)))
        (Printf.sprintf "tau=%d" tau)
        (batch_triples trees tau)
        (stream_join trees order tau))
    [ 0; 1; 2; 3 ]

let test_incremental_equals_batch_shuffled () =
  let trees = clustered 32 30 in
  let rng = Prng.create 99 in
  List.iter
    (fun tau ->
      let order = Array.init (Array.length trees) (fun i -> i) in
      Prng.shuffle rng order;
      Alcotest.(check (list (triple int int int)))
        (Printf.sprintf "tau=%d shuffled" tau)
        (batch_triples trees tau)
        (stream_join trees order tau))
    [ 1; 2; 3 ]

let test_incremental_descending_sizes () =
  (* The adversarial order for the batch algorithm's assumption. *)
  let trees = clustered 33 24 in
  let order = Array.init (Array.length trees) (fun i -> i) in
  Array.sort (fun a b -> compare (Tree.size trees.(b)) (Tree.size trees.(a))) order;
  Alcotest.(check (list (triple int int int)))
    "descending size order"
    (batch_triples trees 2)
    (stream_join trees order 2)

let test_incremental_accessors () =
  let inc = Incremental.create ~tau:1 () in
  Alcotest.(check int) "tau" 1 (Incremental.tau inc);
  Alcotest.(check int) "empty" 0 (Incremental.n_trees inc);
  let a = Gen.random_tree (Prng.create 1) 6 in
  let hits = Incremental.add inc a in
  Alcotest.(check (list (pair int int))) "first tree has no partners" [] hits;
  Alcotest.(check int) "one tree" 1 (Incremental.n_trees inc);
  Alcotest.(check bool) "tree back" true (Tree.equal a (Incremental.tree inc 0));
  Alcotest.check_raises "unknown id" (Invalid_argument "Incremental.tree: unknown id")
    (fun () -> ignore (Incremental.tree inc 1));
  let hits = Incremental.add inc a in
  Alcotest.(check (list (pair int int))) "duplicate found" [ (0, 0) ] hits;
  let verified, indexed = Incremental.stats inc in
  Alcotest.(check bool) "stats counted" true (verified >= 1 && indexed >= 0)

let test_incremental_rejects_negative () =
  Alcotest.check_raises "negative tau"
    (Invalid_argument "Incremental.create: negative threshold") (fun () ->
      ignore (Incremental.create ~tau:(-1) ()))

(* Regression for the empty-band early-exit in the probe: a stream of
   wildly disparate sizes (most probe bands empty) must produce exactly
   the same pairs as the batch join — the short-circuit can only skip
   work, never candidates. *)
let test_incremental_disparate_sizes_early_exit () =
  let rng = Prng.create 57 in
  let acc = ref [] in
  for i = 0 to 23 do
    (* sizes 3, ~30, ~60, 3, ... — adjacent arrivals never share a band *)
    let size = 3 + (i mod 3 * 27) + Prng.int rng 3 in
    acc := Gen.random_tree rng size :: !acc
  done;
  let trees = Array.of_list !acc in
  let order = Array.init (Array.length trees) (fun i -> i) in
  List.iter
    (fun tau ->
      Alcotest.(check (list (triple int int int)))
        (Printf.sprintf "tau=%d disparate sizes" tau)
        (batch_triples trees tau)
        (stream_join trees order tau))
    [ 1; 2; 3 ]

(* --- incremental query / nearest (the serving path) --- *)

let brute_force trees q tau =
  Array.to_list trees
  |> List.mapi (fun i t -> (i, Ted_reference.distance q t))
  |> List.filter (fun (_, d) -> d <= tau)
  |> List.sort (fun (i1, d1) (i2, d2) ->
         if d1 <> d2 then compare d1 d2 else compare i1 i2)

let test_incremental_query_matches_search () =
  let trees = clustered 41 30 in
  let tau = 2 in
  let inc = Incremental.create ~tau () in
  Array.iter (fun t -> ignore (Incremental.add inc t)) trees;
  let rng = Prng.create 5 in
  for _ = 1 to 12 do
    let q =
      if Prng.bool rng then trees.(Prng.int rng (Array.length trees))
      else Gen.random_tree rng (3 + Prng.int rng 14)
    in
    List.iter
      (fun tau' ->
        let expected = brute_force trees q tau' in
        let r = Incremental.query ~tau:tau' inc q in
        Alcotest.(check bool)
          (Printf.sprintf "not degraded (tau=%d)" tau')
          false r.Incremental.degraded;
        Alcotest.(check (list (triple int int int))) "no unverified" []
          r.Incremental.unverified;
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "query = brute force (tau=%d)" tau')
          expected r.Incremental.hits)
      [ 0; 1; 2 ]
  done

let test_incremental_query_validation () =
  let inc = Incremental.create ~tau:1 () in
  let q = Gen.random_tree (Prng.create 3) 5 in
  Alcotest.check_raises "tau too big"
    (Invalid_argument "Incremental.query: tau = 2 exceeds the index threshold 1")
    (fun () -> ignore (Incremental.query ~tau:2 inc q));
  Alcotest.check_raises "negative tau"
    (Invalid_argument "Incremental.query: negative threshold") (fun () ->
      ignore (Incremental.query ~tau:(-1) inc q))

let test_incremental_query_degraded_sound () =
  (* An already-expired budget forces the fully degraded path: no hit may
     be invented, and every true hit must appear either in [hits] or as
     an unverified bound sandwich with lower <= d <= upper. *)
  let trees = clustered 42 30 in
  let tau = 2 in
  let inc = Incremental.create ~tau () in
  Array.iter (fun t -> ignore (Incremental.add inc t)) trees;
  let rng = Prng.create 11 in
  for _ = 1 to 8 do
    let q = trees.(Prng.int rng (Array.length trees)) in
    let budget = Tsj_join.Budget.create () in
    Tsj_join.Budget.cancel budget;
    let r = Incremental.query ~budget inc q in
    let truth = brute_force trees q tau in
    List.iter
      (fun (id, d) ->
        Alcotest.(check bool) "reported hit is true" true (List.mem_assoc id truth);
        Alcotest.(check int) "distance exact" (List.assoc id truth) d)
      r.Incremental.hits;
    List.iter
      (fun (id, d) ->
        let in_hits = List.mem_assoc id r.Incremental.hits in
        let sandwiched =
          List.exists
            (fun (i, lo, hi) -> i = id && lo <= d && d <= hi)
            r.Incremental.unverified
        in
        if not (in_hits || sandwiched) then
          Alcotest.failf "true hit %d (d=%d) lost by the degraded answer" id d)
      truth
  done

let test_incremental_nearest () =
  let trees = clustered 43 26 in
  let tau = 3 in
  let inc = Incremental.create ~tau () in
  Array.iter (fun t -> ignore (Incremental.add inc t)) trees;
  let rng = Prng.create 23 in
  for _ = 1 to 10 do
    (* members of the stream (which have near neighbours) and fresh trees *)
    let q =
      if Prng.bool rng then trees.(Prng.int rng (Array.length trees))
      else Gen.random_tree rng (3 + Prng.int rng 14)
    in
    let brute =
      Array.to_list (Array.mapi (fun i x -> (i, Ted_reference.distance q x)) trees)
      |> List.filter (fun (_, d) -> d <= tau)
      |> List.sort (fun (i1, d1) (i2, d2) ->
             if d1 <> d2 then compare d1 d2 else compare i1 i2)
    in
    List.iter
      (fun k ->
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "nearest k=%d = brute force" k)
          (List.filteri (fun i _ -> i < k) brute)
          (Incremental.nearest ~k inc q))
      [ 0; 1; 3; 7 ]
  done;
  Alcotest.check_raises "negative k"
    (Invalid_argument "Incremental.nearest: negative k") (fun () ->
      ignore (Incremental.nearest ~k:(-1) inc (Gen.random_tree rng 4)))

(* Random streams with exact and near duplicates: every answer of the
   index (ADD partners, QUERY at each τ' <= τ, KNN)
   equals a brute force over the plain banded kernel on every pair. *)
let prop_streaming_equals_kernel =
  Gen.qtest ~count:12 "incremental add/query/nearest = brute-force kernel"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create (0x57E + seed) in
      let labels = Gen.alphabet 3 in
      let tau = 1 + (seed mod 3) in
      let stream = ref [||] in
      let next () =
        let earlier = !stream in
        let n = Array.length earlier in
        match if n = 0 then 2 else Prng.int rng 4 with
        | 0 -> earlier.(Prng.int rng n)
        | 1 -> snd (Edit_op.random_script rng ~labels (1 + Prng.int rng 2) earlier.(Prng.int rng n))
        | _ -> Gen.random_tree ~labels rng (3 + Prng.int rng 6)
      in
      for _ = 1 to 120 do
        stream := Array.append !stream [| next () |]
      done;
      let trees = !stream in
      let preps = Array.map (fun t -> Tsj_ted.Ted.preprocess t) trees in
      let within tau' p ids =
        List.filter_map
          (fun j ->
            let d = Tsj_ted.Ted.bounded_distance_prep p preps.(j) tau' in
            if d <= tau' then Some (j, d) else None)
          ids
      in
      let by_distance =
        List.sort (fun (i1, d1) (i2, d2) -> if d1 <> d2 then compare d1 d2 else compare i1 i2)
      in
      let inc = Incremental.create ~tau () in
      Array.iteri
        (fun i t ->
          let expected = within tau preps.(i) (List.init i Fun.id) in
          let got = Incremental.add inc t in
          if got <> expected then QCheck.Test.fail_reportf "add %d: partners differ" i)
        trees;
      let all = List.init (Array.length trees) Fun.id in
      for _ = 1 to 8 do
        let q = next () in
        let qp = Tsj_ted.Ted.preprocess q in
        for tau' = 0 to tau do
          let expected = by_distance (within tau' qp all) in
          let r = Incremental.query ~tau:tau' inc q in
          if r.Incremental.hits <> expected || r.Incremental.degraded then
            QCheck.Test.fail_reportf "query tau'=%d differs" tau'
        done;
        let ranked = by_distance (within tau qp all) in
        for k = 1 to 5 do
          if Incremental.nearest ~k inc q <> List.filteri (fun i _ -> i < k) ranked then
            QCheck.Test.fail_reportf "nearest k=%d differs" k
        done
      done;
      true)

(* --- parallel map / parallel verification --- *)

let test_parallel_map_matches_sequential () =
  let xs = Array.init 1000 (fun i -> i) in
  let f x = (x * x) + 1 in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d" domains)
        (Array.map f xs)
        (Parallel.map ~domains f xs))
    [ 1; 2; 3; 4 ]

let test_parallel_map_short_array () =
  Alcotest.(check (array int)) "short input" [| 2 |]
    (Parallel.map ~domains:4 (fun x -> x + 1) [| 1 |]);
  Alcotest.(check (array int)) "empty input" [||] (Parallel.map ~domains:4 Fun.id [||])

let test_parallel_map_validation () =
  Alcotest.check_raises "domains 0" (Invalid_argument "Parallel.map: domains must be >= 1")
    (fun () -> ignore (Parallel.map ~domains:0 Fun.id [| 1 |]))

let test_parallel_map_exception_propagates () =
  match Parallel.map ~domains:3 (fun x -> if x = 17 then failwith "boom" else x)
          (Array.init 100 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure msg -> Alcotest.(check string) "propagated" "boom" msg

let test_parallel_verification_same_results () =
  let trees = clustered 34 40 in
  let seq = Partsj.join ~trees ~tau:2 () in
  List.iter
    (fun domains ->
      let par = Partsj.join ~domains ~trees ~tau:2 () in
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d equals sequential" domains)
        true
        (Types.equal_results seq par))
    [ 2; 4 ];
  Alcotest.(check bool) "recommended domains positive" true
    (Parallel.recommended_domains () >= 1)

(* [insert] builds the same index as [add] without computing partners:
   every later query, nearest-neighbour search and add agrees. *)
let test_insert_indexes_like_add () =
  let trees = clustered 44 30 in
  let tau = 2 in
  let added = Incremental.create ~tau () and inserted = Incremental.create ~tau () in
  Array.iter
    (fun t ->
      ignore (Incremental.add added t);
      Incremental.insert inserted t)
    trees;
  let probes = clustered 45 10 in
  Array.iter
    (fun q ->
      Alcotest.(check (list (pair int int))) "query"
        (Incremental.query added q).Incremental.hits
        (Incremental.query inserted q).Incremental.hits;
      Alcotest.(check (list (pair int int))) "nearest"
        (Incremental.nearest ~k:3 added q)
        (Incremental.nearest ~k:3 inserted q))
    probes;
  Array.iter
    (fun q ->
      Alcotest.(check (list (pair int int))) "later add partners"
        (Incremental.add added q) (Incremental.add inserted q))
    probes

let suite =
  [
    Alcotest.test_case "incremental = batch (insertion order)" `Quick
      test_incremental_equals_batch_in_order;
    Alcotest.test_case "incremental = batch (shuffled)" `Quick
      test_incremental_equals_batch_shuffled;
    Alcotest.test_case "incremental = batch (descending sizes)" `Quick
      test_incremental_descending_sizes;
    Alcotest.test_case "incremental accessors" `Quick test_incremental_accessors;
    Alcotest.test_case "incremental validation" `Quick test_incremental_rejects_negative;
    Alcotest.test_case "incremental disparate sizes (early exit)" `Quick
      test_incremental_disparate_sizes_early_exit;
    Alcotest.test_case "incremental query = brute force" `Quick
      test_incremental_query_matches_search;
    Alcotest.test_case "incremental query validation" `Quick
      test_incremental_query_validation;
    Alcotest.test_case "incremental query degraded soundness" `Quick
      test_incremental_query_degraded_sound;
    Alcotest.test_case "incremental nearest = brute force" `Quick
      test_incremental_nearest;
    prop_streaming_equals_kernel;
    Alcotest.test_case "parallel map = sequential" `Quick test_parallel_map_matches_sequential;
    Alcotest.test_case "parallel map short/empty" `Quick test_parallel_map_short_array;
    Alcotest.test_case "parallel map validation" `Quick test_parallel_map_validation;
    Alcotest.test_case "parallel map exceptions" `Quick test_parallel_map_exception_propagates;
    Alcotest.test_case "parallel verification = sequential" `Quick
      test_parallel_verification_same_results;
    Alcotest.test_case "insert indexes like add" `Quick test_insert_indexes_like_add;
  ]
