(* Tests for the hash-consing layer and its consumers: the Dag store
   (structural interning, collision-checked hashing under a truncated
   hash), bit-identity of the PartSJ join with consing on/off
   (including under a per-pair budget and across domain counts), the
   serving store's whole-tree dedup against a duplicate-free store, and
   the in-place Arena matrix reshape under shape-alternating kernel
   calls. *)

module Tree = Tsj_tree.Tree
module Dag = Tsj_tree.Dag
module Ted = Tsj_ted.Ted
module Partsj = Tsj_core.Partsj
module Types = Tsj_join.Types
module Budget = Tsj_join.Budget
module Prng = Tsj_util.Prng
module Store = Tsj_server.Store

(* --- Dag store: interning basics --- *)

let test_intern_basics () =
  let rng = Prng.create 11 in
  let dag = Dag.create () in
  let a = Gen.random_tree rng 20 in
  let a_copy =
    (* structurally equal, physically distinct *)
    let rec deep (t : Tree.t) = Tree.node t.Tree.label (List.map deep t.Tree.children) in
    deep a
  in
  let b = Gen.random_tree rng 20 in
  let na = Dag.intern dag a in
  let na' = Dag.intern dag a_copy in
  let nb = Dag.intern dag b in
  Alcotest.(check int) "equal trees, same id" (Dag.id na) (Dag.id na');
  Alcotest.(check bool) "shared views physically equal" true
    (Dag.tree na == Dag.tree na');
  Alcotest.(check bool) "distinct trees, distinct ids" true
    (Dag.id na <> Dag.id nb || Tree.equal a b);
  Alcotest.(check int) "node size" (Tree.size a) (Dag.size na);
  Alcotest.(check bool) "view is structurally the tree" true
    (Tree.equal a (Dag.tree na));
  Alcotest.(check int) "intern requests counted"
    ((2 * Tree.size a) + Tree.size b)
    (Dag.interned dag);
  Alcotest.(check bool) "find interned" true (Dag.find dag a_copy = Some na);
  let fresh = Gen.random_tree rng 25 in
  Alcotest.(check bool) "find unknown" true
    (Dag.find dag fresh = None || Tree.equal fresh a || Tree.equal fresh b)

let test_hash_bits_validation () =
  Alcotest.check_raises "hash_bits 0"
    (Invalid_argument "Dag.create: hash_bits must be in 1..62") (fun () ->
      ignore (Dag.create ~hash_bits:0 ()));
  Alcotest.check_raises "hash_bits 63"
    (Invalid_argument "Dag.create: hash_bits must be in 1..62") (fun () ->
      ignore (Dag.create ~hash_bits:63 ()))

(* Truncating the structural hash to 2 bits forces nearly every bucket
   to collide; interning must still be exact — id equality iff
   structural equality — because the bucket scan compares label and
   child ids. *)
let prop_collisions_exact =
  Gen.qtest ~count:60 "2-bit hash: id equality = structural equality"
    (QCheck.make
       ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
       (fun st -> (Random.State.int st 0x3FFFFFFF, 2 + Random.State.int st 12)))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let trees = Array.of_list (Gen.random_forest rng ~n ~max_size:10) in
      let dag = Dag.create ~hash_bits:2 () in
      let nodes = Array.map (Dag.intern dag) trees in
      let ok = ref true in
      for i = 0 to Array.length nodes - 1 do
        for j = 0 to Array.length nodes - 1 do
          let same_id = Dag.id nodes.(i) = Dag.id nodes.(j) in
          let same_tree = Tree.equal trees.(i) trees.(j) in
          if same_id <> same_tree then ok := false
        done
      done;
      !ok)

(* --- consing is invisible in the join output --- *)

let arb_forest =
  QCheck.make
    ~print:(fun (seed, n, max_size) ->
      Printf.sprintf "seed=%d n=%d max_size=%d" seed n max_size)
    (fun st ->
      ( Random.State.int st 0x3FFFFFFF,
        2 + Random.State.int st 14,
        4 + Random.State.int st 12 ))

let forest_of_seed seed n max_size =
  let rng = Prng.create seed in
  (* Salt with duplicates so the equal-tree fast paths fire. *)
  let base = Array.of_list (Gen.random_forest rng ~n ~max_size) in
  Array.init (Array.length base + (n / 2)) (fun i ->
      if i < Array.length base then base.(i)
      else base.(Prng.int rng (Array.length base)))

let prop_consing_bit_identical (seed, n, max_size) =
  let trees = forest_of_seed seed n max_size in
  let tau = 1 + (seed mod 3) in
  let off = Partsj.join ~consing:false ~trees ~tau () in
  let on1 = Partsj.join ~consing:true ~trees ~tau () in
  let on3 = Partsj.join ~consing:true ~domains:3 ~trees ~tau () in
  if not (Types.equal_deterministic off on1) then
    QCheck.Test.fail_reportf "consing changed the output (seed=%d)" seed
  else if not (Types.equal_deterministic on1 on3) then
    QCheck.Test.fail_reportf
      "consed join differs across domain counts (seed=%d)" seed
  else true

let prop_consing_budget_bit_identical (seed, n, max_size) =
  (* The per-pair cost model is a pure function of the pair, so budgeted
     joins must quarantine the same pairs with and without consing. *)
  let trees = forest_of_seed seed n max_size in
  let tau = 1 + (seed mod 3) in
  let run consing =
    let budget = Budget.create ~pair_cost_limit:400 () in
    Partsj.join ~consing ~budget ~trees ~tau ()
  in
  Types.equal_deterministic (run false) (run true)

(* --- serving store: whole-tree dedup --- *)

let test_store_dedup_equivalence () =
  let rng = Prng.create 4242 in
  let distinct = Array.of_list (Gen.random_forest rng ~n:12 ~max_size:10) in
  (* A stream with exact re-submissions interleaved. *)
  let stream =
    Array.init 30 (fun i ->
        if i < 12 then distinct.(i) else distinct.(Prng.int rng 12))
  in
  let open_ dedup =
    match Store.open_ ~dedup ~tau:2 () with
    | Ok s -> s
    | Error e -> Alcotest.failf "open_: %s" e
  in
  let deduped = open_ true in
  let plain = open_ false in
  (* The dedup store sees the whole stream; the plain store only the
     distinct prefix: they must end up indistinguishable. *)
  Array.iter (fun tree -> ignore (Store.add plain tree)) distinct;
  Array.iteri
    (fun i tree ->
      let id, partners = Store.add deduped tree in
      if i < 12 then Alcotest.(check int) "fresh ids are dense" i id
      else begin
        Alcotest.(check bool) "duplicate answered with original id" true
          (Tree.equal (Store.tree deduped id) tree);
        (* Bit-identical to an idempotent replay of the original add. *)
        match Store.add_seq plain ~seq:id tree with
        | Ok replay ->
          Alcotest.(check bool) "duplicate = replay answer" true
            (replay = (id, partners))
        | Error e -> Alcotest.failf "replay: %s" e
      end)
    stream;
  Alcotest.(check int) "no index growth from duplicates" (Store.n_trees plain)
    (Store.n_trees deduped);
  Alcotest.(check int) "suppressed duplicates counted" 18 (Store.dedups deduped);
  Alcotest.(check int) "plain store deduped nothing" 0 (Store.dedups plain);
  (* Query and k-NN answers are those of the duplicate-free store. *)
  for probe_seed = 1 to 5 do
    let probe = Gen.random_tree (Prng.create probe_seed) 8 in
    let qd = Store.query deduped probe and qp = Store.query plain probe in
    Alcotest.(check bool)
      (Printf.sprintf "query %d identical" probe_seed)
      true
      (qd.Tsj_core.Incremental.hits = qp.Tsj_core.Incremental.hits);
    Alcotest.(check bool)
      (Printf.sprintf "knn %d identical" probe_seed)
      true
      (Store.nearest ~k:3 deduped probe = Store.nearest ~k:3 plain probe)
  done;
  Store.close deduped;
  Store.close plain

let test_store_dedup_within_batch () =
  let rng = Prng.create 99 in
  let a = Gen.random_tree rng 9 and b = Gen.random_tree rng 9 in
  let a' =
    let rec deep (t : Tree.t) = Tree.node t.Tree.label (List.map deep t.Tree.children) in
    deep a
  in
  match Store.open_ ~dedup:true ~tau:2 () with
  | Error e -> Alcotest.failf "open_: %s" e
  | Ok store ->
    (* A batch may contain a fresh tree and its duplicate: the duplicate
       must resolve to the seq staged earlier in the same batch. *)
    let results = Store.add_batch store [| (None, a); (None, b); (None, a') |] in
    (match (results.(0), results.(2)) with
    | Ok (ida, _), Ok (ida', partners) ->
      Alcotest.(check int) "within-batch duplicate collapses" ida ida';
      Alcotest.(check bool) "partners of the original" true
        (match results.(0) with Ok (_, p) -> p = partners | Error _ -> false)
    | _ -> Alcotest.fail "batch add failed");
    Alcotest.(check int) "one duplicate suppressed" 1 (Store.dedups store);
    Alcotest.(check int) "two trees indexed" 2 (Store.n_trees store);
    Store.close store

(* --- Arena: in-place matrix reshape --- *)

let test_arena_reshape_alternating_shapes () =
  (* Alternating (wide, narrow) and (narrow, wide) pairs exercises the
     reshape-in-place path of [Arena.reserve_matrices] (capacity
     suffices, stride changes).  Every distance must agree with the
     Naive reference kernel, which allocates fresh tables per call. *)
  let rng = Prng.create 2026 in
  let wide = Gen.random_tree rng 34 in
  let narrow = Gen.random_tree rng 6 in
  let mid = Gen.random_tree rng 33 in
  let pairs =
    [ (wide, narrow); (narrow, wide); (wide, mid); (narrow, narrow);
      (mid, wide); (mid, narrow) ]
  in
  List.iteri
    (fun i (a, b) ->
      let pa = Ted.preprocess a and pb = Ted.preprocess b in
      Alcotest.(check int)
        (Printf.sprintf "pair %d unbounded" i)
        (Ted.distance_prep ~algorithm:Ted.Naive pa pb)
        (Ted.distance_prep pa pb);
      List.iter
        (fun k ->
          Alcotest.(check int)
            (Printf.sprintf "pair %d bounded k=%d" i k)
            (Ted.bounded_distance_prep ~algorithm:Ted.Naive pa pb k)
            (Ted.bounded_distance_prep pa pb k))
        [ 0; 2; 5 ])
    pairs

let suite =
  [
    Alcotest.test_case "intern basics" `Quick test_intern_basics;
    Alcotest.test_case "hash_bits validation" `Quick test_hash_bits_validation;
    prop_collisions_exact;
    Gen.qtest ~count:20 "join bit-identical with consing on/off" arb_forest
      prop_consing_bit_identical;
    Gen.qtest ~count:12 "budgeted join bit-identical with consing on/off"
      arb_forest prop_consing_budget_bit_identical;
    Alcotest.test_case "store dedup = duplicate-free store" `Quick
      test_store_dedup_equivalence;
    Alcotest.test_case "store dedup within one batch" `Quick
      test_store_dedup_within_batch;
    Alcotest.test_case "arena reshape alternating shapes" `Quick
      test_arena_reshape_alternating_shapes;
  ]
