module Prng = Tsj_util.Prng
module Vec_int = Tsj_util.Vec_int
module Multiset = Tsj_util.Multiset
module Statistics = Tsj_util.Statistics

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_prng_int_range () =
  let g = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.int g 10 in
    Alcotest.(check bool) "in [0,10)" true (x >= 0 && x < 10);
    let y = Prng.int_in g 5 9 in
    Alcotest.(check bool) "in [5,9]" true (y >= 5 && y <= 9)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_prng_int_uniformish () =
  let g = Prng.create 11 in
  let counts = Array.make 4 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let x = Prng.int g 4 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform" true
        (abs (c - (n / 4)) < n / 20))
    counts

let test_prng_float_range () =
  let g = Prng.create 13 in
  for _ = 1 to 1000 do
    let f = Prng.float g in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_copy () =
  let a = Prng.create 5 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 a) (Prng.bits64 b)

let test_prng_split_independent () =
  let a = Prng.create 5 in
  let b = Prng.split a in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr equal
  done;
  Alcotest.(check bool) "split streams differ" true (!equal < 4)

let test_prng_shuffle_permutation () =
  let g = Prng.create 3 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_vec_push_get () =
  let v = Vec_int.create () in
  for i = 0 to 99 do
    Vec_int.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec_int.length v);
  for i = 0 to 99 do
    Alcotest.(check int) "get" (i * i) (Vec_int.get v i)
  done

let test_vec_pop_top () =
  let v = Vec_int.of_array [| 1; 2; 3 |] in
  Alcotest.(check int) "top" 3 (Vec_int.top v);
  Alcotest.(check int) "pop" 3 (Vec_int.pop v);
  Alcotest.(check int) "pop" 2 (Vec_int.pop v);
  Alcotest.(check int) "length" 1 (Vec_int.length v)

let test_vec_bounds () =
  let v = Vec_int.of_array [| 1 |] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec_int.get: index out of bounds")
    (fun () -> ignore (Vec_int.get v 1));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec_int.set: index out of bounds")
    (fun () -> Vec_int.set v (-1) 0)

let test_vec_clear_reuse () =
  let v = Vec_int.create ~capacity:2 () in
  Vec_int.push v 1;
  Vec_int.push v 2;
  Vec_int.clear v;
  Alcotest.(check bool) "empty" true (Vec_int.is_empty v);
  Vec_int.push v 9;
  Alcotest.(check (array int)) "contents" [| 9 |] (Vec_int.to_array v)

let test_vec_sort_fold () =
  let v = Vec_int.of_array [| 3; 1; 2 |] in
  Vec_int.sort v;
  Alcotest.(check (array int)) "sorted" [| 1; 2; 3 |] (Vec_int.to_array v);
  Alcotest.(check int) "fold sum" 6 (Vec_int.fold_left ( + ) 0 v)

let test_multiset_inter () =
  let a = Multiset.of_unsorted [| 3; 1; 1; 2 |] in
  let b = Multiset.of_unsorted [| 1; 2; 2; 4 |] in
  Alcotest.(check int) "inter" 2 (Multiset.inter_size a b);
  Alcotest.(check int) "union" 6 (Multiset.union_size a b);
  Alcotest.(check int) "symdiff" 4 (Multiset.symmetric_difference_size a b)

let test_multiset_multiplicity () =
  let a = Multiset.of_unsorted [| 5; 5; 5; 7 |] in
  Alcotest.(check int) "count 5" 3 (Multiset.count a 5);
  Alcotest.(check int) "count 6" 0 (Multiset.count a 6);
  Alcotest.(check bool) "mem" true (Multiset.mem a 7);
  Alcotest.(check bool) "not mem" false (Multiset.mem a 6)

let test_multiset_of_sorted_rejects () =
  Alcotest.check_raises "unsorted input" (Invalid_argument "Multiset.of_sorted: not sorted")
    (fun () -> ignore (Multiset.of_sorted [| 2; 1 |]))

let test_multiset_empty () =
  let e = Multiset.of_unsorted [||] in
  let a = Multiset.of_unsorted [| 1 |] in
  Alcotest.(check int) "inter with empty" 0 (Multiset.inter_size e a);
  Alcotest.(check int) "symdiff with empty" 1 (Multiset.symmetric_difference_size e a)

let prop_multiset_inter_commutes =
  Gen.qtest "multiset intersection commutes"
    QCheck.(pair (list small_nat) (list small_nat))
    (fun (xs, ys) ->
      let a = Multiset.of_unsorted (Array.of_list xs) in
      let b = Multiset.of_unsorted (Array.of_list ys) in
      Multiset.inter_size a b = Multiset.inter_size b a)

let prop_multiset_inter_bounded =
  Gen.qtest "intersection bounded by sizes"
    QCheck.(pair (list small_nat) (list small_nat))
    (fun (xs, ys) ->
      let a = Multiset.of_unsorted (Array.of_list xs) in
      let b = Multiset.of_unsorted (Array.of_list ys) in
      let i = Multiset.inter_size a b in
      i <= Multiset.size a && i <= Multiset.size b)

let test_timer_accumulates () =
  let t = Tsj_util.Timer.create () in
  Alcotest.(check (float 1e-9)) "starts at zero" 0.0 (Tsj_util.Timer.elapsed_s t);
  Tsj_util.Timer.start t;
  let spin = ref 0 in
  for i = 1 to 2_000_000 do
    spin := !spin + i
  done;
  Tsj_util.Timer.stop t;
  let once = Tsj_util.Timer.elapsed_s t in
  Alcotest.(check bool) "positive elapsed" true (once > 0.0);
  (* stopped timer does not accumulate *)
  Alcotest.(check (float 1e-9)) "stable when stopped" once (Tsj_util.Timer.elapsed_s t);
  (* double start/stop are no-ops *)
  Tsj_util.Timer.start t;
  Tsj_util.Timer.start t;
  Tsj_util.Timer.stop t;
  Tsj_util.Timer.stop t;
  Alcotest.(check bool) "second interval adds" true (Tsj_util.Timer.elapsed_s t >= once);
  Tsj_util.Timer.reset t;
  Alcotest.(check (float 1e-9)) "reset" 0.0 (Tsj_util.Timer.elapsed_s t)

let test_timer_time_propagates () =
  let t = Tsj_util.Timer.create () in
  Alcotest.(check int) "returns value" 41 (Tsj_util.Timer.time t (fun () -> 41));
  Alcotest.check_raises "propagates exception" Not_found (fun () ->
      Tsj_util.Timer.time t (fun () -> raise Not_found));
  (* the timer was stopped by the exception path: elapsed stays fixed *)
  let e = Tsj_util.Timer.elapsed_s t in
  Alcotest.(check (float 1e-9)) "stopped after exception" e (Tsj_util.Timer.elapsed_s t)

let test_timer_wall () =
  let v, dt = Tsj_util.Timer.wall (fun () -> 7) in
  Alcotest.(check int) "value" 7 v;
  Alcotest.(check bool) "non-negative" true (dt >= 0.0)

let test_statistics_basic () =
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Statistics.mean [| 1.; 2.; 3.; 4. |]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Statistics.mean [||]);
  let lo, hi = Statistics.min_max [| 3.; -1.; 2. |] in
  Alcotest.(check (float 1e-9)) "min" (-1.) lo;
  Alcotest.(check (float 1e-9)) "max" 3. hi

let test_statistics_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "median" 50.0 (Statistics.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Statistics.percentile xs 100.0)

let test_statistics_histogram () =
  let h = Statistics.histogram ~bins:2 [| 0.; 1.; 2.; 3. |] in
  Alcotest.(check int) "two bins" 2 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all counted" 4 total

(* Lengths 0..300 cross the insertion-sort run and several merge
   passes; half the arrays draw from a handful of values, the rest from
   the full int range with the extremes and hashed-label-sized ids mixed
   in. *)
let prop_multiset_sort =
  let gen =
    QCheck.Gen.(
      let value =
        frequency
          [
            (4, int);
            (2, int_range (-(1 lsl 42)) (1 lsl 42));
            (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 1 lsl 42 ]);
          ]
      in
      int_range 0 300 >>= fun n ->
      bool >>= fun dup_heavy ->
      if dup_heavy then int_range 1 4 >>= fun k -> array_size (return n) (int_range (-k) k)
      else array_size (return n) value)
  in
  Gen.qtest ~count:500 "multiset of_unsorted = List.sort Int.compare"
    (QCheck.make ~print:QCheck.Print.(array int) gen)
    (fun a ->
      let before = Array.copy a in
      let bag = Multiset.to_array (Multiset.of_unsorted a) in
      bag = Array.of_list (List.sort Int.compare (Array.to_list a)) && a = before)

(* Bags over a few values so that most elements match, of lengths whose
   difference reaches past every cap; caps 0..2k + 3 for k = 0..12
   cover the cascade's 2τ + 1 at τ = 0..12 and both sides of it. *)
let prop_multiset_symdiff_at_most =
  let gen =
    QCheck.Gen.(
      let bag = int_range 0 40 >>= fun n -> array_size (return n) (int_range 0 6) in
      triple bag bag (int_range 0 27))
  in
  Gen.qtest ~count:500 "multiset symmetric_difference_at_most = min cap (unbounded difference)"
    (QCheck.make ~print:QCheck.Print.(triple (array int) (array int) int) gen)
    (fun (a, b, cap) ->
      let a = Multiset.of_unsorted a and b = Multiset.of_unsorted b in
      let unbounded = Multiset.size a + Multiset.size b - (2 * Multiset.inter_size a b) in
      Multiset.symmetric_difference_size a b = unbounded
      && Multiset.symmetric_difference_at_most a b cap = Int.min cap unbounded)

let suite =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng seeds differ" `Quick test_prng_seeds_differ;
    Alcotest.test_case "prng int ranges" `Quick test_prng_int_range;
    Alcotest.test_case "prng uniformity" `Quick test_prng_int_uniformish;
    Alcotest.test_case "prng float range" `Quick test_prng_float_range;
    Alcotest.test_case "prng copy" `Quick test_prng_copy;
    Alcotest.test_case "prng split" `Quick test_prng_split_independent;
    Alcotest.test_case "prng shuffle permutation" `Quick test_prng_shuffle_permutation;
    Alcotest.test_case "vec push/get" `Quick test_vec_push_get;
    Alcotest.test_case "vec pop/top" `Quick test_vec_pop_top;
    Alcotest.test_case "vec bounds" `Quick test_vec_bounds;
    Alcotest.test_case "vec clear/reuse" `Quick test_vec_clear_reuse;
    Alcotest.test_case "vec sort/fold" `Quick test_vec_sort_fold;
    Alcotest.test_case "multiset inter/union" `Quick test_multiset_inter;
    Alcotest.test_case "multiset multiplicity" `Quick test_multiset_multiplicity;
    Alcotest.test_case "multiset of_sorted rejects" `Quick test_multiset_of_sorted_rejects;
    Alcotest.test_case "multiset empty" `Quick test_multiset_empty;
    prop_multiset_inter_commutes;
    prop_multiset_inter_bounded;
    Alcotest.test_case "timer accumulates" `Quick test_timer_accumulates;
    Alcotest.test_case "timer time/exceptions" `Quick test_timer_time_propagates;
    Alcotest.test_case "timer wall" `Quick test_timer_wall;
    Alcotest.test_case "statistics basic" `Quick test_statistics_basic;
    Alcotest.test_case "statistics percentile" `Quick test_statistics_percentile;
    Alcotest.test_case "statistics histogram" `Quick test_statistics_histogram;
    prop_multiset_sort;
    prop_multiset_symdiff_at_most;
  ]
