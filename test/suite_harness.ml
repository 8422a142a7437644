module Methods = Tsj_harness.Methods
module Table = Tsj_harness.Table
module Types = Tsj_join.Types
module Prng = Tsj_util.Prng
module Edit_op = Tsj_tree.Edit_op

let test_method_names_roundtrip () =
  List.iter
    (fun m ->
      match Methods.of_name (Methods.name m) with
      | Some m' -> Alcotest.(check bool) "roundtrip" true (m = m')
      | None -> Alcotest.failf "name %s not found" (Methods.name m))
    Methods.all;
  Alcotest.(check bool) "case insensitive" true (Methods.of_name "prt" = Some Methods.Prt);
  Alcotest.(check bool) "unknown" true (Methods.of_name "bogus" = None)

let test_paper_methods () =
  Alcotest.(check (list string)) "paper trio" [ "STR"; "SET"; "PRT" ]
    (List.map Methods.name Methods.paper_methods)

let small_dataset () =
  let rng = Prng.create 77 in
  let acc = ref [] in
  for _ = 1 to 10 do
    let base = Gen.random_tree rng (5 + Prng.int rng 10) in
    acc := base :: !acc;
    let _, copy = Edit_op.random_script rng ~labels:Gen.default_alphabet 1 base in
    acc := copy :: !acc
  done;
  Array.of_list !acc

let test_all_methods_run_and_agree () =
  let trees = small_dataset () in
  let truth = Methods.run Methods.Nl ~trees ~tau:2 in
  List.iter
    (fun m ->
      let out = Methods.run m ~trees ~tau:2 in
      (* Paper_rank windows may (rarely) miss pairs; everything else must
         be exact. *)
      if m = Methods.Prt_paper_index then
        Alcotest.(check bool)
          (Methods.name m ^ " subset of truth")
          true
          (List.for_all
             (fun p -> List.mem p truth.Types.pairs)
             (Methods.run m ~trees ~tau:2).Types.pairs)
      else
        Alcotest.(check bool) (Methods.name m ^ " exact") true (Types.equal_results truth out))
    Methods.all

let test_table_rendering () =
  let buf_path = Filename.temp_file "tsj" ".tbl" in
  let oc = open_out buf_path in
  Table.print ~out:oc ~header:[ "name"; "value" ]
    ~align:[ Table.Left; Table.Right ]
    [ [ "alpha"; "1" ]; [ "b"; "22,222" ] ];
  close_out oc;
  let contents = In_channel.with_open_text buf_path In_channel.input_all in
  Sys.remove buf_path;
  Alcotest.(check bool) "has header" true
    (String.length contents > 0
    &&
    let lines = String.split_on_char '\n' contents in
    List.length lines >= 4
    && String.trim (List.nth lines 0) <> ""
    && String.for_all (fun c -> c = '-' || c = ' ') (List.nth lines 1))

let test_table_arity_check () =
  Alcotest.check_raises "row arity" (Invalid_argument "Table.print: row arity differs from header")
    (fun () ->
      Table.print ~header:[ "a"; "b" ] ~align:[ Table.Left; Table.Right ] [ [ "x" ] ])

let test_table_formatters () =
  Alcotest.(check string) "seconds ms" "45ms" (Table.seconds 0.045);
  Alcotest.(check string) "seconds s" "1.20s" (Table.seconds 1.2);
  Alcotest.(check string) "seconds 10s+" "12.0s" (Table.seconds 12.04);
  Alcotest.(check string) "zero" "0" (Table.seconds 0.0);
  Alcotest.(check string) "count" "1,234,567" (Table.count 1234567);
  Alcotest.(check string) "count small" "42" (Table.count 42);
  Alcotest.(check string) "count negative" "-1,000" (Table.count (-1000))

let test_experiments_smoke () =
  (* A tiny end-to-end run of every experiment driver: must not raise and
     must produce the figure headings. *)
  let path = Filename.temp_file "tsj" ".out" in
  let oc = open_out path in
  let config =
    {
      Tsj_harness.Experiments.default_config with
      Tsj_harness.Experiments.scale = 0.02;
      seed = 1;
      taus = [ 1; 2 ];
      out = oc;
    }
  in
  Tsj_harness.Experiments.fig10_11 config;
  Tsj_harness.Experiments.fig12_13 config;
  Tsj_harness.Experiments.ablation config;
  (* The perf smoke run also asserts, inside [perf] itself, that the
     cascade counters sum to the candidate count on every run, that the
     counters and results are identical across domain counts, and that
     the cascade leaves the join output bit-identical — it raises
     otherwise.  Below full scale it writes no record: it runs in an
     empty directory, which must still be empty afterwards. *)
  let cwd = Sys.getcwd () in
  let scratch = Filename.temp_file "tsj_perf" "" in
  Sys.remove scratch;
  Sys.mkdir scratch 0o755;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      Array.iter (fun f -> Sys.remove (Filename.concat scratch f)) (Sys.readdir scratch);
      Sys.rmdir scratch)
    (fun () ->
      Sys.chdir scratch;
      Tsj_harness.Experiments.perf { config with Tsj_harness.Experiments.domains = 2 };
      Alcotest.(check (array string)) "tiny perf run writes no file" [||]
        (Sys.readdir scratch));
  close_out oc;
  let contents = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length contents && (String.sub contents i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "fig10 heading" true (contains "Figures 10 & 11");
  Alcotest.(check bool) "fig12 heading" true (contains "Figures 12 & 13");
  Alcotest.(check bool) "ablation heading" true (contains "Ablations");
  Alcotest.(check bool) "REL column" true (contains "REL");
  Alcotest.(check bool) "all datasets present" true
    (contains "swissprot" && contains "treebank" && contains "sentiment"
   && contains "synthetic");
  Alcotest.(check bool) "perf prints the cascade speedup" true
    (contains "verify speedup");
  Alcotest.(check bool) "perf reports cascade losslessness and determinism" true
    (contains "cascade losslessness (off vs on): identical"
    && contains "determinism (domains=1 vs domains=2): identical");
  Alcotest.(check bool) "perf names a domain count only when resolved" true
    (List.exists
       (fun v -> contains ("measured best domain count: " ^ v ^ " ("))
       [ "1"; "2"; "unresolved" ])

let test_sweep_rejects_negative_tau () =
  Alcotest.check_raises "negative" (Invalid_argument "Sweep.windowed_join: negative threshold")
    (fun () ->
      ignore
        (Tsj_join.Sweep.windowed_join ~cascade:true ~trees:[||] ~tau:(-1)
           ~setup:(fun _ -> ())
           ~filter:(fun () _ _ -> true)
           ()))

let test_sweep_window_semantics () =
  (* trees of sizes 1, 3, 6: with tau=2 only (1,3) qualifies. *)
  let t n = Gen.random_tree (Prng.create n) n in
  let trees = [| t 1; t 3; t 6 |] in
  let seen = ref [] in
  let _ =
    Tsj_join.Sweep.windowed_join ~cascade:true ~trees ~tau:2
      ~setup:(fun _ -> ())
      ~filter:(fun () i j ->
        seen := (min i j, max i j) :: !seen;
        false)
      ()
  in
  Alcotest.(check (list (pair int int))) "window pairs" [ (0, 1) ] (List.sort compare !seen)

let test_nested_loop_rel_count () =
  let trees = small_dataset () in
  let out = Tsj_join.Nested_loop.join ~trees ~tau:1 () in
  Alcotest.(check int) "rel_count consistent"
    out.Types.stats.Types.n_results
    (Tsj_join.Nested_loop.rel_count ~trees ~tau:1)

let test_types_helpers () =
  let p1 = { Types.i = 0; j = 1; distance = 1 } in
  let p2 = { Types.i = 2; j = 3; distance = 0 } in
  let stats =
    {
      Types.n_trees = 4;
      tau = 1;
      n_window_pairs = 6;
      n_candidates = 2;
      n_results = 2;
      candidate_time_s = 0.5;
      verify_time_s = 0.25;
      cascade = { Types.empty_cascade with Types.kernel_verified = 2 };
    }
  in
  let out = { Types.pairs = [ p2; p1 ]; quarantined = []; stats } in
  Alcotest.(check (float 1e-9)) "total time" 0.75 (Types.total_time_s stats);
  Alcotest.(check (list (pair int int))) "pair_set sorted" [ (0, 1); (2, 3) ]
    (Types.pair_set out);
  Alcotest.(check bool) "equal_results ignores order" true
    (Types.equal_results out { out with Types.pairs = [ p1; p2 ] });
  Alcotest.(check bool) "distance matters" false
    (Types.equal_results out
       { out with Types.pairs = [ { p1 with Types.distance = 0 }; p2 ] })

let suite =
  [
    Alcotest.test_case "method names roundtrip" `Quick test_method_names_roundtrip;
    Alcotest.test_case "paper methods" `Quick test_paper_methods;
    Alcotest.test_case "all methods run and agree" `Quick test_all_methods_run_and_agree;
    Alcotest.test_case "table rendering" `Quick test_table_rendering;
    Alcotest.test_case "table arity check" `Quick test_table_arity_check;
    Alcotest.test_case "table formatters" `Quick test_table_formatters;
    Alcotest.test_case "experiment drivers smoke" `Slow test_experiments_smoke;
    Alcotest.test_case "sweep rejects negative tau" `Quick test_sweep_rejects_negative_tau;
    Alcotest.test_case "sweep window semantics" `Quick test_sweep_window_semantics;
    Alcotest.test_case "nested loop rel_count" `Quick test_nested_loop_rel_count;
    Alcotest.test_case "types helpers" `Quick test_types_helpers;
  ]
