(* Benchmark harness.

   Two layers:
   - the experiment runners of Tsj_harness.Experiments regenerate every
     table and figure of the paper's evaluation (macro, one timed run
     each, deterministic datasets);
   - a Bechamel section micro-benchmarks the individual kernels (TED,
     partitioning, index operations, filters).

   Usage:
     dune exec bench/main.exe                      # everything
     dune exec bench/main.exe -- fig10 fig14       # selected experiments
     dune exec bench/main.exe -- --scale 0.5 all   # smaller datasets
     dune exec bench/main.exe -- micro             # kernels only *)

module Experiments = Tsj_harness.Experiments

(* --- Bechamel micro-benchmarks --- *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  Tsj_harness.Table.heading "Micro-benchmarks (Bechamel, ns per run)";
  let rng = Tsj_util.Prng.create 7 in
  let params = Tsj_datagen.Generator.default in
  let t80 = Tsj_datagen.Generator.random_tree rng params in
  let t80b = Tsj_datagen.Generator.random_tree rng params in
  let near =
    let labels = Tsj_datagen.Generator.alphabet params in
    snd (Tsj_tree.Edit_op.random_script rng ~labels 2 t80)
  in
  let prep1 = Tsj_ted.Ted.preprocess t80 in
  let prep2 = Tsj_ted.Ted.preprocess t80b in
  let prep_near = Tsj_ted.Ted.preprocess near in
  let cb1 = Tsj_ted.Bounds.of_prep prep1 in
  let cb2 = Tsj_ted.Bounds.of_prep prep2 in
  let cb_near = Tsj_ted.Bounds.of_prep prep_near in
  let btree = Tsj_tree.Binary_tree.of_tree t80 in
  let pre1 = Tsj_tree.Traversal.preorder_labels t80 in
  let pre2 = Tsj_tree.Traversal.preorder_labels t80b in
  let bag1 = Tsj_baselines.Binary_branch.bag_of_tree t80 in
  let bag2 = Tsj_baselines.Binary_branch.bag_of_tree t80b in
  let partition = Tsj_core.Partition.partition btree ~delta:7 in
  let subgraphs = Tsj_core.Subgraph.of_partition ~tree_id:0 partition in
  let filled_index =
    let idx = Tsj_core.Two_layer_index.create ~tau:3 () in
    Array.iter (Tsj_core.Two_layer_index.insert idx) subgraphs;
    idx
  in
  let tests =
    [
      Test.make ~name:"ted/zhang-shasha (80 vs 80, far)"
        (Staged.stage (fun () -> Tsj_ted.Ted.distance_prep prep1 prep2));
      Test.make ~name:"ted/zhang-shasha (80 vs 80, near)"
        (Staged.stage (fun () -> Tsj_ted.Ted.distance_prep prep1 prep_near));
      Test.make ~name:"ted/banded tau=3 (80 vs 80, near)"
        (Staged.stage (fun () -> Tsj_ted.Ted.bounded_distance_prep prep1 prep_near 3));
      Test.make ~name:"ted/banded tau=3 (80 vs 80, far)"
        (Staged.stage (fun () -> Tsj_ted.Ted.bounded_distance_prep prep1 prep2 3));
      Test.make ~name:"ted/preprocess (80)"
        (Staged.stage (fun () -> Tsj_ted.Ted.preprocess t80));
      Test.make ~name:"tree/lcrs-transform (80)"
        (Staged.stage (fun () -> Tsj_tree.Binary_tree.of_tree t80));
      Test.make ~name:"filter/banded-sed tau=3 (80)"
        (Staged.stage (fun () -> Tsj_ted.String_edit.within pre1 pre2 3));
      Test.make ~name:"cascade/form from prep (80)"
        (Staged.stage (fun () -> Tsj_ted.Bounds.of_prep prep1));
      Test.make ~name:"cascade/outcome tau=3 (80 vs 80, near)"
        (Staged.stage (fun () -> Tsj_ted.Bounds.cascade ~tau:3 cb1 cb_near));
      Test.make ~name:"cascade/outcome tau=3 (80 vs 80, far)"
        (Staged.stage (fun () -> Tsj_ted.Bounds.cascade ~tau:3 cb1 cb2));
      Test.make ~name:"cascade/greedy-upper (80 vs 80, near)"
        (Staged.stage (fun () -> Tsj_ted.Bounds.upper cb1 cb_near));
      Test.make ~name:"filter/binary-branch BIB (80)"
        (Staged.stage (fun () -> Tsj_baselines.Binary_branch.distance bag1 bag2));
      Test.make ~name:"filter/bag-of-branches build (80)"
        (Staged.stage (fun () -> Tsj_baselines.Binary_branch.bag_of_tree t80));
      Test.make ~name:"partsj/max-min-size delta=7 (80)"
        (Staged.stage (fun () -> Tsj_core.Partition.max_min_size btree ~delta:7));
      Test.make ~name:"partsj/partition delta=7 (80)"
        (Staged.stage (fun () -> Tsj_core.Partition.partition btree ~delta:7));
      Test.make ~name:"partsj/index-insert (7 subgraphs)"
        (Staged.stage (fun () ->
             let idx = Tsj_core.Two_layer_index.create ~tau:3 () in
             Array.iter (Tsj_core.Two_layer_index.insert idx) subgraphs));
      Test.make ~name:"partsj/index-probe (80 nodes)"
        (Staged.stage (fun () ->
             let hits = ref 0 in
             let size = btree.Tsj_tree.Binary_tree.size in
             let cursor = Tsj_core.Two_layer_index.cursor btree in
             Tsj_core.Two_layer_index.probe filled_index cursor ~lo:(size - 3) ~hi:size
               (fun _ _ -> incr hits);
             !hits));
      Test.make ~name:"partsj/subgraph-match (own tree)"
        (Staged.stage (fun () ->
             Array.for_all
               (fun s -> Tsj_core.Subgraph.matches s btree s.Tsj_core.Subgraph.root)
               subgraphs));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let results =
    List.map
      (fun test ->
        let name = Test.Elt.name (List.hd (Test.elements test)) in
        let raw = Benchmark.all cfg instances test in
        let res = Analyze.all ols Instance.monotonic_clock raw in
        (name, res))
      tests
  in
  let rows =
    List.concat_map
      (fun (_, res) ->
        Hashtbl.fold
          (fun name ols acc ->
            let ns =
              match Analyze.OLS.estimates ols with
              | Some (x :: _) -> x
              | _ -> nan
            in
            [ name; Printf.sprintf "%.0f ns" ns ] :: acc)
          res [])
      results
  in
  Tsj_harness.Table.print
    ~header:[ "kernel"; "time/run" ]
    ~align:[ Tsj_harness.Table.Left; Tsj_harness.Table.Right ]
    (List.sort compare rows)

let () =
  let scale = ref 1.0 in
  let seed = ref 42 in
  let domains = ref 1 in
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
      scale := float_of_string v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | ("--domains" | "-j") :: v :: rest ->
      domains := max 1 (int_of_string v);
      parse rest
    | x :: rest ->
      selected := x :: !selected;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let config =
    { Experiments.default_config with
      Experiments.scale = !scale; seed = !seed; domains = !domains }
  in
  let selected = List.sort_uniq compare (if !selected = [] then [ "all" ] else !selected) in
  let known =
    List.map (fun (name, run) -> (name, fun () -> run config)) Experiments.experiments
    @ [
        ("micro", micro);
        ( "smoke",
          (* Tiny-scale perf + resilience run — the dune runtest hook.
             Exercises the whole parallel pipeline (pool, block sweep,
             pipelined verify), fails on any cross-domain mismatch (on
             the synthetic and the redundant profile), and runs one
             kill-and-resume scenario asserting the resumed output
             bit-identical to an uninterrupted run.  Below full scale
             nothing is written to disk. *)
          fun () ->
            let tiny =
              { config with Experiments.scale = Float.min config.Experiments.scale 0.0625 }
            in
            Experiments.perf tiny;
            Experiments.resilience tiny );
        ( "all",
          fun () ->
            Experiments.run_all config;
            micro () );
      ]
  in
  List.iter
    (fun name ->
      match List.assoc_opt name known with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %S; known: %s\n" name
          (String.concat ", " (List.map fst known));
        exit 1)
    (if List.mem "all" selected then [ "all" ] else selected)
