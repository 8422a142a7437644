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
  let cb1 = Tsj_ted.Bounds.of_tree t80 in
  let cb2 = Tsj_ted.Bounds.of_tree t80b in
  let cb_near = Tsj_ted.Bounds.of_tree near in
  let prep1 = Tsj_ted.Bounds.prep cb1 in
  let prep2 = Tsj_ted.Bounds.prep cb2 in
  let prep_near = Tsj_ted.Bounds.prep cb_near in
  let btree = Tsj_tree.Binary_tree.of_postorder (Tsj_ted.Ted.left_postorder prep1) in
  let pre1 = Tsj_tree.Traversal.preorder_labels t80 in
  let pre2 = Tsj_tree.Traversal.preorder_labels t80b in
  let pre_near = Tsj_tree.Traversal.preorder_labels near in
  let labels1 = (Tsj_ted.Ted.left_postorder prep1).Tsj_tree.Postorder.labels in
  let bag1 = Tsj_baselines.Binary_branch.bag_of_tree t80 in
  let bag2 = Tsj_baselines.Binary_branch.bag_of_tree t80b in
  let partition = Tsj_core.Partition.partition btree ~delta:7 in
  let subgraphs = Tsj_core.Subgraph.of_partition ~tree_id:0 partition in
  (* The probe runs against the index a perfbench [query] server holds:
     2,000 swissprot trees at τ = 2, probed with a fresh tree of the same
     profile over its size window.  A probe does one lookup per (size
     band with subgraphs, node, twig variant of the node whose shape
     some subgraph has), in the bucket of the node's position;
     [probe_lookups] counts them, so the time per lookup can be read
     off. *)
  let probe_tau = 2 in
  let stored = Tsj_datagen.Profiles.(instantiate swissprot ~seed:801 ~n:2000) in
  let filled_index = Tsj_core.Two_layer_index.create ~tau:probe_tau () in
  let shape ~left ~right = 1 lsl (Bool.to_int left + (2 * Bool.to_int right)) in
  let held = ref 0 (* the twig shapes of the indexed subgraphs *) in
  Array.iteri
    (fun id tree ->
      let b = Tsj_tree.Binary_tree.of_postorder (Tsj_tree.Form.of_tree tree).left in
      if b.Tsj_tree.Binary_tree.size >= (2 * probe_tau) + 1 then
        Array.iter
          (fun s ->
            let _, left, right = Tsj_core.Subgraph.label_key s in
            let e = Tsj_tree.Label.epsilon in
            held := !held lor shape ~left:(left <> e) ~right:(right <> e);
            Tsj_core.Two_layer_index.insert filled_index s)
          (Tsj_core.Subgraph.of_partition ~tree_id:id
             (Tsj_core.Partition.partition b ~delta:((2 * probe_tau) + 1))))
    stored;
  let probed =
    let tree = Tsj_datagen.Profiles.(instantiate swissprot ~seed:802 ~n:1).(0) in
    Tsj_tree.Binary_tree.of_postorder (Tsj_tree.Form.of_tree tree).left
  in
  let probe_cursor = Tsj_core.Two_layer_index.cursor probed in
  let probe_lo = probed.Tsj_tree.Binary_tree.size - probe_tau in
  let probe_hi = probed.Tsj_tree.Binary_tree.size + probe_tau in
  let probe_lookups =
    let width = (2 * probe_tau) + 1 in
    let band_indexed band =
      Array.exists
        (fun tree ->
          let size = Tsj_tree.Tree.size tree in
          size / width = band && size >= (2 * probe_tau) + 1)
        stored
    in
    let bands =
      List.filter band_indexed
        (List.init ((probe_hi / width) - (probe_lo / width) + 1) (( + ) (probe_lo / width)))
    in
    (* (ll, lr), (ll, ε), (ε, lr), (ε, ε), less those a missing child
       makes equal and those of a shape no subgraph has. *)
    let variants = ref 0 in
    let { Tsj_tree.Binary_tree.left; right; _ } = probed in
    for v = 0 to probed.Tsj_tree.Binary_tree.size - 1 do
      List.iter
        (fun l ->
          List.iter
            (fun r -> if !held land shape ~left:l ~right:r <> 0 then incr variants)
            (List.sort_uniq compare [ false; right.(v) >= 0 ]))
        (List.sort_uniq compare [ false; left.(v) >= 0 ])
    done;
    List.length bands * !variants
  in
  let probe_name =
    Printf.sprintf "partsj/index-probe (%d nodes, 2000 trees)" probed.Tsj_tree.Binary_tree.size
  in
  (* The codec rows parse and print a swissprot tree of about 60 nodes,
     the shape perfbench's [query] and [exact] workloads send. *)
  let codec_tree =
    let pool = Tsj_datagen.Profiles.(instantiate swissprot ~seed:802 ~n:200) in
    Option.value ~default:pool.(0)
      (Array.find_opt (fun t -> abs (Tsj_tree.Tree.size t - 60) <= 2) pool)
  in
  let codec_text = Tsj_tree.Bracket.to_string codec_tree in
  let codec_shape =
    Printf.sprintf "(%d nodes, %d bytes)" (Tsj_tree.Tree.size codec_tree)
      (String.length codec_text)
  in
  let tests =
    [
      Test.make ~name:("codec/parse " ^ codec_shape)
        (Staged.stage (fun () -> Tsj_tree.Bracket.of_string codec_text));
      Test.make ~name:("codec/render " ^ codec_shape)
        (Staged.stage (fun () -> Tsj_tree.Bracket.to_string codec_tree));
      Test.make ~name:"ted/full band (80 vs 80, far)"
        (Staged.stage (fun () -> Tsj_ted.Ted.distance_prep prep1 prep2));
      Test.make ~name:"ted/full band (80 vs 80, near)"
        (Staged.stage (fun () -> Tsj_ted.Ted.distance_prep prep1 prep_near));
      Test.make ~name:"ted/banded tau=3 (80 vs 80, near)"
        (Staged.stage (fun () -> Tsj_ted.Ted.bounded_distance_prep prep1 prep_near 3));
      Test.make ~name:"ted/banded tau=3 (80 vs 80, far)"
        (Staged.stage (fun () -> Tsj_ted.Ted.bounded_distance_prep prep1 prep2 3));
      Test.make ~name:"form/one walk (80)" (Staged.stage (fun () -> Tsj_tree.Form.of_tree t80));
      Test.make ~name:"lcrs/of postorder (80)"
        (Staged.stage (fun () ->
             Tsj_tree.Binary_tree.of_postorder (Tsj_ted.Ted.left_postorder prep1)));
      Test.make ~name:"filter/banded-sed tau=3 (80)"
        (Staged.stage (fun () -> Tsj_ted.String_edit.within pre1 pre2 3));
      Test.make ~name:"filter/banded-sed tau=3 (80 vs 80, near)"
        (Staged.stage (fun () -> Tsj_ted.String_edit.within pre1 pre_near 3));
      Test.make
        ~name:(Printf.sprintf "cascade/label bag (%d)" (Array.length labels1))
        (Staged.stage (fun () -> Tsj_util.Multiset.of_unsorted labels1));
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
      Test.make ~name:probe_name
        (Staged.stage (fun () ->
             let hits = ref 0 in
             Tsj_core.Two_layer_index.probe filled_index probe_cursor ~lo:probe_lo
               ~hi:probe_hi (fun _ _ -> incr hits);
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
            let row = [ name; Printf.sprintf "%.0f ns" ns ] in
            if name = probe_name then
              [ Printf.sprintf "partsj/index-probe per lookup (%d lookups)" probe_lookups;
                Printf.sprintf "%.1f ns" (ns /. float_of_int probe_lookups) ]
              :: row :: acc
            else row :: acc)
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
