module Types = Tsj_join.Types
module Profiles = Tsj_datagen.Profiles
module Generator = Tsj_datagen.Generator

type config = {
  scale : float;
  seed : int;
  taus : int list;
  out : out_channel;
  domains : int;  (** domain count for the PartSJ runs (1 = sequential) *)
}

let default_config =
  {
    scale = 1.0;
    seed = 42;
    taus = [ 1; 2; 3; 4; 5 ];
    out = stdout;
    domains = 1;
  }

(* Laptop-scale default cardinalities per dataset (paper: 100K / 50K /
   10K / 10K). *)
let base_cardinality (p : Profiles.t) =
  match p.Profiles.name with
  | "swissprot" -> 1200
  | "treebank" -> 1200
  | "sentiment" -> 800
  | _ -> 800

let cardinality config profile =
  max 10 (int_of_float (float_of_int (base_cardinality profile) *. config.scale))

let printf config fmt = Printf.fprintf config.out fmt

let dataset config profile n =
  let trees = Profiles.instantiate profile ~seed:config.seed ~n in
  printf config "  [%s: %s]\n%!" profile.Profiles.name (Profiles.describe trees);
  trees

(* One instrumented run; rows feed both the runtime and candidate tables. *)
type row = { method_ : Methods.t; label : string; output : Types.output }

let run_method config ~trees ~tau ~label method_ =
  let output = Methods.run ~domains:config.domains method_ ~trees ~tau in
  printf config "    %s tau=%d %s: %s\n%!" (Methods.name method_) tau label
    (Format.asprintf "%a" Types.pp_stats output.Types.stats);
  { method_; label; output }

let runtime_table config ~key rows =
  Table.print ~out:config.out
    ~header:[ key; "method"; "cand-gen"; "TED verify"; "total"; "candidates"; "results" ]
    ~align:[ Table.Left; Left; Right; Right; Right; Right; Right ]
    (List.map
       (fun r ->
         let s = r.output.Types.stats in
         [
           r.label;
           Methods.name r.method_;
           Table.seconds s.Types.candidate_time_s;
           Table.seconds s.Types.verify_time_s;
           Table.seconds (Types.total_time_s s);
           Table.count s.Types.n_candidates;
           Table.count s.Types.n_results;
         ])
       rows)

let candidate_table config ~key rows =
  (* Figures 11/13: one row per x-value, one column per method, plus REL. *)
  (* Preserve first-occurrence order: numeric labels sort wrongly as
     strings ("n=1200" < "n=240"). *)
  let dedupe xs =
    List.rev
      (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)
  in
  let labels = dedupe (List.map (fun r -> r.label) rows) in
  let methods = dedupe (List.map (fun r -> r.method_) rows) in
  let find label m =
    List.find_opt (fun r -> r.label = label && r.method_ = m) rows
  in
  let header = key :: List.map Methods.name methods @ [ "REL" ] in
  let data =
    List.map
      (fun label ->
        let cells =
          List.map
            (fun m ->
              match find label m with
              | Some r -> Table.count r.output.Types.stats.Types.n_candidates
              | None -> "-")
            methods
        in
        let rel =
          match List.find_opt (fun r -> r.label = label) rows with
          | Some r -> Table.count r.output.Types.stats.Types.n_results
          | None -> "-"
        in
        (label :: cells) @ [ rel ])
      labels
  in
  Table.print ~out:config.out ~header
    ~align:(Table.Left :: List.map (fun _ -> Table.Right) (List.tl header))
    data

(* --- Figures 10 & 11: vary tau on the four datasets --- *)

let fig10_11 config =
  Table.heading ~out:config.out
    "Figures 10 & 11 — runtime split and candidate counts vs TED threshold";
  List.iter
    (fun profile ->
      let n = cardinality config profile in
      printf config "\n-- dataset %s (n = %d) --\n" profile.Profiles.name n;
      let trees = dataset config profile n in
      let rows =
        List.concat_map
          (fun tau ->
            List.map
              (fun m ->
                run_method config ~trees ~tau ~label:(Printf.sprintf "tau=%d" tau) m)
              Methods.paper_methods)
          config.taus
      in
      printf config "\n  Figure 10 (%s): runtime\n" profile.Profiles.name;
      runtime_table config ~key:"tau" rows;
      printf config "\n  Figure 11 (%s): candidates\n" profile.Profiles.name;
      candidate_table config ~key:"tau" rows)
    Profiles.all

(* --- Figures 12 & 13: vary cardinality at tau = 3 --- *)

let fig12_13 config =
  Table.heading ~out:config.out
    "Figures 12 & 13 — runtime split and candidate counts vs dataset cardinality (tau=3)";
  let tau = 3 in
  List.iter
    (fun profile ->
      let full = cardinality config profile in
      let steps = List.map (fun f -> max 10 (full * f / 5)) [ 1; 2; 3; 4; 5 ] in
      printf config "\n-- dataset %s (n = %s) --\n" profile.Profiles.name
        (String.concat ", " (List.map string_of_int steps));
      let all_trees = dataset config profile full in
      let rows =
        List.concat_map
          (fun n ->
            let trees = Array.sub all_trees 0 n in
            List.map
              (fun m ->
                run_method config ~trees ~tau ~label:(Printf.sprintf "n=%d" n) m)
              Methods.paper_methods)
          steps
      in
      printf config "\n  Figure 12 (%s): runtime\n" profile.Profiles.name;
      runtime_table config ~key:"cardinality" rows;
      printf config "\n  Figure 13 (%s): candidates\n" profile.Profiles.name;
      candidate_table config ~key:"cardinality" rows)
    Profiles.all

(* --- Table 1 + Figure 14: sensitivity to the generator parameters --- *)

let fig14 config =
  Table.heading ~out:config.out
    "Table 1 + Figure 14 — sensitivity to tree parameters (synthetic, tau=3)";
  let tau = 3 in
  let n = max 10 (int_of_float (600.0 *. config.scale)) in
  let base = Profiles.synthetic in
  let sweeps =
    [
      ( "maximum fanout f",
        List.map
          (fun f -> (Printf.sprintf "f=%d" f, { base.Profiles.params with Generator.max_fanout = f }))
          [ 2; 3; 4; 5; 6 ] );
      ( "maximum depth d",
        List.map
          (fun d -> (Printf.sprintf "d=%d" d, { base.Profiles.params with Generator.max_depth = d }))
          [ 4; 5; 6; 7; 8 ] );
      ( "number of labels l",
        List.map
          (fun l -> (Printf.sprintf "l=%d" l, { base.Profiles.params with Generator.n_labels = l }))
          [ 3; 5; 10; 20; 50 ] );
      ( "average tree size t",
        List.map
          (fun t ->
            (* Table 1 combines t up to 200 with f = 3, d = 5, which no
               tree can satisfy (capacity(3,5) = 121): raise the depth cap
               just enough for the size target, as the printed dataset
               stats make visible. *)
            let rec fit d =
              if Generator.capacity ~max_fanout:3 ~max_depth:d >= t + (t / 4) then d
              else fit (d + 1)
            in
            ( Printf.sprintf "t=%d" t,
              {
                base.Profiles.params with
                Generator.avg_size = t;
                max_depth = max base.Profiles.params.Generator.max_depth (fit 1);
              } ))
          [ 40; 80; 120; 160; 200 ] );
    ]
  in
  List.iter
    (fun (title, variants) ->
      printf config "\n-- varying %s (n = %d) --\n" title n;
      let rows =
        List.concat_map
          (fun (label, params) ->
            let profile = Profiles.with_params base params in
            let trees = Profiles.instantiate profile ~seed:config.seed ~n in
            printf config "  [%s: %s]\n%!" label (Profiles.describe trees);
            List.map (fun m -> run_method config ~trees ~tau ~label m)
              Methods.paper_methods)
          variants
      in
      printf config "\n  Figure 14 (%s): runtime\n" title;
      runtime_table config ~key:"value" rows;
      printf config "\n  Figure 14 (%s): candidates\n" title;
      candidate_table config ~key:"value" rows)
    sweeps

(* --- Ablations --- *)

let ablation config =
  Table.heading ~out:config.out
    "Ablations — partitioning scheme and index variants (Section 4.3 note)";
  List.iter
    (fun profile ->
      let n = max 10 (cardinality config profile * 3 / 4) in
      printf config "\n-- dataset %s (n = %d) --\n" profile.Profiles.name n;
      let trees = dataset config profile n in
      let rows =
        List.concat_map
          (fun tau ->
            let label = Printf.sprintf "tau=%d" tau in
            let balanced = run_method config ~trees ~tau ~label Methods.Prt in
            let random = run_method config ~trees ~tau ~label Methods.Prt_random in
            let paper_idx = run_method config ~trees ~tau ~label Methods.Prt_paper_index in
            let label_only =
              let output =
                Tsj_core.Partsj.join ~index_mode:Tsj_core.Two_layer_index.Label_only
                  ~trees ~tau ()
              in
              { method_ = Methods.Prt; label = label ^ " (label-only)"; output }
            in
            let missed =
              balanced.output.Types.stats.Types.n_results
              - paper_idx.output.Types.stats.Types.n_results
            in
            printf config
              "    paper rank windows at tau=%d: %d result pair(s) missed vs sound index\n"
              tau missed;
            [ balanced; random; paper_idx; label_only ])
          [ 1; 2; 3; 4; 5 ]
      in
      printf config "\n  Ablation (%s): runtime and candidates\n" profile.Profiles.name;
      Table.print ~out:config.out
        ~header:[ "variant"; "method"; "cand-gen"; "TED verify"; "total"; "candidates"; "results" ]
        ~align:[ Table.Left; Left; Right; Right; Right; Right; Right ]
        (List.map
           (fun r ->
             let s = r.output.Types.stats in
             [
               r.label;
               Methods.name r.method_;
               Table.seconds s.Types.candidate_time_s;
               Table.seconds s.Types.verify_time_s;
               Table.seconds (Types.total_time_s s);
               Table.count s.Types.n_candidates;
               Table.count s.Types.n_results;
             ])
           rows))
    [ Profiles.synthetic; Profiles.sentiment ]

(* --- extensions: multicore verification and streaming throughput --- *)

let parallel config =
  Table.heading ~out:config.out
    "Extension — parallel PartSJ (paper future work: multi-core)";
  let profile = Profiles.synthetic in
  let n = cardinality config profile in
  let trees = dataset config profile n in
  let tau = 3 in
  let rec_domains = Tsj_join.Parallel.recommended_domains () in
  let domain_counts = List.sort_uniq compare [ 1; 2; 4; rec_domains ] in
  let rows =
    List.filter_map
      (fun domains ->
        if domains > rec_domains && domains > 2 then None
        else begin
          let output, dt =
            Tsj_util.Timer.wall (fun () ->
                Tsj_core.Partsj.join ~domains ~trees ~tau ())
          in
          let s = output.Types.stats in
          Some
            [
              string_of_int domains;
              Table.seconds s.Types.candidate_time_s;
              Table.seconds s.Types.verify_time_s;
              Table.seconds dt;
              Table.count s.Types.n_results;
            ]
        end)
      domain_counts
  in
  printf config "\n  (tau = %d, %d trees, available domains = %d;\n" tau n rec_domains;
  printf config
    "   cand-gen / verify are attributed task times, which overlap in wall time)\n";
  Table.print ~out:config.out
    ~header:[ "domains"; "cand-gen"; "TED verify"; "total (wall)"; "results" ]
    ~align:[ Table.Right; Right; Right; Right; Right ]
    rows

(* --- end-to-end phase benchmark + machine-readable record --- *)

let perf config =
  Table.heading ~out:config.out
    "PartSJ end-to-end phase benchmark (fig10-style synthetic, tau = 3)";
  let profile = Profiles.synthetic in
  let n = cardinality config profile in
  let trees = dataset config profile n in
  let tau = 3 in
  let rec_domains = Tsj_join.Parallel.recommended_domains () in
  let domains = if config.domains > 1 then config.domains else rec_domains in
  let run ?(trees = trees) ~cascade d =
    let phases = ref None in
    let (output, pstats), wall =
      Tsj_util.Timer.wall (fun () ->
          Tsj_core.Partsj.join_with_probe_stats ~domains:d ~cascade
            ~on_phases:(fun p -> phases := Some p)
            ~trees ~tau ())
    in
    (output, pstats, Option.get !phases, wall)
  in
  (* Before/after in one invocation: [cascade:false] is the kernel alone
     (the τ-banded kernel on every candidate), the other two runs
     exercise the full filter cascade at one and [domains] domains.  A
     full-scale run repeats the three as 11 rounds, every other round in
     reverse order, so neither a cold first run nor a drifting host lands
     on one configuration; the speedup is a median over the rounds, and a
     best domain count is named only when the wall-time quartile ranges
     at 1 and [domains] domains do not overlap.  The tables, the record's
     runs and the determinism and losslessness checks use the first
     round. *)
  let rounds = if config.scale >= 1.0 then 11 else 1 in
  let round i =
    let order = [ (false, 1); (true, 1); (true, domains) ] in
    let order = if i mod 2 = 0 then order else List.rev order in
    let results = List.map (fun (cascade, d) -> run ~cascade d) order in
    match if i mod 2 = 0 then results else List.rev results with
    | [ off; on1; onN ] -> (off, on1, onN)
    | _ -> assert false
  in
  let all_rounds = List.init rounds round in
  let (ob, pb, phb, wb), (o1, p1, ph1, w1), (oN, pN, phN, wN) = List.hd all_rounds in
  let consistent (o : Types.output) =
    let s = o.Types.stats in
    Types.cascade_total s.Types.cascade = s.Types.n_candidates
  in
  let identical =
    Types.equal_results o1 oN
    && o1.Types.stats.Types.n_candidates = oN.Types.stats.Types.n_candidates
    && o1.Types.stats.Types.cascade = oN.Types.stats.Types.cascade
    && p1 = pN
  in
  let lossless =
    Types.equal_results ob o1
    && ob.Types.stats.Types.n_candidates = o1.Types.stats.Types.n_candidates
    && pb = p1
  in
  let row label (o : Types.output) (ph : Tsj_core.Partsj.phase_times) wall =
    let s = o.Types.stats in
    [
      label;
      Table.seconds ph.Tsj_core.Partsj.prep_wall_s;
      Table.seconds ph.Tsj_core.Partsj.sweep_wall_s;
      Table.seconds s.Types.verify_time_s;
      Table.seconds wall;
      Table.count s.Types.n_candidates;
      Table.count s.Types.n_results;
    ]
  in
  printf config "\n  (n = %d, available domains = %d)\n" n rec_domains;
  Table.print ~out:config.out
    ~header:
      [ "run"; "prep (wall)"; "sweep (wall)"; "verify (attr)"; "total (wall)";
        "candidates"; "results" ]
    ~align:[ Table.Left; Right; Right; Right; Right; Right; Right ]
    [
      row "cascade off, 1 dom" ob phb wb;
      row "cascade on, 1 dom" o1 ph1 w1;
      row (Printf.sprintf "cascade on, %d dom" domains) oN phN wN;
    ];
  let cascade_row label (o : Types.output) =
    let c = o.Types.stats.Types.cascade in
    [
      label;
      Table.count c.Types.pruned_size;
      Table.count c.Types.pruned_labels;
      Table.count c.Types.pruned_degrees;
      Table.count c.Types.pruned_sed;
      Table.count c.Types.early_accepted;
      Table.count c.Types.kernel_verified;
    ]
  in
  printf config "\n  Per-stage cascade decisions (partition the candidate set):\n";
  Table.print ~out:config.out
    ~header:[ "run"; "size"; "labels"; "degrees"; "sed"; "early"; "kernel" ]
    ~align:[ Table.Left; Right; Right; Right; Right; Right; Right ]
    [
      cascade_row "cascade off, 1 dom" ob;
      cascade_row "cascade on, 1 dom" o1;
      cascade_row (Printf.sprintf "cascade on, %d dom" domains) oN;
    ];
  let quartiles xs =
    let at = Tsj_util.Statistics.percentile (Array.of_list xs) in
    (at 25.0, at 50.0, at 75.0)
  in
  let speedup_q1, verify_speedup, speedup_q3 =
    quartiles
      (List.map
         (fun ((off, _, _, _), (on, _, _, _), _) ->
           off.Types.stats.Types.verify_time_s /. on.Types.stats.Types.verify_time_s)
         all_rounds)
  in
  let wall_1_q1, wall_1, wall_1_q3 =
    quartiles (List.map (fun (_, (_, _, _, w), _) -> w) all_rounds)
  in
  let wall_n_q1, wall_n, wall_n_q3 =
    quartiles (List.map (fun (_, _, (_, _, _, w)) -> w) all_rounds)
  in
  (* Measured crossover: the domain count that minimises the wall clock
     on this machine (oversubscribed boxes regress past 1), named only
     when the two quartile ranges are disjoint; a single round has no
     range.  A shared host moves one median by tens of percent. *)
  let measured_domains =
    if rounds < 2 then None
    else if wall_n_q3 < wall_1_q1 then Some domains
    else if wall_1_q3 < wall_n_q1 then Some 1
    else None
  in
  let measured_to ~none = Option.fold ~none ~some:string_of_int measured_domains in
  printf config
    "  verify speedup (cascade off -> on, 1 domain): %.2fx (median of %d rounds, \
     quartiles %.2f-%.2f)\n"
    verify_speedup rounds speedup_q1 speedup_q3;
  printf config
    "  measured best domain count: %s (wall quartiles %.3f-%.3f s at 1, %.3f-%.3f s \
     at %d)\n"
    (measured_to ~none:"unresolved") wall_1_q1 wall_1_q3 wall_n_q1 wall_n_q3 domains;
  printf config "  determinism (domains=1 vs domains=%d): %s\n" domains
    (if identical then "identical pairs, candidates, cascade counters and probe stats"
     else "MISMATCH — results differ across domain counts!");
  printf config "  cascade losslessness (off vs on): %s\n"
    (if lossless then "identical pairs, distances and candidates"
     else "MISMATCH — cascade changed the join output!");
  (* Machine-readable record, hand-rolled (no JSON dependency in the
     toolchain).  One run object per configuration; written only at full
     scale, so a smoke run never overwrites the committed record. *)
  let json_run label ~cascade d (o : Types.output)
      (ph : Tsj_core.Partsj.phase_times) wall =
    let s = o.Types.stats in
    let c = s.Types.cascade in
    Printf.sprintf
      "    {\n\
      \      \"label\": \"%s\",\n\
      \      \"domains\": %d,\n\
      \      \"cascade\": %b,\n\
      \      \"prep_wall_s\": %.6f,\n\
      \      \"sweep_wall_s\": %.6f,\n\
      \      \"total_wall_s\": %.6f,\n\
      \      \"candidate_time_s\": %.6f,\n\
      \      \"verify_time_s\": %.6f,\n\
      \      \"n_candidates\": %d,\n\
      \      \"n_results\": %d,\n\
      \      \"pruned_size\": %d,\n\
      \      \"pruned_labels\": %d,\n\
      \      \"pruned_degrees\": %d,\n\
      \      \"pruned_sed\": %d,\n\
      \      \"early_accepted\": %d,\n\
      \      \"kernel_verified\": %d\n\
      \    }"
      label d cascade ph.Tsj_core.Partsj.prep_wall_s
      ph.Tsj_core.Partsj.sweep_wall_s wall s.Types.candidate_time_s
      s.Types.verify_time_s s.Types.n_candidates s.Types.n_results
      c.Types.pruned_size c.Types.pruned_labels c.Types.pruned_degrees
      c.Types.pruned_sed c.Types.early_accepted c.Types.kernel_verified
  in
  if config.scale >= 1.0 then begin
    let oc = open_out "BENCH_partsj.json" in
    Printf.fprintf oc
      "{\n\
      \  \"benchmark\": \"partsj_join\",\n\
      \  \"dataset\": \"%s\",\n\
      \  \"n_trees\": %d,\n\
      \  \"tau\": %d,\n\
      \  \"seed\": %d,\n\
      \  \"recommended_domains\": %s,\n\
      \  \"rounds\": %d,\n\
      \  \"verify_speedup_cascade\": %.4f,\n\
      \  \"verify_speedup_cascade_q1\": %.4f,\n\
      \  \"verify_speedup_cascade_q3\": %.4f,\n\
      \  \"median_wall_s_1_domain\": %.6f,\n\
      \  \"median_wall_s_n_domains\": %.6f,\n\
      \  \"identical_across_domains\": %b,\n\
      \  \"cascade_lossless\": %b,\n\
      \  \"runs\": [\n%s,\n%s,\n%s\n  ]\n\
       }\n"
      profile.Profiles.name n tau config.seed (measured_to ~none:"null") rounds
      verify_speedup speedup_q1 speedup_q3 wall_1 wall_n identical lossless
      (json_run "baseline_kernel_only" ~cascade:false 1 ob phb wb)
      (json_run "cascade" ~cascade:true 1 o1 ph1 w1)
      (json_run "cascade_parallel" ~cascade:true domains oN phN wN);
    close_out oc;
    printf config "  wrote BENCH_partsj.json\n"
  end;
  List.iter
    (fun (label, o) ->
      if not (consistent o) then
        failwith
          (Printf.sprintf
             "Experiments.perf: cascade counters of %s do not sum to the \
              candidate count"
             label))
    [ ("cascade off", ob); ("cascade on", o1); ("cascade on parallel", oN) ];
  if not identical then failwith "Experiments.perf: results differ across domain counts";
  if not lossless then failwith "Experiments.perf: cascade changed the join output";
  (* The same cross-domain check on the subtree-repetition-heavy
     [redundant] profile, whose exact re-submissions are decided by the
     cascade as [Accept 0] without a kernel run. *)
  let redundant = Profiles.redundant in
  let r_trees = dataset config redundant (cardinality config redundant) in
  let r1, rp1, _, _ = run ~trees:r_trees ~cascade:true 1 in
  let rN, rpN, _, _ = run ~trees:r_trees ~cascade:true domains in
  let r_identical = Types.equal_deterministic r1 rN && rp1 = rpN in
  printf config "  determinism on %s (domains=1 vs domains=%d): %s\n"
    redundant.Profiles.name domains
    (if r_identical then "identical output and probe stats"
     else "MISMATCH — results differ across domain counts!");
  if not r_identical then
    failwith "Experiments.perf: redundant-profile results differ across domain counts"

let streaming config =
  Table.heading ~out:config.out
    "Extension — streaming (incremental) join throughput";
  let profile = Profiles.swissprot in
  let n = cardinality config profile in
  let trees = Profiles.instantiate profile ~seed:config.seed ~n in
  let tau = 2 in
  let inc = Tsj_core.Incremental.create ~tau () in
  let checkpoint = max 1 (n / 5) in
  let pairs = ref 0 in
  let t0 = Unix.gettimeofday () in
  let rows = ref [] in
  Array.iteri
    (fun i tree ->
      pairs := !pairs + List.length (Tsj_core.Incremental.add inc tree);
      if (i + 1) mod checkpoint = 0 then begin
        let dt = Unix.gettimeofday () -. t0 in
        rows :=
          [
            string_of_int (i + 1);
            Printf.sprintf "%.0f" (float_of_int (i + 1) /. dt);
            Table.count !pairs;
          ]
          :: !rows
      end)
    trees;
  printf config "\n  (%s profile, tau = %d, arrival order = generation order)\n"
    profile.Profiles.name tau;
  Table.print ~out:config.out
    ~header:[ "trees inserted"; "docs/s (cumulative)"; "pairs reported" ]
    ~align:[ Table.Right; Right; Right ]
    (List.rev !rows)

(* --- resilience: kill-and-resume and graceful degradation --- *)

let resilience config =
  Table.heading ~out:config.out
    "Extension — resilient execution (checkpoint/resume, per-pair budgets)";
  let profile = Profiles.synthetic in
  let n = cardinality config profile in
  let trees = dataset config profile n in
  let tau = 3 in
  (* Kill-and-resume: crash between two blocks, resume from the journal,
     demand bit-identical pairs, quarantine and deterministic counters —
     at one domain and at the configured parallel count. *)
  let rec_domains = Tsj_join.Parallel.recommended_domains () in
  let domain_counts =
    List.sort_uniq compare
      [ 1; (if config.domains > 1 then config.domains else min 4 rec_domains) ]
  in
  let rows =
    List.map
      (fun domains ->
        let r, dt =
          Tsj_util.Timer.wall (fun () ->
              Faults.run_kill_and_resume ~domains ~kill_at_block:1 ~trees ~tau ())
        in
        let identical = Types.equal_deterministic r.Faults.uninterrupted r.Faults.resumed in
        if not identical then
          failwith
            (Printf.sprintf
               "Experiments.resilience: resumed output differs at %d domain(s)" domains);
        [
          string_of_int domains;
          (if r.Faults.killed then "yes" else "no (too few blocks)");
          Table.count (List.length r.Faults.resumed.Types.pairs);
          (if identical then "yes" else "NO");
          Table.seconds dt;
        ])
      domain_counts
  in
  printf config "\n  (tau = %d, %d trees, crash injected at block 1, journal every block)\n"
    tau n;
  Table.print ~out:config.out
    ~header:[ "domains"; "crashed"; "pairs"; "resume identical"; "scenario time" ]
    ~align:[ Table.Right; Left; Right; Left; Right ]
    rows;
  (* Graceful degradation: a tiny per-pair budget must cost results only
     to the quarantine record, never invent pairs or lose one silently. *)
  let r = Faults.run_budgeted ~domains:config.domains ~pair_cost_limit:1 ~trees ~tau () in
  if r.Faults.false_positives <> [] then
    failwith "Experiments.resilience: budgeted join reported a false positive";
  if r.Faults.unaccounted <> [] then
    failwith "Experiments.resilience: budgeted join lost a pair without quarantining it";
  printf config
    "\n  per-pair budget 1: %d/%d pairs reported, %d quarantined, 0 false positives, \
     0 unaccounted\n"
    (List.length r.Faults.budgeted.Types.pairs)
    (List.length r.Faults.truth.Types.pairs)
    (List.length r.Faults.budgeted.Types.quarantined)

let experiments =
  [
    ("fig10", fig10_11);
    ("fig12", fig12_13);
    ("fig14", fig14);
    ("ablation", ablation);
    ("parallel", parallel);
    ("perf", perf);
    ("streaming", streaming);
    ("resilience", resilience);
  ]

let run_all config = List.iter (fun (_, run) -> run config) experiments
