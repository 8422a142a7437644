(* tsj — command-line interface to the tree similarity join library.

   Subcommands:
     ted        exact tree edit distance between two bracket trees
     join       similarity self-join over a file of bracket trees
     gen        generate a synthetic dataset to a file
     partition  show the delta-partitioning of a tree
     search     similarity search / top-k over an indexed collection
     serve      run the fault-tolerant similarity-search service
     query      query (or administer) a running serve instance
     fsck       verify (and optionally repair) a state directory offline
     bench      run the paper-figure experiments *)

open Cmdliner

module Bracket = Tsj_tree.Bracket
module Types = Tsj_join.Types

type format = Bracket_fmt | Sexp_fmt | Xml_fmt

let format_arg =
  Cmdliner.Arg.(
    value
    & opt (enum [ ("bracket", Bracket_fmt); ("sexp", Sexp_fmt); ("xml", Xml_fmt) ]) Bracket_fmt
    & info [ "format" ]
        ~doc:"Input format: bracket ({a{b}}), sexp (Penn Treebank) or xml.")

let load_trees ?(format = Bracket_fmt) path =
  let result =
    match format with
    | Bracket_fmt -> Bracket.load_file path
    | Sexp_fmt -> Tsj_tree.Sexp_format.load_file ~drop_words:true path
    | Xml_fmt ->
      (match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error msg -> Error msg
      | contents ->
        Result.map
          (List.map (Tsj_xml.Xml.to_tree ~keep_text:true ~keep_attrs:false))
          (Tsj_xml.Xml_parser.parse_fragments contents))
  in
  match result with
  | Ok trees -> Array.of_list trees
  | Error msg ->
    (* Parse errors carry "line L, column C"; exit 2 = bad input. *)
    Printf.eprintf "tsj: cannot load %s: %s\n" path msg;
    exit 2

(* Lenient load for --skip-malformed: unparseable records become
   [Malformed] quarantine records instead of failing the run.  [q_i] is
   the ordinal of the skipped record among the errors (the record never
   received a tree index). *)
let load_trees_lenient ~format path =
  let lenient =
    match format with
    | Bracket_fmt -> Bracket.load_file_lenient path
    | Xml_fmt ->
      (match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error msg -> Error msg
      | contents ->
        let docs, errors = Tsj_xml.Xml_parser.parse_fragments_lenient contents in
        Ok (List.map (Tsj_xml.Xml.to_tree ~keep_text:true ~keep_attrs:false) docs, errors))
    | Sexp_fmt ->
      Printf.eprintf "tsj: --skip-malformed is not supported for the sexp format\n";
      exit 2
  in
  match lenient with
  | Error msg ->
    Printf.eprintf "tsj: cannot load %s: %s\n" path msg;
    exit 2
  | Ok (trees, errors) ->
    let malformed =
      List.mapi
        (fun k (line, col, message) ->
          { Types.q_i = k; q_j = None; q_reason = Types.Malformed { line; col; message } })
        errors
    in
    if malformed <> [] then
      Printf.eprintf "tsj: %s: skipped %d malformed record(s)\n" path
        (List.length malformed);
    (Array.of_list trees, malformed)

let parse_tree_arg s =
  (* Accept either a literal bracket tree or @file containing one. *)
  let text =
    if String.length s > 0 && s.[0] = '@' then
      In_channel.with_open_text (String.sub s 1 (String.length s - 1)) In_channel.input_all
    else s
  in
  match Bracket.of_string text with
  | Ok t -> t
  | Error msg ->
    Printf.eprintf "tsj: bad tree %S: %s\n" s msg;
    exit 2

(* --- ted --- *)

let ted_cmd =
  let t1 =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TREE1"
           ~doc:"First tree in bracket notation (or @file).")
  in
  let t2 =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"TREE2"
           ~doc:"Second tree in bracket notation (or @file).")
  in
  let run t1 t2 =
    let a = parse_tree_arg t1 and b = parse_tree_arg t2 in
    Printf.printf "%d\n" (Tsj_ted.Ted.distance a b)
  in
  Cmd.v
    (Cmd.info "ted" ~doc:"Exact tree edit distance between two trees")
    Term.(const run $ t1 $ t2)

(* --- join --- *)

let method_conv =
  let parse s =
    match Tsj_harness.Methods.of_name s with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown method %S" s))
  in
  Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (Tsj_harness.Methods.name m))

let join_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"File of bracket trees (one per line; # comments allowed).")
  in
  let tau =
    Arg.(value & opt int 1 & info [ "tau"; "t" ] ~doc:"TED threshold.")
  in
  let method_ =
    Arg.(value & opt method_conv Tsj_harness.Methods.Prt
         & info [ "method"; "m" ] ~doc:"Join method: NL, STR, SET, PRT, PRT-random, PRT-paper.")
  in
  let show_pairs =
    Arg.(value & flag & info [ "pairs"; "p" ] ~doc:"Print the joined tree pairs.")
  in
  let metric =
    Arg.(value
         & opt
             (enum [ ("ted", Tsj_ted.Bounds.Ted); ("constrained", Tsj_ted.Bounds.Constrained) ])
             Tsj_ted.Bounds.Ted
         & info [ "metric" ] ~doc:"Distance metric: ted or constrained.")
  in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "jobs"; "j" ]
             ~doc:"OCaml domains for the PartSJ pipeline (default: the \
                   recommended count, honoring TSJ_DOMAINS; baselines are \
                   sequential).")
  in
  let time_budget =
    Arg.(value & opt (some float) None
         & info [ "time-budget" ] ~docv:"SECS"
             ~doc:"Wall-clock budget for the join; on expiry the join stops \
                   cooperatively and unprocessed work is reported as \
                   quarantined (PRT methods only).")
  in
  let pair_budget =
    Arg.(value & opt (some int) None
         & info [ "pair-budget" ] ~docv:"COST"
             ~doc:"Per-pair verification budget in cost units (|T1|*|T2|); a \
                   candidate pair over the budget is quarantined with its \
                   bound sandwich instead of verified (PRT methods only).")
  in
  let checkpoint_file =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Journal join progress to $(docv) after every block (PRT \
                   methods only).")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Resume from the --checkpoint journal if it exists; the \
                   resumed output is identical to an uninterrupted run.")
  in
  let skip_malformed =
    Arg.(value & flag
         & info [ "skip-malformed" ]
             ~doc:"Skip unparseable input records (reporting their line and \
                   column) instead of aborting; each skipped record is listed \
                   in the quarantine summary.")
  in
  let run file tau method_ show_pairs format metric jobs time_budget pair_budget
      checkpoint_file resume skip_malformed =
    if tau < 0 then begin
      Printf.eprintf "tsj: tau must be non-negative\n";
      exit 2
    end;
    let domains =
      match jobs with
      | Some j when j >= 1 -> j
      | Some _ ->
        Printf.eprintf "tsj: -j must be >= 1\n";
        exit 2
      | None -> Tsj_join.Parallel.recommended_domains ()
    in
    if resume && checkpoint_file = None then begin
      Printf.eprintf "tsj: --resume requires --checkpoint FILE\n";
      exit 2
    end;
    if
      (time_budget <> None || pair_budget <> None || checkpoint_file <> None)
      && not (Tsj_harness.Methods.supports_resilience method_)
    then begin
      Printf.eprintf
        "tsj: --time-budget/--pair-budget/--checkpoint require a PRT method (got %s)\n"
        (Tsj_harness.Methods.name method_);
      exit 2
    end;
    let budget =
      match (time_budget, pair_budget) with
      | None, None -> None
      | _ ->
        (match
           Tsj_join.Budget.create ?time_budget_s:time_budget ?pair_cost_limit:pair_budget ()
         with
        | b -> Some b
        | exception Invalid_argument msg ->
          Printf.eprintf "tsj: %s\n" msg;
          exit 2)
    in
    let checkpoint =
      Option.map (fun path -> Tsj_join.Checkpoint.config ~resume path) checkpoint_file
    in
    let trees, malformed =
      if skip_malformed then load_trees_lenient ~format file
      else (load_trees ~format file, [])
    in
    let out =
      match Tsj_harness.Methods.run ~domains ~metric ?budget ?checkpoint method_ ~trees ~tau with
      | out -> out
      | exception Invalid_argument msg ->
        (* e.g. a corrupt or mismatched --resume journal *)
        Printf.eprintf "tsj: %s\n" msg;
        exit 2
    in
    let out = { out with Types.quarantined = malformed @ out.Types.quarantined } in
    Format.printf "%a@." Types.pp_stats out.Types.stats;
    (match out.Types.quarantined with
    | [] -> ()
    | qs ->
      Printf.printf "quarantined: %d\n" (List.length qs);
      if show_pairs then
        List.iter (fun q -> Format.printf "  %a@." Types.pp_quarantined q) qs);
    (* Sorted by (i, j), so the lines do not depend on the order in
       which a method finds its candidates. *)
    if show_pairs then
      List.iter
        (fun p ->
          Printf.printf "%d\t%d\t%d\t%s\t%s\n" p.Types.i p.Types.j p.Types.distance
            (Bracket.to_string trees.(p.Types.i))
            (Bracket.to_string trees.(p.Types.j)))
        (List.sort
           (fun (p : Types.pair) (q : Types.pair) -> compare (p.i, p.j) (q.i, q.j))
           out.Types.pairs)
  in
  Cmd.v
    (Cmd.info "join" ~doc:"Similarity self-join over a tree collection")
    Term.(const run $ file $ tau $ method_ $ show_pairs $ format_arg $ metric $ jobs
          $ time_budget $ pair_budget $ checkpoint_file $ resume $ skip_malformed)

(* --- gen --- *)

let gen_cmd =
  let output =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OUTPUT"
           ~doc:"Output file (bracket notation, one tree per line).")
  in
  let profile =
    Arg.(value & opt string "synthetic"
         & info [ "profile" ] ~doc:"Dataset profile: swissprot, treebank, sentiment or synthetic.")
  in
  let n = Arg.(value & opt int 1000 & info [ "count"; "n" ] ~doc:"Number of trees.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let fanout = Arg.(value & opt (some int) None & info [ "fanout"; "f" ] ~doc:"Override max fanout.") in
  let depth = Arg.(value & opt (some int) None & info [ "depth"; "d" ] ~doc:"Override max depth.") in
  let labels = Arg.(value & opt (some int) None & info [ "labels"; "l" ] ~doc:"Override label count.") in
  let size = Arg.(value & opt (some int) None & info [ "size"; "s" ] ~doc:"Override average tree size.") in
  let run output profile n seed fanout depth labels size =
    match Tsj_datagen.Profiles.find profile with
    | None ->
      Printf.eprintf "tsj: unknown profile %S\n" profile;
      exit 2
    | Some p ->
      let params = p.Tsj_datagen.Profiles.params in
      let params =
        {
          params with
          Tsj_datagen.Generator.max_fanout =
            Option.value fanout ~default:params.Tsj_datagen.Generator.max_fanout;
          max_depth = Option.value depth ~default:params.Tsj_datagen.Generator.max_depth;
          n_labels = Option.value labels ~default:params.Tsj_datagen.Generator.n_labels;
          avg_size = Option.value size ~default:params.Tsj_datagen.Generator.avg_size;
        }
      in
      let p = Tsj_datagen.Profiles.with_params p params in
      let trees = Tsj_datagen.Profiles.instantiate p ~seed ~n in
      Bracket.save_file output (Array.to_list trees);
      Printf.printf "wrote %s: %s\n" output (Tsj_datagen.Profiles.describe trees)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic tree dataset")
    Term.(const run $ output $ profile $ n $ seed $ fanout $ depth $ labels $ size)

(* --- partition --- *)

let partition_cmd =
  let tree =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TREE"
           ~doc:"Tree in bracket notation (or @file).")
  in
  let tau = Arg.(value & opt int 1 & info [ "tau"; "t" ] ~doc:"TED threshold (delta = 2*tau+1).") in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of text.") in
  let run tree tau dot =
    let t = parse_tree_arg tree in
    let delta = (2 * tau) + 1 in
    let b = (Tsj_tree.Form.of_tree t).lcrs in
    if b.Tsj_tree.Binary_tree.size < delta then begin
      Printf.printf
        "tree has %d nodes < delta = %d: too small to partition (kept whole by the join)\n"
        b.Tsj_tree.Binary_tree.size delta;
      exit 0
    end;
    let p = Tsj_core.Partition.partition b ~delta in
    if dot then begin
      print_string
        (Tsj_tree.Dot.of_partition b ~assignment:(Tsj_core.Partition.assignment p));
      exit 0
    end;
    Printf.printf "delta = %d, gamma (max-min component size) = %d\n" delta
      p.Tsj_core.Partition.gamma;
    let subs = Tsj_core.Subgraph.of_partition ~tree_id:0 p in
    Array.iter
      (fun s ->
        let l, ll, lr = Tsj_core.Subgraph.label_key s in
        Printf.printf
          "subgraph k=%d: root node %d (general postorder %d), %d nodes, twig key (%s,%s,%s)\n"
          s.Tsj_core.Subgraph.rank s.Tsj_core.Subgraph.root s.Tsj_core.Subgraph.root_gpost
          s.Tsj_core.Subgraph.n_nodes (Tsj_tree.Label.name l) (Tsj_tree.Label.name ll)
          (Tsj_tree.Label.name lr))
      subs;
    Printf.printf "bridging edges: %s\n"
      (String.concat ", "
         (List.map
            (fun (a, c) -> Printf.sprintf "%d->%d" a c)
            (Tsj_core.Partition.bridging_edges p)))
  in
  Cmd.v
    (Cmd.info "partition" ~doc:"Show the delta-partitioning PartSJ would index for a tree")
    Term.(const run $ tree $ tau $ dot)

(* --- search --- *)

let search_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Indexed collection: file of bracket trees.")
  in
  let query =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY"
           ~doc:"Query tree in bracket notation (or @file).")
  in
  let tau = Arg.(value & opt int 2 & info [ "tau"; "t" ] ~doc:"TED threshold.") in
  let top =
    Arg.(value & opt (some int) None
         & info [ "top"; "k" ] ~doc:"Return only the k nearest trees.")
  in
  let run file query tau top format =
    if tau < 0 then begin
      Printf.eprintf "tsj: tau must be non-negative\n";
      exit 2
    end;
    let trees = load_trees ~format file in
    let q = parse_tree_arg query in
    let idx = Tsj_core.Incremental.create ~tau () in
    Array.iter (Tsj_core.Incremental.insert idx) trees;
    let hits =
      match top with
      | Some k -> Tsj_core.Incremental.nearest ~k idx q
      | None -> (Tsj_core.Incremental.query idx q).Tsj_core.Incremental.hits
    in
    List.iter
      (fun (i, d) -> Printf.printf "%d\t%d\t%s\n" i d (Bracket.to_string trees.(i)))
      hits
  in
  Cmd.v
    (Cmd.info "search" ~doc:"Similarity search / top-k over an indexed collection")
    Term.(const run $ file $ query $ tau $ top $ format_arg)

(* --- serve --- *)

let addr_conv =
  let parse s =
    match Tsj_server.Protocol.addr_of_string s with
    | Ok a -> Ok a
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun fmt a ->
      Format.pp_print_string fmt (Tsj_server.Protocol.addr_to_string a))

let group_conv =
  let parse s =
    let parts =
      String.split_on_char ',' s |> List.map String.trim
      |> List.filter (fun p -> p <> "")
    in
    if parts = [] then Error (`Msg "empty shard group")
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | p :: rest -> (
          match Tsj_server.Protocol.addr_of_string p with
          | Ok a -> go (a :: acc) rest
          | Error msg -> Error (`Msg msg))
      in
      go [] parts
  in
  Arg.conv
    ( parse,
      fun fmt addrs ->
        Format.pp_print_string fmt
          (String.concat "," (List.map Tsj_server.Protocol.addr_to_string addrs))
    )

let serve_cmd =
  let addr =
    Arg.(required & pos 0 (some addr_conv) None & info [] ~docv:"ADDR"
           ~doc:"Listen address: a Unix socket path or host:port.")
  in
  let tau = Arg.(value & opt int 2 & info [ "tau"; "t" ] ~doc:"Index TED threshold.") in
  let dir =
    Arg.(value & opt (some string) None
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"State directory (snapshot + journal); without it the index \
                   is ephemeral.  An existing snapshot's tau overrides --tau.")
  in
  let max_inflight =
    Arg.(value & opt int 64
         & info [ "max-inflight" ]
             ~doc:"Admission watermark: work-bearing requests beyond it are \
                   shed with BUSY.")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECS"
             ~doc:"Per-request deadline; an over-deadline query returns a \
                   partial (degraded) answer with bound sandwiches.")
  in
  let drain_budget =
    Arg.(value & opt float 5.0
         & info [ "drain-budget" ] ~docv:"SECS"
             ~doc:"How long a drain (DRAIN request or SIGTERM) waits for \
                   inflight work before cancelling it.")
  in
  let preload =
    Arg.(value & opt (some file) None
         & info [ "preload" ] ~docv:"FILE"
             ~doc:"Seed the index with a file of bracket trees before serving.")
  in
  let replica_of =
    Arg.(value & opt_all addr_conv []
         & info [ "replica-of" ] ~docv:"ADDR"
             ~doc:"Start as a replica streaming the journal from this primary \
                   (repeatable; peers are tried in order with backoff).  A \
                   replica refuses writes with FENCED until promoted.")
  in
  let quorum =
    Arg.(value & opt int 1
         & info [ "quorum" ] ~docv:"N"
             ~doc:"Durable copies (including the own journal) required before \
                   an ADD is acknowledged; 1 means single-node semantics.")
  in
  let max_batch =
    Arg.(value & opt int 64
         & info [ "max-batch" ] ~docv:"N"
             ~doc:"Group-commit ceiling: concurrent ADDs are coalesced into \
                   batches of up to N sharing one journal append, one fsync \
                   and one quorum round.  1 disables batching.")
  in
  let dedup =
    Arg.(value & flag
         & info [ "dedup" ]
             ~doc:"Whole-tree deduplication: a seq-less ADD of a tree the store \
                   already holds is answered as the original tree's id and is \
                   neither journaled nor indexed.  STATS reports the \
                   suppressed count as dedup=.")
  in
  let scrub_interval =
    Arg.(value & opt float 0.0
         & info [ "scrub-interval" ] ~docv:"SECS"
             ~doc:"Background integrity scrub period: every tick re-verifies a \
                   slice of the journal (checksums, seals, content vs the \
                   in-memory index) and repairs disk-level rot by converging \
                   disk to memory.  0 (the default) disables the scrubber.")
  in
  let scrub_budget =
    Arg.(value & opt int 128
         & info [ "scrub-budget" ] ~docv:"N"
             ~doc:"Journal records re-verified per scrub tick.")
  in
  let quarantine =
    Arg.(value & flag
         & info [ "quarantine" ]
             ~doc:"Open degraded instead of refusing when startup finds \
                   unhealable corruption: the rotted journal suffix or \
                   snapshot is moved aside (.quarantine), counted in STATS, \
                   and the surviving prefix is served.")
  in
  let rate =
    Arg.(value & opt (some float) None
         & info [ "rate" ] ~docv:"RPS"
             ~doc:"Fair admission: per-connection token bucket refilled at \
                   RPS work requests per second.  A greedy connection \
                   exhausts only its own bucket (its excess is shed with \
                   BUSY and a retry-after hint); conforming connections are \
                   untouched.  Off by default.")
  in
  let burst =
    Arg.(value & opt int 32
         & info [ "burst" ] ~docv:"N"
             ~doc:"Token-bucket capacity: how many work requests a fresh \
                   connection may burst before --rate pacing kicks in.")
  in
  let idle_timeout =
    Arg.(value & opt (some float) None
         & info [ "idle-timeout" ] ~docv:"SECS"
             ~doc:"Close (and count as reaped=) connections idle for this \
                   long with no inflight work.  Off by default.")
  in
  let max_conns =
    Arg.(value & opt (some int) None
         & info [ "max-conns" ] ~docv:"N"
             ~doc:"Hard cap on concurrent connections; excess accepts are \
                   closed immediately.  Unlimited by default.")
  in
  let hedge =
    Arg.(value & opt (some float) None
         & info [ "hedge" ] ~docv:"SECS"
             ~doc:"Router mode: hedge a shard read still unanswered after \
                   SECS with a second leg on the rotated replica list; the \
                   first well-formed reply wins.  Off by default.")
  in
  let router =
    Arg.(value & flag
         & info [ "router" ]
             ~doc:"Run a scatter-gather router over --shard-group replica \
                   groups instead of a single-node server.  The router speaks \
                   the same wire grammar on the node's event loop, so existing \
                   clients are unchanged and --max-inflight, --rate, --burst, \
                   --idle-timeout, --max-conns and --drain-budget apply as on \
                   a node; --deadline is the per-shard deadline (default 2 s).")
  in
  let shard_group =
    Arg.(value & opt_all group_conv []
         & info [ "shard-group" ] ~docv:"ADDRS"
             ~doc:"Replica group serving the next shard: comma-separated \
                   addresses, primary first (repeatable; the i-th option \
                   serves shard i).  Implies --router.")
  in
  let shards =
    Arg.(value & opt (some int) None
         & info [ "shards" ] ~docv:"N"
             ~doc:"Sanity check: fail unless exactly N --shard-group options \
                   were given.")
  in
  let band =
    Arg.(value & opt (some int) None
         & info [ "band" ] ~docv:"W"
             ~doc:"Size-band width of the shard map (router mode); defaults \
                   to 2*tau + 1 — one probe window per band.")
  in
  let ledger =
    Arg.(value & opt (some string) None
         & info [ "ledger" ] ~docv:"FILE"
             ~doc:"Router ledger journal (gid -> shard bindings, checksummed); \
                   without it the gid space restarts empty and is rebuilt by \
                   reconciliation.")
  in
  let run_router (config : Tsj_server.Server.config) shard_groups shards band ledger
      deadline hedge =
    let addr = config.addr and tau = config.tau in
    if shard_groups = [] then begin
      Printf.eprintf "tsj: --router needs at least one --shard-group\n";
      exit 2
    end;
    (match shards with
    | Some n when n <> List.length shard_groups ->
      Printf.eprintf "tsj: --shards %d but %d --shard-group options given\n" n
        (List.length shard_groups);
      exit 2
    | _ -> ());
    let groups = Array.of_list shard_groups in
    let map =
      try Tsj_server.Shard.create ~shards:(Array.length groups) ?band ~tau ()
      with Invalid_argument msg ->
        Printf.eprintf "tsj: %s\n" msg;
        exit 2
    in
    let rconfig =
      { Tsj_server.Router.map; tau; groups;
        timeout_s = Option.value deadline ~default:2.0;
        attempts = 3; ledger; seed = 42;
        hedge_s = hedge; margin_ms = 50 }
    in
    match Tsj_server.Router.create rconfig with
    | Error msg ->
      Printf.eprintf "tsj: cannot start router: %s\n" msg;
      exit 2
    | Ok router -> (
      match Tsj_server.Server.create_router config router with
      | Error msg ->
        Tsj_server.Router.close router;
        Printf.eprintf "tsj: cannot start router front-end: %s\n" msg;
        exit 2
      | Ok server ->
        Printf.printf
          "tsj: routing %d shards on %s (tau=%d, band=%d, %s, deadline=%.1fs)\n%!"
          (Array.length groups)
          (Tsj_server.Protocol.addr_to_string addr)
          tau map.Tsj_server.Shard.band
          (match ledger with Some f -> "ledger=" ^ f | None -> "no ledger")
          rconfig.Tsj_server.Router.timeout_s;
        Tsj_server.Server.start server;
        Tsj_server.Server.wait server;
        let s = Tsj_server.Server.stats server in
        Tsj_server.Router.close router;
        Printf.printf
          "tsj: router drained (trees=%d queries=%d adds=%d shed=%d degraded=%d \
           errors=%d)\n"
          s.Tsj_server.Protocol.trees s.Tsj_server.Protocol.queries
          s.Tsj_server.Protocol.adds s.Tsj_server.Protocol.shed
          s.Tsj_server.Protocol.degraded s.Tsj_server.Protocol.errors)
  in
  let run addr tau dir max_inflight deadline drain_budget preload replica_of
      quorum max_batch dedup scrub_interval scrub_budget quarantine rate burst
      idle_timeout max_conns hedge router shard_groups shards band ledger format =
    if tau < 0 then begin
      Printf.eprintf "tsj: tau must be non-negative\n";
      exit 2
    end;
    if scrub_interval < 0.0 then begin
      Printf.eprintf "tsj: --scrub-interval must be >= 0\n";
      exit 2
    end;
    let config =
      { (Tsj_server.Server.default_config addr ~tau) with
        Tsj_server.Server.dir;
        max_inflight;
        deadline_s = deadline;
        drain_budget_s = drain_budget;
        handle_sigterm = true;
        quorum;
        max_batch;
        dedup;
        sync_from = replica_of;
        primary = replica_of = [];
        scrub_interval_s =
          (if scrub_interval > 0.0 then Some scrub_interval else None);
        scrub_budget;
        quarantine;
        rate;
        burst;
        idle_timeout_s = idle_timeout;
        max_conns;
      }
    in
    if router || shard_groups <> [] then
      run_router config shard_groups shards band ledger deadline hedge
    else begin
    if quorum < 1 then begin
      Printf.eprintf "tsj: --quorum must be >= 1\n";
      exit 2
    end;
    if max_batch < 1 then begin
      Printf.eprintf "tsj: --max-batch must be >= 1\n";
      exit 2
    end;
    match Tsj_server.Server.create config with
    | Error msg ->
      Printf.eprintf "tsj: cannot start server: %s\n" msg;
      exit 2
    | Ok server ->
      (match preload with
      | None -> ()
      | Some file ->
        let trees = load_trees ~format file in
        Array.iter
          (fun t -> ignore (Tsj_server.Store.add (Tsj_server.Server.store server) t))
          trees;
        Printf.printf "preloaded %d trees\n%!" (Array.length trees));
      Printf.printf "tsj: serving on %s (tau=%d%s, %s, quorum=%d)\n%!"
        (Tsj_server.Protocol.addr_to_string addr)
        (Tsj_server.Store.tau (Tsj_server.Server.store server))
        (match dir with Some d -> ", dir=" ^ d | None -> ", ephemeral")
        (if replica_of = [] then "primary" else "replica")
        quorum;
      Tsj_server.Server.start server;
      Tsj_server.Server.wait server;
      let s = Tsj_server.Server.stats server in
      Printf.printf
        "tsj: drained (queries=%d adds=%d shed=%d degraded=%d errors=%d quarantined=%d)\n"
        s.Tsj_server.Protocol.queries s.Tsj_server.Protocol.adds
        s.Tsj_server.Protocol.shed s.Tsj_server.Protocol.degraded
        s.Tsj_server.Protocol.errors s.Tsj_server.Protocol.quarantined
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the fault-tolerant similarity-search service or, with \
             --router, the scatter-gather router of a sharded cluster")
    Term.(const run $ addr $ tau $ dir $ max_inflight $ deadline
          $ drain_budget $ preload $ replica_of $ quorum $ max_batch $ dedup
          $ scrub_interval $ scrub_budget $ quarantine $ rate $ burst
          $ idle_timeout $ max_conns $ hedge
          $ router $ shard_group $ shards $ band $ ledger $ format_arg)

(* --- promote --- *)

let promote_cmd =
  let remote =
    Arg.(required & pos 0 (some addr_conv) None & info [] ~docv:"ADDR"
           ~doc:"Replica to promote: a Unix socket path or host:port.")
  in
  let timeout =
    Arg.(value & opt float 10.0
         & info [ "timeout" ] ~docv:"SECS" ~doc:"Socket send/receive timeout.")
  in
  let run remote timeout =
    match Tsj_server.Client.connect ~timeout_s:timeout remote with
    | Error msg ->
      Printf.eprintf "tsj: cannot connect: %s\n" msg;
      exit 3
    | Ok conn ->
      let result = Tsj_server.Client.request conn Tsj_server.Protocol.Promote in
      Tsj_server.Client.close conn;
      (match result with
      | Ok (Tsj_server.Protocol.Promoted epoch) ->
        Printf.printf "promoted: epoch %d\n" epoch
      | Ok (Tsj_server.Protocol.Err msg) ->
        Printf.eprintf "tsj: promote refused: %s\n" msg;
        exit 1
      | Ok other ->
        Printf.eprintf "tsj: unexpected reply: %s\n"
          (Tsj_server.Protocol.render_response other);
        exit 1
      | Error msg ->
        Printf.eprintf "tsj: promote failed: %s\n" msg;
        exit 3)
  in
  Cmd.v
    (Cmd.info "promote"
       ~doc:"Promote a replica to primary (bumps the fencing epoch)")
    Term.(const run $ remote $ timeout)

(* --- query (remote) --- *)

let query_cmd =
  let remote =
    Arg.(required & opt (some addr_conv) None
         & info [ "remote"; "r" ] ~docv:"ADDR"
             ~doc:"Server address: a Unix socket path or host:port.")
  in
  let tree =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"TREE"
           ~doc:"Tree in bracket notation (or @file); required unless \
                 --stats, --health or --drain.")
  in
  let tau = Arg.(value & opt int 0 & info [ "tau"; "t" ] ~doc:"Query TED threshold.") in
  let top =
    Arg.(value & opt (some int) None
         & info [ "top"; "k" ] ~doc:"Top-k search instead of a threshold query.")
  in
  let add = Arg.(value & flag & info [ "add" ] ~doc:"ADD the tree instead of querying.") in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Fetch server statistics.") in
  let health = Arg.(value & flag & info [ "health" ] ~doc:"Health check.") in
  let drain = Arg.(value & flag & info [ "drain" ] ~doc:"Ask the server to drain and exit.") in
  let timeout =
    Arg.(value & opt float 10.0
         & info [ "timeout" ] ~docv:"SECS" ~doc:"Socket send/receive timeout.")
  in
  let retries =
    Arg.(value & opt int 4
         & info [ "retries" ]
             ~doc:"Attempts on transport failure or BUSY (exponential backoff \
                   with jitter).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Seed of the backoff jitter PRNG.")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Announce a remaining budget of MS milliseconds on the \
                   request (the @<ms> wire token).  The budget shrinks \
                   across retries; a server or router it reaches expired \
                   answers ERR deadline expired.")
  in
  let run remote tree tau top add stats health drain timeout retries seed
      deadline_ms =
    let request =
      if stats then Tsj_server.Protocol.Stats
      else if health then Tsj_server.Protocol.Health
      else if drain then Tsj_server.Protocol.Drain
      else
        match tree with
        | None ->
          Printf.eprintf "tsj: a TREE argument is required (or --stats/--health/--drain)\n";
          exit 2
        | Some s ->
          let t = parse_tree_arg s in
          if add then Tsj_server.Protocol.Add { seq = None; tree = t }
          else (
            match top with
            | Some k -> Tsj_server.Protocol.Knn { k; tree = t }
            | None -> Tsj_server.Protocol.Query { tau; tree = t })
    in
    let rng = Tsj_util.Prng.create seed in
    match
      Tsj_server.Client.request_with_retries ~attempts:retries ~timeout_s:timeout
        ?deadline_ms ~rng remote request
    with
    | Error msg ->
      Printf.eprintf "tsj: %s\n" msg;
      exit 1
    | Ok (Tsj_server.Protocol.Err reason) ->
      Printf.eprintf "tsj: server error: %s\n" reason;
      exit 1
    | Ok (Tsj_server.Protocol.Busy _) ->
      Printf.eprintf "tsj: server busy (request shed after %d attempts)\n" retries;
      exit 3
    | Ok (Tsj_server.Protocol.Hits { degraded; hits; unverified }) ->
      List.iter (fun (i, d) -> Printf.printf "%d\t%d\n" i d) hits;
      List.iter
        (fun (i, lo, hi) -> Printf.printf "%d\t%d..%d\tunverified\n" i lo hi)
        unverified;
      if degraded then
        Printf.eprintf "tsj: degraded answer (deadline expired; %d candidates unverified)\n"
          (List.length unverified)
    | Ok (Tsj_server.Protocol.Added { id; partners }) ->
      Printf.printf "added %d (%d partners)\n" id (List.length partners);
      List.iter (fun (i, d) -> Printf.printf "%d\t%d\n" i d) partners
    | Ok (Tsj_server.Protocol.Fenced epoch) ->
      Printf.eprintf "tsj: write refused: a primary at epoch %d exists (FENCED)\n" epoch;
      exit 4
    | Ok (Tsj_server.Protocol.Redirect addr) ->
      Printf.eprintf "tsj: redirected to the primary at %s\n" addr;
      exit 5
    | Ok (Tsj_server.Protocol.Stats_reply _ as r) | Ok (Tsj_server.Protocol.Health_reply _ as r)
    | Ok (Tsj_server.Protocol.Drained as r) | Ok (Tsj_server.Protocol.Promoted _ as r)
    | Ok ((Tsj_server.Protocol.Sync_stream _ | Tsj_server.Protocol.Record _) as r)
    | Ok (Tsj_server.Protocol.Tree_reply _ as r)
    | Ok (Tsj_server.Protocol.Digest_reply _ as r)
    | Ok (Tsj_server.Protocol.Hello_reply _ as r) ->
      print_endline (Tsj_server.Protocol.render_response r)
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Query (or administer) a running tsj serve instance")
    Term.(const run $ remote $ tree $ tau $ top $ add $ stats $ health $ drain
          $ timeout $ retries $ seed $ deadline_ms)

(* --- fsck --- *)

let fsck_cmd =
  let dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
           ~doc:"State directory of a tsj serve instance (snapshot + journal).")
  in
  let ledger =
    Arg.(value & opt (some string) None
         & info [ "ledger" ] ~docv:"FILE"
             ~doc:"Also verify a router ledger journal.")
  in
  let repair =
    Arg.(value & flag
         & info [ "repair" ]
             ~doc:"Repair instead of just reporting: unrepairable journal \
                   records and ledger suffixes are moved aside (.quarantine), \
                   the surviving state is rewritten and resealed.")
  in
  let tau =
    Arg.(value & opt int 2
         & info [ "tau"; "t" ]
             ~doc:"TED threshold used when the directory has no snapshot to \
                   read it from (an existing snapshot's tau wins).")
  in
  (* CRC-checked line: "<payload> <fnv1a64(payload)>" *)
  let line_crc_ok line =
    match String.rindex_opt line ' ' with
    | None -> false
    | Some i ->
      Tsj_util.Text.fnv1a64_hex (String.sub line 0 i)
      = String.sub line (i + 1) (String.length line - i - 1)
  in
  let read_lines path =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  let check_seal name path findings =
    match Tsj_server.Integrity.check_seal path with
    | Ok 0 -> Printf.printf "%-18s never sealed\n" name
    | Ok bytes -> Printf.printf "%-18s seal ok (%d bytes covered)\n" name bytes
    | Error detail ->
      Printf.printf "%-18s SEAL MISMATCH: %s\n" name detail;
      incr findings
    | exception Tsj_util.Durable.Disk_fault f ->
      Printf.printf "%-18s READ FAULT: %s\n" name (Tsj_util.Durable.fault_to_string f);
      incr findings
  in
  let run dir ledger repair tau =
    if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      Printf.eprintf "tsj: %s is not a directory\n" dir;
      exit 2
    end;
    let findings = ref 0 and torn = ref 0 in
    (* journal: per-record CRCs; an invalid line with valid lines after
       it is corruption, an invalid final line is a torn tail (a crashed
       append, dropped benignly at the next open) *)
    let journal = Filename.concat dir "journal" in
    if Sys.file_exists journal then begin
      let lines = read_lines journal in
      let records =
        match lines with
        | first :: rest
          when String.length first >= 6 && String.sub first 0 6 = "epoch " ->
          if line_crc_ok first then
            Printf.printf "%-18s header ok\n" "journal"
          else begin
            Printf.printf "%-18s HEADER CORRUPT\n" "journal";
            incr findings
          end;
          rest
        | l -> l
      in
      let n = List.length records in
      let bad = List.filter (fun l -> not (line_crc_ok l)) records in
      let last_bad = match records with
        | [] -> false
        | l -> not (line_crc_ok (List.nth l (n - 1)))
      in
      (match List.length bad with
      | 0 -> Printf.printf "%-18s %d records, every checksum ok\n" "journal" n
      | 1 when last_bad ->
        incr torn;
        Printf.printf
          "%-18s %d records, torn tail (1 partial append; dropped at next open)\n"
          "journal" n
      | k ->
        findings := !findings + (if last_bad then k - 1 else k);
        if last_bad then incr torn;
        Printf.printf "%-18s %d records, %d CORRUPT mid-file\n" "journal" n
          (if last_bad then k - 1 else k));
      check_seal "journal.seal" journal findings
    end
    else Printf.printf "%-18s missing (nothing journaled)\n" "journal";
    (* snapshot: the seal is its only integrity cover, but it must also
       still parse *)
    let snapshot = Filename.concat dir "snapshot" in
    if Sys.file_exists snapshot then begin
      (match
         Tsj_server.Store.collection_of_string
           (In_channel.with_open_bin snapshot In_channel.input_all)
       with
      | Ok (stau, trees) ->
        Printf.printf "%-18s %d trees, tau=%d, parses ok\n" "snapshot"
          (Array.length trees) stau
      | Error msg ->
        Printf.printf "%-18s UNPARSEABLE: %s\n" "snapshot" msg;
        incr findings);
      check_seal "snapshot.seal" snapshot findings
    end
    else Printf.printf "%-18s missing (journal-only store)\n" "snapshot";
    (* optional router ledger: line CRCs, dense gids, seal *)
    (match ledger with
    | None -> ()
    | Some path when not (Sys.file_exists path) ->
      Printf.printf "%-18s missing\n" "ledger"
    | Some path ->
      let lines = read_lines path in
      let n = List.length lines in
      (* the longest valid dense prefix; anything after the first bad
         line is untrusted *)
      let rec prefix acc gid = function
        | [] -> (List.rev acc, [])
        | l :: rest ->
          let ok =
            line_crc_ok l
            && (match String.split_on_char ' ' l with
               | "map" :: g :: _ -> int_of_string_opt g = Some gid
               | _ -> false)
          in
          if ok then prefix (l :: acc) (gid + 1) rest
          else (List.rev acc, l :: rest)
      in
      let good, rest = prefix [] 0 lines in
      (match rest with
      | [] -> Printf.printf "%-18s %d bindings, every checksum ok\n" "ledger" n
      | [ _ ] ->
        incr torn;
        Printf.printf "%-18s %d bindings, torn tail (1 partial append)\n"
          "ledger" (List.length good)
      | _ ->
        findings := !findings + List.length rest;
        Printf.printf "%-18s %d bindings, %d CORRUPT/untrusted from line %d\n"
          "ledger" n (List.length rest) (List.length good));
      check_seal "ledger.seal" path findings;
      if repair && rest <> [] then begin
        Out_channel.with_open_gen
          [ Open_append; Open_creat ] 0o644 (path ^ ".quarantine")
          (fun oc -> List.iter (fun l -> Printf.fprintf oc "%s\n" l) rest);
        let tmp = path ^ ".tmp" in
        Out_channel.with_open_bin tmp (fun oc ->
            List.iter (fun l -> Printf.fprintf oc "%s\n" l) good);
        Tsj_util.Durable.rename tmp path;
        Tsj_server.Integrity.write_seal path;
        Printf.printf
          "%-18s repaired: %d bindings kept, %d moved to %s.quarantine\n"
          "ledger" (List.length good) (List.length rest) path
      end);
    if repair then begin
      (* converge disk to the best recoverable state: quarantine what
         cannot be replayed, splice nothing (no heal source offline),
         then flush a fresh sealed snapshot + empty journal *)
      match Tsj_server.Store.open_ ~dir ~quarantine:true ~tau () with
      | Error msg ->
        Printf.eprintf "tsj: unrepairable: %s\n" msg;
        exit 2
      | Ok store ->
        Tsj_server.Store.flush store;
        let _, crc_failures, repaired, quarantined =
          Tsj_server.Store.scrub_counters store
        in
        Printf.printf
          "repaired: %d trees survive (crc_failures=%d repaired=%d \
           quarantined=%d), merkle root %s\n"
          (Tsj_server.Store.n_trees store)
          crc_failures repaired quarantined
          (Tsj_server.Store.merkle_root store)
        (* no close: a close would be a second (redundant) flush *)
    end
    else if !findings > 0 then begin
      Printf.printf "%d corruption finding(s); rerun with --repair to quarantine\n"
        !findings;
      exit 2
    end
    else begin
      (* clean (modulo a torn tail the next open drops): report the
         authoritative identity of the store without mutating anything *)
      if !torn = 0 then begin
        match Tsj_server.Store.open_ ~dir ~tau () with
        | Ok store ->
          Printf.printf "clean: %d trees, merkle root %s\n"
            (Tsj_server.Store.n_trees store)
            (Tsj_server.Store.merkle_root store)
          (* abandoned without close on purpose: fsck must not rewrite *)
        | Error msg ->
          Printf.printf "CHECKSUMS CLEAN BUT UNREPLAYABLE: %s\n" msg;
          exit 2
      end
      else Printf.printf "clean apart from the torn tail\n"
    end
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:"Verify the integrity of a tsj state directory offline \
             (checksums, seals, snapshot parse; exit 2 on corruption), \
             optionally repairing by quarantine")
    Term.(const run $ dir $ ledger $ repair $ tau)

(* --- bench --- *)

let bench_cmd =
  let scale = Arg.(value & opt float 1.0 & info [ "scale" ] ~doc:"Dataset size multiplier.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ]
             ~doc:"OCaml domains for the PartSJ runs (the perf experiment \
                   always compares against the recommended count).")
  in
  let known = List.map fst Tsj_harness.Experiments.experiments in
  let what =
    Arg.(value & pos_all string [ "all" ] & info [] ~docv:"EXPERIMENT"
           ~doc:(String.concat ", " known ^ " or all."))
  in
  let run scale seed jobs what =
    if jobs < 1 then begin
      Printf.eprintf "tsj: -j must be >= 1\n";
      exit 2
    end;
    let config =
      { Tsj_harness.Experiments.default_config with
        Tsj_harness.Experiments.scale; seed; domains = jobs }
    in
    List.iter
      (fun name ->
        match List.assoc_opt name Tsj_harness.Experiments.experiments with
        | Some experiment -> experiment config
        | None when name = "all" -> Tsj_harness.Experiments.run_all config
        | None ->
          Printf.eprintf "tsj: unknown experiment %S; known: %s, all\n" name
            (String.concat ", " known);
          exit 2)
      what
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Re-run the paper's evaluation experiments")
    Term.(const run $ scale $ seed $ jobs $ what)

let () =
  let doc = "similarity joins over tree-structured data (PartSJ, VLDB 2015)" in
  let info = Cmd.info "tsj" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ ted_cmd; join_cmd; gen_cmd; partition_cmd; search_cmd; serve_cmd;
            promote_cmd; query_cmd; fsck_cmd; bench_cmd ]))
