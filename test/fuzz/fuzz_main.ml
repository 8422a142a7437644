(* Long-running randomized hunts for rare soundness violations.

   The quick property tests in ../suite_*.ml run a few hundred cases per
   suite; the failure modes this tool targets occur once per ~10^4..10^6
   random draws (this is how DESIGN.md findings 2 and 3 were discovered).
   Run it when touching the partitioning, matching or index code:

     dune exec test/fuzz/fuzz_main.exe -- lemma2 2000000 42
     dune exec test/fuzz/fuzz_main.exe -- windows 2000000 42
     dune exec test/fuzz/fuzz_main.exe -- join 20000 42
     dune exec test/fuzz/fuzz_main.exe -- ted 200000 42
     dune exec test/fuzz/fuzz_main.exe -- kernel 6
     dune exec test/fuzz/fuzz_main.exe -- ball 6
     dune exec test/fuzz/fuzz_main.exe -- xml 200000 42
     dune exec test/fuzz/fuzz_main.exe -- bracket 200000 42
     dune exec test/fuzz/fuzz_main.exe -- server 20000 42
     dune exec test/fuzz/fuzz_main.exe -- dedup 20000 42
     dune exec test/fuzz/fuzz_main.exe -- router 20000 42
     dune exec test/fuzz/fuzz_main.exe -- scrub 5000 42
     dune exec test/fuzz/fuzz_main.exe -- overload 20000 42

   A run prints its failures as it finds them and exits 1 at the fifth
   (or at the end of the run, if there were any).

   Modes:
   - lemma2: after <= tau random edits, some subgraph of the balanced
     (2 tau + 1)-partitioning must occur in the edited tree (expected: 0
     failures — finding 3's fix);
   - windows: same, but through the two-layer index with the sound
     Start_window windows (expected: 0) and with the paper's rank windows
     (failures are counted and expected — finding 2);
   - join: PartSJ must equal the nested-loop ground truth on random
     clustered datasets (expected: 0);
   - ted: the reference Zhang-Shasha must give the same distance on the
     left and the right decomposition and match the naive reference on
     trees of <= 9 nodes; the banded kernel must equal it at the full
     band (and the naive one on <= 9 nodes) and equal min (TED, k + 1)
     at a random k in 0..5, the linear lower bound must not exceed it,
     and the constrained kernel on the postorders must equal the
     tree-based reference and not fall below it; the same kernel
     checks run on a tree of up to 80 nodes and a copy <= k + 2 edits
     away (expected: 0);
   - kernel: every pair of trees of <= 6 nodes (or the given bound) over
     {a, b} with sizes <= 3 apart, k = 0..3: the banded kernel must
     equal min (TED, k + 1) against the reference Zhang-Shasha, and
     TED at the full band, and the filter cascade at tau = k must
     prune only pairs beyond k and accept only at TED (pairs further
     apart in size must stop at its size stage); the numbers after the
     mode are the node bound, not iterations and seed (expected: 0,
     about a minute at 6 nodes);
   - ball: every tree of <= 6 nodes (or the given bound) over {a, b}
     and every tree within tau = 1 and tau = 2 node edits of it: the
     edited tree must be a candidate through [Size_bands.probe] with the
     Start_window windows (expected: 0, about a minute at 6 nodes); the
     paper's rank windows' misses are printed (256 at tau = 1);
   - xml: the XML parser on truncated/garbled/token-soup inputs must
     return [Ok]/[Error] without ever raising, and the lenient fragment
     parser must terminate (expected: 0);
   - bracket: random trees with hostile labels must print as before and
     parse back; random, truncated and mutated byte strings must get
     exactly the reference parser's trees or error texts from every
     bracket entry point; request lines around them must parse to the
     reference's request or ERR text, and requests must render to the
     reference's line (expected: 0);
   - server: a live tsj server fed truncated, byte-mutated, token-soup
     and split-across-writes request lines over loopback connections
     must answer every non-blank line with exactly one well-formed
     reply (ERR/BUSY included), never kill an innocent connection, and
     end the run healthy with zero inflight requests; interleaved
     binary-protocol episodes (HELLO negotiation, pipelined frames with
     gapped ids, oversized/truncated/short-length frames, unknown
     opcodes, drops mid-frame) must never crash the server or
     misattribute a response id; the same run then repeats against a
     router front over two in-process shards (expected: 0);
   - dedup: duplicate and near-duplicate ADDs against a live server with
     whole-tree dedup on: a duplicate is acked with the original id, a
     near-duplicate mints a fresh one, and STATS counts exactly the
     duplicates sent (expected: 0);
   - router: the scatter-gather merge under byzantine per-shard answers
     (garbage ids, out-of-range distances, inverted sandwiches) and a
     live router whose shards reply with silence, garbage, truncated
     lines, duplicate acks and cross-epoch FENCED: every answer must
     stay well-formed and sound-shaped, and no call may raise or hang
     (expected: 0);
   - scrub: random bit flips, truncations and mid-journal rot against a
     journaled store — the live scrubber, the self-healing reopen and
     the quarantine reopen must detect every corruption, converge to a
     clean state and never answer wrong; plus incremental-vs-rebuilt
     Merkle digests on random op sequences (expected: 0);
   - overload: adversarial deadline tokens and frames (zero, huge,
     overflowing, negative, non-numeric budgets; random negotiated
     protocol versions) against a token-bucket-limited server — every
     request answered exactly once, malformed tokens answered ERR, a
     zero budget never answered with results, BUSY retry-after hints
     within bounds, server healthy at exit (expected: 0). *)

module Tree = Tsj_tree.Tree
module BT = Tsj_tree.Binary_tree
module Prng = Tsj_util.Prng
module Partition = Tsj_core.Partition
module Subgraph = Tsj_core.Subgraph
module Index = Tsj_core.Two_layer_index

let labels = Array.init 8 (fun i -> Tsj_tree.Label.intern (Printf.sprintf "f%d" i))

(* Uniform-ish random tree: repeatedly attach a leaf under a random node. *)
let random_tree rng size =
  let rec attach (t : Tree.t) slot =
    if slot = 0 then begin
      let pos = Prng.int_in rng 0 (List.length t.Tree.children) in
      let rec insert i = function
        | rest when i = 0 -> Tree.leaf (Prng.choice rng labels) :: rest
        | [] -> [ Tree.leaf (Prng.choice rng labels) ]
        | c :: rest -> c :: insert (i - 1) rest
      in
      (Tree.node t.Tree.label (insert pos t.Tree.children), -1)
    end
    else begin
      let rec through acc slot = function
        | [] -> (List.rev acc, slot)
        | c :: rest ->
          if slot < 0 then through (c :: acc) slot rest
          else begin
            let c', slot' = attach c (slot - 1) in
            through (c' :: acc) slot' rest
          end
      in
      let children, slot' = through [] (slot - 1) t.Tree.children in
      (Tree.node t.Tree.label children, slot')
    end
  in
  let rec grow t n =
    if n = 0 then t
    else begin
      let target = Prng.int rng (Tree.size t) in
      let t', _ = attach t target in
      grow t' (n - 1)
    end
  in
  grow (Tree.leaf (Prng.choice rng labels)) (size - 1)

let edited_pair rng =
  let size = 2 + Prng.int rng 35 in
  let x = random_tree rng size in
  let k = Prng.int_in rng 1 3 in
  let _, x' = Tsj_tree.Edit_op.random_script rng ~labels k x in
  (x, x', k)

(* Every mode stops at its fifth reported failure and exits non-zero: a
   fault that desyncs a connection makes each later read wait out the
   client's receive timeout, so running on would stall instead of
   failing fast. *)
let max_reported = 5

let reported = ref 0

let report name i detail =
  Printf.printf "FAIL %s at iteration %d: %s\n%!" name i detail;
  incr reported;
  if !reported >= max_reported then begin
    Printf.printf "%s: stopped at iteration %d after %d failures\n%!" name i max_reported;
    exit 1
  end

let fuzz_lemma2 iterations rng =
  let failures = ref 0 in
  for i = 1 to iterations do
    let x, x', tau = edited_pair rng in
    let delta = (2 * tau) + 1 in
    let b = BT.of_postorder (Tsj_tree.Form.of_tree x).left in
    if b.BT.size >= delta then begin
      let subs = Subgraph.of_partition ~tree_id:0 (Partition.partition b ~delta) in
      let b' = BT.of_postorder (Tsj_tree.Form.of_tree x').left in
      if not (Array.exists (fun s -> Subgraph.occurs_in s b') subs) then begin
        incr failures;
        report "lemma2" i
          (Printf.sprintf "tau=%d base=%s edited=%s" tau
             (Tsj_tree.Bracket.to_string x)
             (Tsj_tree.Bracket.to_string x'))
      end
    end
  done;
  !failures

let probe_finds mode tau subs b' =
  let idx = Index.create ~mode ~tau () in
  Array.iter (Index.insert idx) subs;
  let found = ref false in
  let size = b'.BT.size in
  Index.probe idx (Index.cursor b') ~lo:(size - tau) ~hi:size (fun s v ->
      if (not !found) && Subgraph.matches s b' v then found := true);
  !found

let fuzz_windows iterations rng =
  let sound_failures = ref 0 in
  let paper_misses = ref 0 in
  for i = 1 to iterations do
    let x, x', tau = edited_pair rng in
    let x, x' = if Tree.size x <= Tree.size x' then (x, x') else (x', x) in
    let delta = (2 * tau) + 1 in
    let b = BT.of_postorder (Tsj_tree.Form.of_tree x).left in
    if b.BT.size >= delta then begin
      let subs = Subgraph.of_partition ~tree_id:0 (Partition.partition b ~delta) in
      let b' = BT.of_postorder (Tsj_tree.Form.of_tree x').left in
      if not (probe_finds Index.Start_window tau subs b') then begin
        incr sound_failures;
        report "windows(start)" i
          (Printf.sprintf "tau=%d base=%s edited=%s" tau
             (Tsj_tree.Bracket.to_string x)
             (Tsj_tree.Bracket.to_string x'))
      end;
      if not (probe_finds Index.Paper_rank tau subs b') then incr paper_misses
    end
  done;
  Printf.printf "paper-rank windows missed %d (expected: nonzero, see DESIGN.md finding 2)\n"
    !paper_misses;
  !sound_failures

let fuzz_join iterations rng =
  let failures = ref 0 in
  for i = 1 to iterations do
    let n_base = 3 + Prng.int rng 6 in
    let trees = ref [] in
    for _ = 1 to n_base do
      let base = random_tree rng (1 + Prng.int rng 12) in
      trees := base :: !trees;
      for _ = 1 to 2 do
        let k = Prng.int_in rng 0 3 in
        let _, copy = Tsj_tree.Edit_op.random_script rng ~labels k base in
        trees := copy :: !trees
      done
    done;
    let trees = Array.of_list !trees in
    let tau = Prng.int rng 4 in
    let truth = Tsj_join.Nested_loop.join ~trees ~tau () in
    let prt = Tsj_core.Partsj.join ~trees ~tau () in
    if not (Tsj_join.Types.equal_results truth prt) then begin
      incr failures;
      report "join" i
        (Printf.sprintf "tau=%d trees=%s" tau
           (String.concat " "
              (Array.to_list (Array.map Tsj_tree.Bracket.to_string trees))))
    end
  done;
  !failures

let fuzz_ted iterations rng =
  let module Ted = Tsj_ted.Ted in
  let failures = ref 0 in
  for i = 1 to iterations do
    let x = random_tree rng (1 + Prng.int rng 12) in
    let y = random_tree rng (1 + Prng.int rng 12) in
    let fx = Tsj_ted.Bounds.of_tree x and fy = Tsj_ted.Bounds.of_tree y in
    let px = Tsj_ted.Bounds.prep fx and py = Tsj_ted.Bounds.prep fy in
    let l = Ted_reference.distance_postorder px.left py.left in
    let r = Ted_reference.distance_postorder px.mirror py.mirror in
    let bad = ref [] in
    if l <> r then bad := "left<>right" :: !bad;
    let full = Ted.distance_prep px py in
    if full <> l then bad := "full band<>reference" :: !bad;
    let k = Prng.int rng 6 in
    if Ted.bounded_distance_prep px py k <> min l (k + 1) then
      bad := Printf.sprintf "k=%d<>reference" k :: !bad;
    (if Tree.size x <= 9 && Tree.size y <= 9 then
       let naive = Ted_reference.Naive.distance x y in
       if l <> naive then bad := "reference<>naive" :: !bad;
       if full <> naive then bad := "full band<>naive" :: !bad);
    if Tsj_ted.Bounds.linear_lower fx fy > l then bad := "bound>ted" :: !bad;
    let ced = Tsj_ted.Constrained.distance px.left py.left in
    if ced < l then bad := "constrained<ted" :: !bad;
    if ced <> Ted_reference.Constrained.distance x y then bad := "constrained<>reference" :: !bad;
    (* The banded kernel on a near pair: a tree of up to 80 nodes and a
       copy at most k + 2 edits away, so the optimal mapping runs near
       the edge of the kernel's strip. *)
    let base = random_tree rng (1 + Prng.int rng 80) in
    let _, near = Tsj_tree.Edit_op.random_script rng ~labels (Prng.int_in rng 0 (k + 2)) base in
    let pa = Ted.preprocess base and pb = Ted.preprocess near in
    let exact = Ted_reference.distance_postorder pa.left pb.left in
    List.iter
      (fun (what, got, want) ->
        if got <> want then
          bad :=
            Printf.sprintf "banded %s: %d, want %d on %s vs %s" what got want
              (Tsj_tree.Bracket.to_string base) (Tsj_tree.Bracket.to_string near)
            :: !bad)
      [
        (Printf.sprintf "k=%d" k, Ted.bounded_distance_prep pa pb k, min exact (k + 1));
        ("full band", Ted.distance_prep pa pb, exact);
      ];
    if !bad <> [] then begin
      incr failures;
      report "ted" i
        (Printf.sprintf "%s: %s vs %s" (String.concat "," !bad)
           (Tsj_tree.Bracket.to_string x) (Tsj_tree.Bracket.to_string y))
    end
  done;
  !failures

(* Exhaustive check of the banded kernel and of the filter cascade in
   front of it: every pair of trees of <= [max_nodes] nodes over {a, b}
   whose sizes differ by <= 3, at k = 0..3, against [min (TED, k + 1)]
   with the TED from the reference Zhang-Shasha, and at the full band
   against the TED itself; the cascade at tau = k may prune a pair only
   beyond k and accept it only at its TED.  Pairs further apart in size
   only reach the kernel's size exit and the cascade's size stage. *)
let fuzz_kernel max_nodes =
  let module Ted = Tsj_ted.Ted in
  let module Bounds = Tsj_ted.Bounds in
  let ab = List.map Tsj_tree.Label.intern [ "a"; "b" ] in
  let trees = Array.of_list (Edit_ball.trees_upto ab max_nodes) in
  let forms = Array.map Bounds.of_tree trees in
  let failures = ref 0 and pairs = ref 0 in
  let fail i j msg =
    incr failures;
    report "kernel" !pairs
      (Printf.sprintf "%s on %s vs %s" msg (Tsj_tree.Bracket.to_string trees.(i))
         (Tsj_tree.Bracket.to_string trees.(j)))
  in
  Array.iteri
    (fun i fi ->
      let pi = Bounds.prep fi in
      Array.iteri
        (fun j fj ->
          let pj = Bounds.prep fj in
          if abs (pi.size - pj.size) <= 3 then begin
            incr pairs;
            let exact = Ted_reference.distance_postorder pi.left pj.left in
            let full = Ted.distance_prep pi pj in
            if full <> exact then fail i j (Printf.sprintf "full band: %d, want %d" full exact);
            for k = 0 to 3 do
              let got = Ted.bounded_distance_prep pi pj k in
              if got <> min exact (k + 1) then
                fail i j (Printf.sprintf "k=%d: %d, want %d" k got (min exact (k + 1)));
              match Bounds.cascade ~tau:k fi fj with
              | Bounds.Accept d when d <> exact ->
                fail i j (Printf.sprintf "cascade tau=%d: accepted at %d, TED %d" k d exact)
              | Bounds.Pruned _ when exact <= k ->
                fail i j (Printf.sprintf "cascade tau=%d: pruned at TED %d" k exact)
              | _ -> ()
            done
          end
          else if Bounds.cascade ~tau:3 fi fj <> Bounds.Pruned Bounds.Size then
            fail i j "cascade: passed the size stage")
        forms)
    forms;
  Printf.printf
    "kernel: %d trees of <= %d nodes, %d pairs checked at k = 0..3 (kernel and cascade)\n"
    (Array.length trees) max_nodes !pairs;
  !failures

(* Exhaustive edit-ball sweep of the candidate filter: for every tree of
   <= [max_nodes] nodes over {a, b}, every tree within tau = 1 and within
   tau = 2 node edits of it must be a candidate through
   [Size_bands.probe] with the Start_window windows (expected: 0 misses);
   the paper's rank windows' misses are counted and printed (expected:
   nonzero at tau = 1, DESIGN.md finding 2). *)
let fuzz_ball max_nodes =
  let labels = List.map Tsj_tree.Label.intern [ "a"; "b" ] in
  let trees = Edit_ball.trees_upto labels max_nodes in
  let failures = ref 0 in
  List.iter
    (fun tau ->
      let on_miss t t' =
        incr failures;
        report "ball" tau
          (Printf.sprintf "tau=%d: %s not a candidate of %s" tau
             (Tsj_tree.Bracket.to_string t') (Tsj_tree.Bracket.to_string t))
      in
      let sound = Edit_ball.sweep ~labels ~tau ~on_miss trees in
      let paper = Edit_ball.sweep ~mode:Index.Paper_rank ~labels ~tau trees in
      Printf.printf "ball tau=%d: %d trees of <= %d nodes, start-window misses %d, paper-rank misses %d\n%!"
        tau (List.length trees) max_nodes sound paper)
    [ 1; 2 ];
  !failures

(* XML parser robustness: truncated, garbled and token-soup inputs must
   only ever produce [Ok _] or [Error _] — never an escaping exception —
   and the lenient fragment parser must additionally terminate and never
   raise on the same inputs. *)
let fuzz_xml iterations rng =
  let failures = ref 0 in
  let tokens =
    [| "<"; ">"; "</"; "/>"; "<!--"; "-->"; "<?"; "?>"; "<![CDATA["; "]]>"; "&"; ";";
       "&amp;"; "&#x41;"; "&#junk;"; "="; "\""; "'"; "a"; "tag"; "xml:ns"; " "; "\n";
       "\t"; "text"; "<!DOCTYPE"; "\x00"; "\xFF" |]
  in
  let random_input () =
    match Prng.int rng 3 with
    | 0 ->
      (* valid document, truncated at a random byte *)
      let t = random_tree rng (1 + Prng.int rng 10) in
      let s = Tsj_xml.Xml.to_string (Tsj_xml.Xml.of_tree t) in
      String.sub s 0 (Prng.int rng (String.length s + 1))
    | 1 ->
      (* valid document with random byte mutations *)
      let t = random_tree rng (1 + Prng.int rng 10) in
      let s = Bytes.of_string (Tsj_xml.Xml.to_string (Tsj_xml.Xml.of_tree t)) in
      for _ = 0 to Prng.int rng 4 do
        if Bytes.length s > 0 then
          Bytes.set s (Prng.int rng (Bytes.length s)) (Char.chr (Prng.int rng 256))
      done;
      Bytes.to_string s
    | _ ->
      (* markup token soup *)
      String.concat "" (List.init (Prng.int rng 30) (fun _ -> Prng.choice rng tokens))
  in
  for i = 1 to iterations do
    let input = random_input () in
    let check what f =
      match f () with
      | _ -> ()
      | exception exn ->
        incr failures;
        report "xml" i
          (Printf.sprintf "%s raised %s on %S" what (Printexc.to_string exn) input)
    in
    check "parse" (fun () -> ignore (Tsj_xml.Xml_parser.parse input));
    check "parse_fragments" (fun () -> ignore (Tsj_xml.Xml_parser.parse_fragments input));
    check "parse_fragments_lenient" (fun () ->
        ignore (Tsj_xml.Xml_parser.parse_fragments_lenient input))
  done;
  !failures

(* The one-pass bracket codec and the in-place request parser against
   the reference copies of the parsers they replaced (see
   [Codec_reference.Codec_check]). *)
let fuzz_bracket iterations rng =
  let failures = ref 0 in
  for i = 1 to iterations do
    match Codec_reference.Codec_check.check rng with
    | None -> ()
    | Some detail ->
      incr failures;
      report "bracket" i detail
    | exception exn ->
      incr failures;
      report "bracket" i ("raised " ^ Printexc.to_string exn)
  done;
  !failures

(* A [HELLO BIN v] offer below the current frame version is answered
   ERR, and the connection keeps answering text lines: a QUERY sent next
   gets a text HITS (or a BUSY shed) on the same connection. *)
let expect_text_refusal ic oc v =
  let module Protocol = Tsj_server.Protocol in
  Printf.fprintf oc "HELLO BIN %d\n" v;
  flush oc;
  (match Protocol.parse_response (input_line ic) with
  | Ok (Protocol.Err _) -> ()
  | Ok r -> failwith (Printf.sprintf "HELLO BIN %d answered %s" v (Protocol.render_response r))
  | Error msg -> failwith ("unparseable refused-HELLO reply: " ^ msg));
  output_string oc "QUERY 0 {f0}\n";
  flush oc;
  match Protocol.parse_response (input_line ic) with
  | Ok (Protocol.Hits _ | Protocol.Busy _) -> ()
  | Ok r ->
    failwith
      (Printf.sprintf "text QUERY after a refused HELLO answered %s"
         (Protocol.render_response r))
  | Error msg -> failwith ("text QUERY after a refused HELLO: " ^ msg)

(* Service robustness: a live front must survive arbitrary bytes on the
   wire.  Every non-blank request line — valid, truncated, mutated or
   soup — must be answered by exactly one reply that parses under the
   wire protocol; blank lines get no reply; abrupt disconnects must only
   ever cost the disconnecting client its own connection.  The soup runs
   against [server] listening on [sock], then drains it; failures are
   reported under [name]. *)
let fuzz_front ~name sock server iterations rng =
  let module Protocol = Tsj_server.Protocol in
  let module Server = Tsj_server.Server in
  let failures = ref 0 in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
    (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  in
  let close_conn (fd, _, _) = try Unix.close fd with Unix.Unix_error _ -> () in
  let conns = Array.init 4 (fun _ -> connect ()) in
  let verbs =
    [| "QUERY"; "KNN"; "ADD"; "STATS"; "HEALTH"; "query"; "Knn"; "SYNC";
       "ACKED"; "RECORD"; "PROMOTE" |]
  in
  let soup_tokens =
    [| "QUERY"; "ADD"; "{"; "}"; "{a}"; "{a{b}}"; "}{"; "-1"; "0"; "2"; "99999999999";
       "x"; " "; "\t"; "\255"; "\000"; "{a{b}{c"; "DRAIN?"; "=";
       "SYNC"; "ACKED"; "RECORD"; "PROMOTE"; "1" |]
  in
  let random_line () =
    match Prng.int rng 12 with
    | 0 | 1 | 2 ->
      (* well-formed request over a small random tree *)
      let tree = random_tree rng (1 + Prng.int rng 10) in
      let s = Tsj_tree.Bracket.to_string tree in
      (match Prng.int rng 6 with
      | 0 -> "ADD " ^ s
      | 1 | 2 -> Printf.sprintf "QUERY %d %s" (Prng.int rng 3) s
      | 3 -> Printf.sprintf "KNN %d %s" (Prng.int rng 4) s
      | 4 -> "STATS"
      | _ -> "HEALTH")
    | 3 | 4 ->
      (* well-formed request, truncated at a random byte *)
      let tree = random_tree rng (1 + Prng.int rng 10) in
      let line = Printf.sprintf "QUERY 2 %s" (Tsj_tree.Bracket.to_string tree) in
      String.sub line 0 (Prng.int rng (String.length line + 1))
    | 5 | 6 ->
      (* well-formed request with byte mutations *)
      let tree = random_tree rng (1 + Prng.int rng 10) in
      let verb = Prng.choice rng verbs in
      let b =
        Bytes.of_string
          (Printf.sprintf "%s %d %s" verb (Prng.int rng 3)
             (Tsj_tree.Bracket.to_string tree))
      in
      for _ = 0 to Prng.int rng 4 do
        if Bytes.length b > 0 then
          Bytes.set b (Prng.int rng (Bytes.length b)) (Char.chr (Prng.int rng 256))
      done;
      Bytes.to_string b
    | 7 ->
      (* oversized line: must be answered with ERR, not a hang *)
      "QUERY 2 " ^ String.make (4096 + Prng.int rng 2048) '{'
    | 8 ->
      (* replication verbs: PROMOTE flips the write mandate, ACKED
         outside a stream gets ERR, RECORD is not a request verb, a
         valid SYNC hijacks the connection (the caller recycles it) *)
      (match Prng.int rng 6 with
      | 0 -> "PROMOTE"
      | 1 -> Printf.sprintf "ACKED %d" (Prng.int rng 6 - 1)
      | 2 -> Printf.sprintf "SYNC %d %d" (Prng.int rng 3) (Prng.int rng 6)
      | 3 -> "SYNC 0"
      | 4 -> Printf.sprintf "RECORD add %d {a}" (Prng.int rng 3)
      | _ -> "ACKED x")
    | _ ->
      (* token soup *)
      String.concat " "
        (List.init (Prng.int rng 12) (fun _ -> Prng.choice rng soup_tokens))
  in
  (* the server frames on '\n' and ignores lines that trim to "" *)
  let sanitize line =
    String.map (fun c -> if c = '\n' then '.' else c) line
  in
  let expects_reply line =
    let line =
      if String.length line > 0 && line.[String.length line - 1] = '\r' then
        String.sub line 0 (String.length line - 1)
      else line
    in
    String.trim line <> ""
  in
  (* Dedicated stream-mode conversation on a throwaway connection: join
     as a replica with a random (epoch, from_seq), check that the header
     and every pushed record parse under the response grammar, answer a
     few ACKs (valid, stale or garbage) and hang up mid-stream.  The
     server must shrug all of it off. *)
  let fuzz_sync_stream i =
    let (fd, ic, oc) as conn = connect () in
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.25
     with Unix.Unix_error _ | Invalid_argument _ -> ());
    (try
       Printf.fprintf oc "SYNC %d %d\n" (Prng.int rng 3) (Prng.int rng 8);
       flush oc;
       let header = input_line ic in
       match Protocol.parse_response header with
       | Error msg ->
         failwith (Printf.sprintf "unparseable sync header %S (%s)" header msg)
       | Ok (Protocol.Sync_stream _) ->
         (try
            for _ = 1 to Prng.int rng 6 do
              let line = input_line ic in
              (match Protocol.parse_response line with
              | Ok _ -> ()
              | Error msg ->
                failwith
                  (Printf.sprintf "unparseable stream line %S (%s)" line msg));
              let ack =
                match Prng.int rng 4 with
                | 0 -> "ACKED x"
                | 1 -> Printf.sprintf "ACKED %d" (Prng.int rng 3)
                | _ -> Printf.sprintf "ACKED %d" (Prng.int rng 1000)
              in
              output_string oc ack;
              output_char oc '\n';
              flush oc
            done
          with End_of_file | Sys_error _ | Sys_blocked_io | Unix.Unix_error _ ->
            (* link dropped (garbage ack) or nothing left to push *) ())
       | Ok _ -> (* FENCED or ERR: the stream never started *) ()
     with
    | Failure detail ->
      incr failures;
      report name i detail
    | End_of_file | Sys_error _ | Sys_blocked_io | Unix.Unix_error _ -> ());
    close_conn conn
  in
  (* Binary-protocol conversation on a throwaway connection: negotiate
     [HELLO BIN], pipeline batches of framed requests with gapped ids
     and check that every reply frame decodes and answers a pending id
     with a response kind the request could produce (a STATS payload on
     a QUERY id would be a misattributed reply), then optionally poison
     the stream — an oversized frame, an unknown opcode, a length below
     the header minimum, a frame truncated by hangup, garbage bytes —
     and check the documented recovery: rejected by id with the stream
     still usable, or ERR to id 0 followed by a clean close. *)
  let fuzz_binary_episode i =
    let (fd, ic, oc) as conn = connect () in
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0
     with Unix.Unix_error _ | Invalid_argument _ -> ());
    let read_frame () =
      let flen = Protocol.Binary.get_u32 (really_input_string ic 4) 0 in
      if flen < 5 then failwith (Printf.sprintf "server sent a frame with len %d" flen)
      else begin
        let rest = really_input_string ic flen in
        (Protocol.Binary.get_u32 rest 0, Char.code rest.[4], String.sub rest 5 (flen - 5))
      end
    in
    let next_id = ref (Prng.int rng 1_000_000) in
    let fresh_id () =
      let id = !next_id in
      next_id := id + 1 + Prng.int rng 5;
      id
    in
    (* One pipelined batch: write every frame, then collect every reply. *)
    let batch () =
      let n = 1 + Prng.int rng 6 in
      let pending = Hashtbl.create 8 in
      let buf = Buffer.create 256 in
      for _ = 1 to n do
        let id = fresh_id () in
        let req, kind =
          match Prng.int rng 10 with
          | 0 | 1 | 2 ->
            ( Protocol.Query
                { tau = Prng.int rng 3; tree = random_tree rng (1 + Prng.int rng 8) },
              `Read )
          | 3 | 4 ->
            ( Protocol.Knn
                { k = 1 + Prng.int rng 3; tree = random_tree rng (1 + Prng.int rng 8) },
              `Read )
          | 5 | 6 ->
            (Protocol.Add { seq = None; tree = random_tree rng (1 + Prng.int rng 8) }, `Add)
          | 7 -> (Protocol.Stats, `Stats)
          | 8 -> (Protocol.Health, `Health)
          | _ -> (Protocol.Promote, `Promote)
        in
        let max_lag =
          match kind with
          | `Read when Prng.int rng 2 = 0 -> Some (Prng.int rng 5)
          | _ -> None
        in
        Protocol.Binary.encode_request buf ~id ?max_lag req;
        Hashtbl.replace pending id kind
      done;
      output_string oc (Buffer.contents buf);
      flush oc;
      for _ = 1 to n do
        let id, op, body = read_frame () in
        match Hashtbl.find_opt pending id with
        | None ->
          failwith (Printf.sprintf "reply to unknown or already-answered id %d" id)
        | Some kind -> (
          Hashtbl.remove pending id;
          match Protocol.Binary.decode_response ~op ~body with
          | Error msg -> failwith (Printf.sprintf "undecodable reply (op 0x%02x): %s" op msg)
          | Ok resp ->
            let plausible =
              match (resp, kind) with
              | (Protocol.Err _ | Protocol.Busy _), _ -> true
              | (Protocol.Hits _ | Protocol.Redirect _), `Read -> true
              | (Protocol.Added _ | Protocol.Fenced _), `Add -> true
              | Protocol.Stats_reply _, `Stats -> true
              | Protocol.Health_reply _, `Health -> true
              | Protocol.Promoted _, `Promote -> true
              | _ -> false
            in
            if not plausible then
              failwith
                (Printf.sprintf "reply %s misattributed to id %d"
                   (Protocol.render_response resp) id))
      done
    in
    let expect_err ~rid what =
      let id, op, body = read_frame () in
      if id <> rid then
        failwith (Printf.sprintf "%s answered to id %d, wanted %d" what id rid)
      else
        match Protocol.Binary.decode_response ~op ~body with
        | Ok (Protocol.Err _) -> ()
        | Ok r ->
          failwith
            (Printf.sprintf "%s answered %s, wanted ERR" what (Protocol.render_response r))
        | Error msg -> failwith (Printf.sprintf "%s answered undecodably: %s" what msg)
    in
    (try
       (* Offers below the current version are refused with ERR and the
          connection stays a text connection; the client then offers the
          current version on that same connection. *)
       let v = 1 + Prng.int rng 5 in
       if v < Protocol.Binary.version then expect_text_refusal ic oc v;
       Printf.fprintf oc "HELLO BIN %d\n" (max v Protocol.Binary.version);
       flush oc;
       (match Protocol.parse_response (input_line ic) with
       | Ok (Protocol.Hello_reply w) when w = Protocol.Binary.version -> ()
       | Ok r -> failwith ("bad HELLO reply " ^ Protocol.render_response r)
       | Error msg -> failwith ("unparseable HELLO reply: " ^ msg));
       for _ = 1 to 1 + Prng.int rng 3 do
         batch ()
       done;
       match Prng.int rng 6 with
       | 0 ->
         (* oversized frame: rejected by id, body skipped, stream usable *)
         let rid = fresh_id () in
         let b = Buffer.create 5000 in
         Protocol.Binary.frame b ~id:rid ~op:0x01
           (String.make (4097 + Prng.int rng 256) 'x');
         output_string oc (Buffer.contents b);
         flush oc;
         expect_err ~rid "oversized frame";
         batch ()
       | 1 ->
         (* unknown opcode: ERR by id, stream usable *)
         let rid = fresh_id () in
         let b = Buffer.create 32 in
         Protocol.Binary.frame b ~id:rid ~op:(0x20 + Prng.int rng 0x60)
           (String.make (Prng.int rng 8) 'z');
         output_string oc (Buffer.contents b);
         flush oc;
         expect_err ~rid "unknown opcode";
         batch ()
       | 2 ->
         (* length below the frame minimum: ERR to id 0, then close *)
         let b = Buffer.create 4 in
         Buffer.add_int32_be b (Int32.of_int (Prng.int rng 5));
         output_string oc (Buffer.contents b);
         flush oc;
         expect_err ~rid:0 "short-length frame";
         (match read_frame () with
         | exception End_of_file -> ()
         | exception (Sys_error _ | Sys_blocked_io | Unix.Unix_error _) -> ()
         | _ -> failwith "stream survived a length below the frame minimum")
       | 3 ->
         (* frame truncated by hangup: no reply owed, server must shrug *)
         let b = Buffer.create 16 in
         Protocol.Binary.frame b ~id:(fresh_id ()) ~op:0x01 (String.make 64 'y');
         let s = Buffer.contents b in
         output_string oc (String.sub s 0 (4 + Prng.int rng (String.length s - 4)));
         flush oc
       | 4 ->
         (* garbage bytes, then hang up without reading *)
         let n = 1 + Prng.int rng 64 in
         let g = Bytes.init n (fun _ -> Char.chr (Prng.int rng 256)) in
         output_string oc (Bytes.to_string g);
         flush oc
       | _ ->
         (* a valid frame split across writes mid-frame *)
         let id = fresh_id () in
         let b = Buffer.create 64 in
         Protocol.Binary.encode_request b ~id Protocol.Stats;
         let s = Buffer.contents b in
         let cut = 1 + Prng.int rng (String.length s - 1) in
         output_string oc (String.sub s 0 cut);
         flush oc;
         Thread.yield ();
         output_string oc (String.sub s cut (String.length s - cut));
         flush oc;
         let rid, op, body = read_frame () in
         if rid <> id then
           failwith (Printf.sprintf "split frame answered to id %d, wanted %d" rid id)
         else
           match Protocol.Binary.decode_response ~op ~body with
           | Ok (Protocol.Stats_reply _) -> ()
           | Ok r ->
             failwith ("split STATS frame answered " ^ Protocol.render_response r)
           | Error msg -> failwith ("split STATS frame answered undecodably: " ^ msg)
     with
    | Failure detail ->
      incr failures;
      report name i detail
    | End_of_file ->
      incr failures;
      report name i "server hung up a binary connection"
    | Sys_error _ | Sys_blocked_io | Unix.Unix_error _ ->
      incr failures;
      report name i "binary connection transport error");
    close_conn conn
  in
  for i = 1 to iterations do
    if Prng.int rng 64 = 0 then fuzz_sync_stream i;
    if Prng.int rng 48 = 0 then fuzz_binary_episode i;
    let slot = Prng.int rng (Array.length conns) in
    let _, ic, oc = conns.(slot) in
    match
      if Prng.int rng 200 = 0 then begin
        (* abrupt disconnect mid-line: only this connection may suffer *)
        output_string oc "QUERY 2 {a";
        flush oc;
        close_conn conns.(slot);
        conns.(slot) <- connect ();
        Ok ()
      end
      else begin
        let line = sanitize (random_line ()) in
        (* sometimes split the write to exercise partial-read framing *)
        if String.length line > 1 && Prng.int rng 4 = 0 then begin
          let cut = 1 + Prng.int rng (String.length line - 1) in
          output_string oc (String.sub line 0 cut);
          flush oc;
          Thread.yield ();
          output_string oc (String.sub line cut (String.length line - cut))
        end
        else output_string oc line;
        output_char oc '\n';
        flush oc;
        if expects_reply line then begin
          let reply = input_line ic in
          match Protocol.parse_response reply with
          | Ok _ ->
            (* A valid SYNC hands the fd to the cluster (or the server
               closes it after FENCED/ERR): either way it no longer
               serves plain requests, so recycle the slot. *)
            (match Protocol.parse_request line with
            | Ok (Protocol.Sync _) ->
              close_conn conns.(slot);
              conns.(slot) <- connect ()
            | _ -> ());
            Ok ()
          | Error msg -> Error (Printf.sprintf "unparseable reply %S (%s)" reply msg)
        end
        else Ok ()
      end
    with
    | Ok () -> ()
    | Error detail | (exception Failure detail) ->
      incr failures;
      report name i detail
    | exception End_of_file ->
      incr failures;
      report name i "server closed an innocent connection";
      close_conn conns.(slot);
      conns.(slot) <- connect ()
    | exception exn ->
      incr failures;
      report name i (Printexc.to_string exn);
      close_conn conns.(slot);
      conns.(slot) <- connect ()
  done;
  (* the run must end with a healthy, idle server *)
  let admin = connect () in
  let _, ic, oc = admin in
  output_string oc "STATS\n";
  flush oc;
  (match Protocol.parse_response (input_line ic) with
  | Ok (Protocol.Stats_reply s) ->
    if s.Protocol.inflight <> 0 then begin
      incr failures;
      report name iterations
        (Printf.sprintf "leaked %d inflight requests" s.Protocol.inflight)
    end;
    Printf.printf
      "%s: trees=%d queries=%d adds=%d shed=%d degraded=%d errors=%d quarantined=%d\n" name
      s.Protocol.trees s.Protocol.queries s.Protocol.adds s.Protocol.shed
      s.Protocol.degraded s.Protocol.errors s.Protocol.quarantined
  | Ok r ->
    incr failures;
    report name iterations ("bad STATS reply " ^ Protocol.render_response r)
  | Error msg | (exception Failure msg) ->
    incr failures;
    report name iterations ("unparseable STATS reply: " ^ msg)
  | exception End_of_file ->
    incr failures;
    report name iterations "server dead at end of run");
  close_conn admin;
  Array.iter close_conn conns;
  Server.drain server;
  Server.wait server;
  if Sys.file_exists sock then Sys.remove sock;
  !failures

(* The soup against a node, then against a router front over two
   in-process shards: both fronts run the same connection layer, so
   both must answer every line exactly once. *)
let fuzz_server iterations rng =
  let module Protocol = Tsj_server.Protocol in
  let module Server = Tsj_server.Server in
  let module Router = Tsj_server.Router in
  let temp_sock () =
    let sock = Filename.temp_file "tsj_fuzz" ".sock" in
    Sys.remove sock;
    sock
  in
  let config sock =
    { (Server.default_config (Protocol.Unix_path sock) ~tau:2) with
      Server.deadline_s = Some 0.01; max_line_bytes = 4096 }
  in
  let ok what = function
    | Ok v -> v
    | Error msg ->
      Printf.eprintf "%s: cannot start: %s\n" what msg;
      exit 2
  in
  let start_node sock =
    let node = ok "server" (Server.create (config sock)) in
    Server.start node;
    node
  in
  let sock = temp_sock () in
  let node_failures = fuzz_front ~name:"server" sock (start_node sock) iterations rng in
  let shard_socks = Array.init 2 (fun _ -> temp_sock ()) in
  let shards = Array.map start_node shard_socks in
  let router =
    ok "router"
      (Router.create
         { Router.map = Tsj_server.Shard.create ~shards:2 ~tau:2 ();
           tau = 2;
           groups = Array.map (fun s -> [ Protocol.Unix_path s ]) shard_socks;
           timeout_s = 2.0; attempts = 2; ledger = None; seed = 31;
           hedge_s = None; margin_ms = 0 })
  in
  let sock = temp_sock () in
  let front = ok "server/router" (Server.create_router (config sock) router) in
  Server.start front;
  let router_failures = fuzz_front ~name:"server/router" sock front iterations rng in
  Router.close router;
  Array.iteri
    (fun i shard ->
      Server.drain shard;
      Server.wait shard;
      if Sys.file_exists shard_socks.(i) then Sys.remove shard_socks.(i))
    shards;
  node_failures + router_failures

(* Whole-tree dedup hunt: a live server opened with dedup on is fed
   duplicate and near-duplicate ADDs; a duplicate ADD must be acked
   with the original tree's id, a near-duplicate must mint a fresh id,
   and the STATS dedup counter must track the suppressed count
   exactly. *)
let fuzz_dedup iterations rng =
  let module Protocol = Tsj_server.Protocol in
  let module Server = Tsj_server.Server in
  let failures = ref 0 in
  let sock = Filename.temp_file "tsj_fuzz_dedup" ".sock" in
  Sys.remove sock;
  let addr = Protocol.Unix_path sock in
  let config = { (Server.default_config addr ~tau:2) with Server.dedup = true } in
  let server =
    match Server.create config with
    | Ok s -> s
    | Error msg ->
      Printf.eprintf "server: cannot start: %s\n" msg;
      exit 2
  in
  Server.start server;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  let request line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    Protocol.parse_response (input_line ic)
  in
  (* bracket string -> id of the first ADD, mirroring the dedup layer *)
  let known : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let expected_dedups = ref 0 in
  for i = 1 to iterations do
    (try
       let tree =
         if Hashtbl.length known > 0 && Prng.int rng 2 = 0 then begin
           (* re-submit a tree the server has already acked *)
           let keys = Hashtbl.fold (fun k _ acc -> k :: acc) known [] in
           List.nth keys (Prng.int rng (List.length keys))
         end
         else Tsj_tree.Bracket.to_string (random_tree rng (1 + Prng.int rng 8))
       in
       match request ("ADD " ^ tree) with
       | Ok (Protocol.Added { id; _ }) ->
         (match Hashtbl.find_opt known tree with
         | Some first ->
           incr expected_dedups;
           if id <> first then begin
             incr failures;
             report "dedup" i
               (Printf.sprintf "duplicate ADD acked %d, original was %d" id first)
           end
         | None -> Hashtbl.replace known tree id)
       | Ok r ->
         incr failures;
         report "dedup" i ("bad ADD reply " ^ Protocol.render_response r)
       | Error msg ->
         incr failures;
         report "dedup" i ("unparseable ADD reply: " ^ msg)
     with
    | End_of_file ->
      incr failures;
      report "dedup" i "server closed the connection";
      exit 1
    | exn ->
      incr failures;
      report "dedup" i (Printexc.to_string exn))
  done;
  (* the dedup counter must equal the duplicates we actually sent *)
  (match request "STATS" with
  | Ok (Protocol.Stats_reply s) ->
    if s.Protocol.dedup <> !expected_dedups then begin
      incr failures;
      report "dedup" iterations
        (Printf.sprintf "STATS dedup=%d, expected %d" s.Protocol.dedup
           !expected_dedups)
    end;
    if s.Protocol.trees <> Hashtbl.length known then begin
      incr failures;
      report "dedup" iterations
        (Printf.sprintf "STATS trees=%d, expected %d distinct" s.Protocol.trees
           (Hashtbl.length known))
    end
  | Ok r -> incr failures; report "dedup" iterations ("bad STATS reply " ^ Protocol.render_response r)
  | Error msg | (exception Failure msg) ->
    incr failures;
    report "dedup" iterations ("unparseable STATS reply: " ^ msg)
  | exception End_of_file ->
    incr failures;
    report "dedup" iterations "server dead at end of run");
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Server.drain server;
  Server.wait server;
  if Sys.file_exists sock then Sys.remove sock;
  !failures

(* Scatter-gather robustness hunt.  Pure half: Merge.query/knn under
   byzantine shard answers — random out-of-range shard-local ids,
   negative/over-threshold distances, inverted sandwiches, Unreachable
   shards — must never raise and must always produce a well-formed
   answer: exact hits unique per gid, sorted by (distance, gid) and
   inside [0, tau]; sandwiches unique per gid, sorted, [0 <= lo <= hi],
   lo <= tau, disjoint from the exact set; an all-Unreachable cluster
   answers degraded with no exact hit (a malformed reply can remove
   precision but never invent a result).  Live half: a real Router whose
   "shards" are shady listener threads replying with silence, slammed
   doors, garbage bytes, truncated lines, duplicate acks, cross-epoch
   FENCED, wrong-verb replies and random-id trees: every add/query/knn/
   stats/reconcile call must return (no exception, no hang beyond the
   per-shard deadline) and every answer must pass the same shape
   checks. *)
let fuzz_router iterations rng =
  let module Protocol = Tsj_server.Protocol in
  let module Router = Tsj_server.Router in
  let module Shard = Tsj_server.Shard in
  let failures = ref 0 in
  let fail i detail =
    incr failures;
    report "router" i detail
  in
  (* shape invariants every merged answer must satisfy *)
  let check_answer ~tau (a : Router.answer) =
    let rec hits_ok = function
      | (g1, d1) :: ((g2, d2) :: _ as rest) ->
        if compare (d1, g1) (d2, g2) >= 0 then
          Some "exact hits out of order or duplicated"
        else hits_ok rest
      | _ -> None
    in
    let rec unv_ok = function
      | (g1, _, _) :: ((g2, _, _) :: _ as rest) ->
        if g1 >= g2 then Some "sandwiches out of order or duplicated"
        else unv_ok rest
      | _ -> None
    in
    match (hits_ok a.Router.a_hits, unv_ok a.Router.a_unverified) with
    | Some e, _ | _, Some e -> Some e
    | None, None -> (
      match List.find_opt (fun (_, d) -> d < 0 || d > tau) a.Router.a_hits with
      | Some (g, d) ->
        Some (Printf.sprintf "exact hit gid %d distance %d outside [0,%d]" g d tau)
      | None -> (
        match
          List.find_opt
            (fun (_, lo, hi) -> lo < 0 || lo > hi || lo > tau)
            a.Router.a_unverified
        with
        | Some (g, lo, hi) ->
          Some (Printf.sprintf "malformed sandwich gid %d [%d,%d]" g lo hi)
        | None ->
          if
            List.exists
              (fun (g, _, _) -> List.mem_assoc g a.Router.a_hits)
              a.Router.a_unverified
          then Some "gid both exact and unverified"
          else if a.Router.a_unverified <> [] && not a.Router.a_degraded then
            Some "sandwiches in an answer not marked degraded"
          else None))
  in
  (* --- pure half: byzantine answers through the merge --- *)
  let merge_case i =
    let tau = Prng.int rng 4 in
    let query_size = 1 + Prng.int rng 30 in
    let shards = 1 + Prng.int rng 4 in
    (* the trusted side (the router's own ledger): per-shard residents,
       gid = global position, lseq = position within the shard *)
    let residents = Array.make shards [] in
    let n_res = Prng.int rng 12 in
    for g = 0 to n_res - 1 do
      let s = Prng.int rng shards in
      residents.(s) <- residents.(s) @ [ (g, Prng.int rng 40) ]
    done;
    let resident ~shard = residents.(shard) in
    let to_gid ~shard lseq =
      if lseq < 0 then None
      else Option.map fst (List.nth_opt residents.(shard) lseq)
    in
    let random_answer () =
      if Prng.int rng 4 = 0 then Router.Merge.Unreachable
      else
        Router.Merge.Answer
          {
            degraded = Prng.int rng 3 = 0;
            hits =
              List.init (Prng.int rng 5) (fun _ ->
                  (Prng.int rng 16 - 2, Prng.int rng (tau + 4) - 2));
            unverified =
              List.init (Prng.int rng 4) (fun _ ->
                  (Prng.int rng 16 - 2, Prng.int rng 10 - 2, Prng.int rng 14 - 2));
          }
    in
    let answers = List.init shards (fun s -> (s, random_answer ())) in
    (match Router.Merge.query ~query_size ~tau ~to_gid ~resident answers with
    | a ->
      (match check_answer ~tau a with
      | Some e -> fail i ("merge.query: " ^ e)
      | None -> ());
      if
        List.for_all (fun (_, x) -> x = Router.Merge.Unreachable) answers
        && (a.Router.a_hits <> [] || not a.Router.a_degraded)
      then fail i "merge.query: all-unreachable invented hits or hid degradation"
    | exception exn -> fail i ("merge.query raised " ^ Printexc.to_string exn));
    let k = Prng.int rng 5 in
    match Router.Merge.knn ~k ~query_size ~tau ~to_gid ~resident answers with
    | a ->
      (match check_answer ~tau a with
      | Some e -> fail i ("merge.knn: " ^ e)
      | None -> ());
      if List.length a.Router.a_hits > k then
        fail i (Printf.sprintf "merge.knn: %d hits for k=%d"
                  (List.length a.Router.a_hits) k)
    | exception exn -> fail i ("merge.knn raised " ^ Printexc.to_string exn)
  in
  (* --- live half: a real router over shady shard listeners --- *)
  let stop = Atomic.make false in
  let conn_seed = Atomic.make 0 in
  let socks =
    Array.init 2 (fun i ->
        let f = Filename.temp_file (Printf.sprintf "tsj_fuzz_rt%d" i) ".sock" in
        Sys.remove f;
        f)
  in
  let render r = Protocol.render_response r in
  let shady_stats rng =
    Protocol.Stats_reply
      {
        Protocol.zero_stats with
        trees = Prng.int rng 4; tau = 2; journal_records = Prng.int rng 4;
        epoch = Prng.int rng 50; primary = Prng.int rng 4 <> 0;
      }
  in
  let handle_conn fd =
    let rng = Prng.create (0x5AD0 + Atomic.fetch_and_add conn_seed 1) in
    let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
    (try
       let continue = ref true in
       while !continue do
         let (_ : string) = input_line ic in
         match Prng.int rng 12 with
         | 0 -> () (* silence: the router's per-shard deadline must fire *)
         | 1 -> continue := false (* slam the door mid-request *)
         | 2 ->
           output_string oc "\255\000 garbage }{ \127\n";
           flush oc
         | 3 ->
           (* truncated reply, then hangup *)
           output_string oc "HITS 3 tru";
           flush oc;
           continue := false
         | 4 ->
           (* cross-epoch response *)
           output_string oc (render (Protocol.Fenced (Prng.int rng 1000)) ^ "\n");
           flush oc
         | 5 ->
           (* duplicate shard ack: two replies to one request — the
              second desynchronizes the lock-step conversation *)
           let id = Prng.int rng 20 in
           output_string oc (render (Protocol.Added { id; partners = [] }) ^ "\n");
           output_string oc
             (render (Protocol.Added { id = id + 1; partners = [] }) ^ "\n");
           flush oc
         | 6 ->
           output_string oc
             (render (Protocol.Busy { retry_after_ms = None }) ^ "\n");
           flush oc
         | 7 | 8 ->
           (* parseable reply, wrong verb or random ids *)
           let r =
             match Prng.int rng 5 with
             | 0 ->
               Protocol.Hits
                 {
                   degraded = Prng.int rng 2 = 0;
                   hits =
                     List.init (Prng.int rng 4) (fun _ ->
                         (Prng.int rng 50, Prng.int rng 6));
                   unverified =
                     List.init (Prng.int rng 3) (fun _ ->
                         (Prng.int rng 50, Prng.int rng 5, Prng.int rng 9));
                 }
             | 1 ->
               Protocol.Added
                 { id = Prng.int rng 50;
                   partners = [ (Prng.int rng 9, Prng.int rng 3) ] }
             | 2 -> shady_stats rng
             | 3 ->
               Protocol.Tree_reply
                 { seq = Prng.int rng 50; tree = random_tree rng (1 + Prng.int rng 6) }
             | _ -> Protocol.Promoted (Prng.int rng 100)
           in
           output_string oc (render r ^ "\n");
           flush oc
         | 9 ->
           output_string oc (render (Protocol.Err "shady shard") ^ "\n");
           flush oc
         | _ ->
           (* behave for once, so later lines on this connection reach
              the nastier arms *)
           output_string oc
             (render (Protocol.Hits { degraded = false; hits = []; unverified = [] })
             ^ "\n");
           flush oc
       done
     with End_of_file | Sys_error _ | Sys_blocked_io | Unix.Unix_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let listeners =
    Array.map
      (fun sock ->
        let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind lfd (Unix.ADDR_UNIX sock);
        Unix.listen lfd 16;
        Thread.create
          (fun () ->
            while not (Atomic.get stop) do
              match Unix.select [ lfd ] [] [] 0.1 with
              | [], _, _ -> ()
              | _ -> (
                match Unix.accept lfd with
                | fd, _ -> ignore (Thread.create handle_conn fd)
                | exception Unix.Unix_error _ -> ())
            done;
            try Unix.close lfd with Unix.Unix_error _ -> ())
          ())
      socks
  in
  let router =
    let map = Shard.create ~shards:(Array.length socks) ~tau:2 () in
    let config =
      { Router.map; tau = 2;
        groups = Array.map (fun s -> [ Protocol.Unix_path s ]) socks;
        timeout_s = 0.05; attempts = 2; ledger = None; seed = 7;
        hedge_s = None; margin_ms = 0 }
    in
    match Router.create config with
    | Ok r -> r
    | Error msg ->
      Printf.eprintf "router: cannot start against shady shards: %s\n" msg;
      exit 2
  in
  let live_ops = ref 0 in
  let live_episode i =
    incr live_ops;
    match Prng.int rng 6 with
    | 0 | 1 -> (
      match Router.add router (random_tree rng (1 + Prng.int rng 10)) with
      | Ok _ | Error _ -> ()
      | exception exn -> fail i ("router.add raised " ^ Printexc.to_string exn))
    | 2 | 3 -> (
      let tq = Prng.int rng 3 in
      match Router.query router ~tau:tq (random_tree rng (1 + Prng.int rng 10)) with
      | a -> (
        match check_answer ~tau:tq a with
        | Some e -> fail i ("router.query: " ^ e)
        | None -> ())
      | exception exn -> fail i ("router.query raised " ^ Printexc.to_string exn))
    | 4 -> (
      match Router.knn router ~k:(Prng.int rng 4) (random_tree rng (1 + Prng.int rng 10)) with
      | a -> (
        match check_answer ~tau:(Router.tau router) a with
        | Some e -> fail i ("router.knn: " ^ e)
        | None -> ())
      | exception exn -> fail i ("router.knn raised " ^ Printexc.to_string exn))
    | _ -> (
      (match Router.stats router with
      | (_ : Protocol.stats_reply) -> ()
      | exception exn -> fail i ("router.stats raised " ^ Printexc.to_string exn));
      if Prng.int rng 4 = 0 then
        match Router.reconcile router with
        | (_ : int) -> ()
        | exception exn ->
          fail i ("router.reconcile raised " ^ Printexc.to_string exn))
  in
  for i = 1 to iterations do
    merge_case i;
    if Prng.int rng 50 = 0 then live_episode i
  done;
  Atomic.set stop true;
  Array.iter Thread.join listeners;
  Router.close router;
  Array.iter (fun s -> if Sys.file_exists s then Sys.remove s) socks;
  Printf.printf "router: %d merge cases, %d live calls against shady shards\n"
    iterations !live_ops;
  !failures

(* Integrity hunt.  Store half: each iteration builds a small journaled
   store next to a never-corrupted ephemeral twin, rots the disk — a
   random bit flip anywhere in the journal, snapshot or a seal sidecar,
   a random truncation, or a mid-journal record flip before a restart —
   and drives one of the repair paths: a live full scrub cycle, a
   self-healing reopen refetching the record from the twin, or a
   quarantine reopen.  The corruption must always be detected, the
   post-repair state must scrub clean, and every query must match the
   twin exactly (scrub/heal) or answer a sound subset (quarantine) —
   rot may cost completeness, never a wrong answer.  Merkle half:
   random push/truncate op sequences on the incremental digest tree
   must agree with a from-scratch rebuild on the root and on random
   ranges (expected: 0). *)
let fuzz_scrub iterations rng =
  let module Store = Tsj_server.Store in
  let module Integrity = Tsj_server.Integrity in
  let failures = ref 0 in
  let fail i detail =
    incr failures;
    report "scrub" i detail
  in
  let fresh_dir () =
    let d = Filename.temp_file "tsj_fuzz_scrub" "" in
    Sys.remove d;
    Unix.mkdir d 0o700;
    d
  in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
        (try Unix.rmdir path with Unix.Unix_error _ -> ())
      end
      else try Sys.remove path with Sys_error _ -> ()
  in
  let full_scrub st =
    let budget = Store.journal_records st + 1 in
    let a = Store.scrub_step ~budget st in
    let b = Store.scrub_step ~budget st in
    (a.Store.sc_findings @ b.Store.sc_findings, a.Store.sc_repaired + b.Store.sc_repaired)
  in
  (* --- merkle half: incremental ops vs from-scratch rebuild --- *)
  let merkle_case i =
    let m = Integrity.Merkle.create () in
    let shadow = ref [] (* newest first *) in
    let seq = ref 0 in
    for _ = 1 to 1 + Prng.int rng 24 do
      if Prng.int rng 4 = 0 && !shadow <> [] then begin
        let keep = Prng.int rng (List.length !shadow + 1) in
        Integrity.Merkle.truncate m keep;
        let rec drop l = if List.length l > keep then drop (List.tl l) else l in
        shadow := drop !shadow
      end
      else begin
        let line = Store.render_record ~seq:!seq (random_tree rng (1 + Prng.int rng 6)) in
        incr seq;
        Integrity.Merkle.push m line;
        shadow := line :: !shadow
      end
    done;
    let reference = Integrity.Merkle.of_lines (List.rev !shadow) in
    let n = Integrity.Merkle.size m in
    if n <> List.length !shadow then
      fail i (Printf.sprintf "merkle size %d, shadow %d" n (List.length !shadow))
    else begin
      if Integrity.Merkle.root m <> Integrity.Merkle.root reference then
        fail i "merkle root diverged from a from-scratch rebuild";
      for _ = 1 to 3 do
        let lo = Prng.int rng (n + 1) in
        let hi = lo + Prng.int rng (n - lo + 1) in
        if Integrity.Merkle.range m ~lo ~hi <> Integrity.Merkle.range reference ~lo ~hi then
          fail i (Printf.sprintf "merkle range [%d,%d) diverged" lo hi)
      done;
      Integrity.Merkle.recompute m;
      if Integrity.Merkle.root m <> Integrity.Merkle.root reference then
        fail i "merkle recompute changed the root"
    end
  in
  (* --- store half --- *)
  let store_case i =
    let dir = fresh_dir () in
    let cleanup = ref [] in
    (try
       let tau = 1 + Prng.int rng 2 in
       let open_or_fail what = function
         | Ok st -> st
         | Error msg -> failwith (Printf.sprintf "%s refused: %s" what msg)
       in
       let twin = open_or_fail "twin open" (Store.open_ ~tau ()) in
       let st = ref (open_or_fail "open" (Store.open_ ~dir ~tau ())) in
       cleanup := [ twin; !st ];
       let trees = ref [] in
       let feed n =
         for _ = 1 to n do
           let t = random_tree rng (1 + Prng.int rng 10) in
           trees := t :: !trees;
           ignore (Store.add twin t);
           ignore (Store.add !st t)
         done
       in
       feed (Prng.int rng 3);
       if Prng.int rng 2 = 0 then Store.flush !st;
       feed (3 + Prng.int rng 4);
       let n_ref = Store.n_trees twin in
       let probes =
         List.filteri (fun k _ -> k < 3) !trees
         |> List.map (fun t ->
                (t, (Store.query ~tau twin t).Tsj_core.Incremental.hits))
       in
       let check_exact what =
         if Store.n_trees !st <> n_ref then
           failwith (Printf.sprintf "%s: %d trees, twin has %d" what
                       (Store.n_trees !st) n_ref);
         List.iter
           (fun (t, expect) ->
             let got = (Store.query ~tau !st t).Tsj_core.Incremental.hits in
             if got <> expect then failwith (what ^ ": answers diverged from the twin"))
           probes
       in
       let check_sound what =
         List.iter
           (fun (t, expect) ->
             let got = (Store.query ~tau !st t).Tsj_core.Incremental.hits in
             List.iter
               (fun (id, d) ->
                 if not (List.mem (id, d) expect) then
                   failwith (Printf.sprintf "%s: invented hit (%d,%d)" what id d))
               got)
           probes
       in
       let targets () =
         List.filter
           (fun p -> Sys.file_exists p && (Unix.stat p).Unix.st_size > 0)
           (List.concat_map
              (fun f -> [ f; Integrity.seal_path f ])
              [ Filename.concat dir "journal"; Filename.concat dir "snapshot" ])
       in
       let flip_in path =
         let size = (Unix.stat path).Unix.st_size in
         Tsj_harness.Faults.flip_bit path ~bit:(Prng.int rng (8 * size))
       in
       (* Corrupt a journal record that is not the last one (a rotted
          last record is the torn-tail path, not mid-file corruption);
          returns false when the journal is too short. *)
       let rot_mid_record () =
         let text =
           In_channel.with_open_bin (Filename.concat dir "journal")
             In_channel.input_all
         in
         let lines = String.split_on_char '\n' text in
         let extents, _ =
           List.fold_left
             (fun (acc, off) line ->
               let acc =
                 if String.length line > 4 && String.sub line 0 6 <> "epoch "
                 then (off, String.length line) :: acc
                 else acc
               in
               (acc, off + String.length line + 1))
             ([], 0) lines
         in
         match List.rev extents with
         | [] | [ _ ] -> false
         | records ->
           let off, len =
             List.nth records (Prng.int rng (List.length records - 1))
           in
           Tsj_harness.Faults.flip_bit
             (Filename.concat dir "journal")
             ~bit:((8 * off) + Prng.int rng (8 * len));
           true
       in
       (match Prng.int rng 4 with
       | 0 ->
         (* live bit rot, repaired by the scrubber *)
         flip_in (List.nth (targets ()) (Prng.int rng (List.length (targets ()))));
         let findings, _ = full_scrub !st in
         if findings = [] then failwith "live rot went undetected";
         let findings, _ = full_scrub !st in
         if findings <> [] then failwith "store still dirty after a repair cycle";
         check_exact "live rot"
       | 1 ->
         (* truncation (lost suffix), repaired by the scrubber *)
         let path = List.nth (targets ()) (Prng.int rng (List.length (targets ()))) in
         let size = (Unix.stat path).Unix.st_size in
         (* Two cuts are not corruption under the line-based model: an
            empty seal sidecar means "never sealed" (vacuously clean by
            design, keep >= 1 byte) and shaving only the trailing
            newline leaves every logical record intact (cut at most
            size - 2). *)
         let floor = if Filename.check_suffix path ".seal" then 1 else 0 in
         let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
         Unix.ftruncate fd (max floor (Prng.int rng (max 1 (size - 1))));
         Unix.close fd;
         let findings, _ = full_scrub !st in
         if findings = [] then failwith "truncation went undetected";
         let findings, _ = full_scrub !st in
         if findings <> [] then failwith "store still dirty after a repair cycle";
         check_exact "truncation"
       | 2 ->
         (* mid-journal rot before a restart, healed from the twin *)
         if rot_mid_record () then begin
           (* abandoned without close = kill -9; every add was flushed *)
           st :=
             open_or_fail "healing reopen"
               (Store.open_ ~dir ~tau
                  ~heal:(fun seq -> Some (Store.record_for twin seq))
                  ());
           cleanup := [ twin; !st ];
           let _, _, repaired, _ = Store.scrub_counters !st in
           if repaired = 0 then failwith "healing reopen credited no repair";
           let findings, _ = full_scrub !st in
           if findings <> [] then failwith "store dirty after a healing reopen";
           check_exact "healing reopen"
         end
       | _ ->
         (* mid-journal rot before a restart, quarantined *)
         if rot_mid_record () then begin
           st :=
             open_or_fail "quarantine reopen"
               (Store.open_ ~dir ~tau ~quarantine:true ());
           cleanup := [ twin; !st ];
           let _, _, _, quarantined = Store.scrub_counters !st in
           if quarantined = 0 && Store.n_trees !st = n_ref then
             failwith "quarantine reopen noticed nothing";
           if Store.n_trees !st > n_ref then
             failwith "quarantine reopen invented trees";
           let findings, _ = full_scrub !st in
           if findings <> [] then failwith "store dirty after a quarantine reopen";
           check_sound "quarantine reopen"
         end);
       List.iter Store.close !cleanup
     with
    | Failure detail -> fail i detail
    | exn -> fail i (Printexc.to_string exn));
    rm dir
  in
  for i = 1 to iterations do
    merkle_case i;
    store_case i
  done;
  !failures

(* Overload-mode fuzz: adversarial deadline and retry-after traffic
   against a live server with a tiny per-connection token bucket.  Text
   lines carry random [@] budget tokens (zero, tiny, huge, overflowing,
   negative, non-numeric, empty); binary episodes negotiate a random
   protocol version and send work frames with random deadline words.
   Invariants: every request gets exactly one well-formed reply; a
   malformed token is answered ERR, never silently glued to the tree; a
   zero budget never yields HITS/ADDED; every BUSY retry-after hint is
   within sane bounds; the run ends with a healthy, idle server. *)
let fuzz_overload iterations rng =
  let module Protocol = Tsj_server.Protocol in
  let module Server = Tsj_server.Server in
  let module Store = Tsj_server.Store in
  let failures = ref 0 in
  let sock = Filename.temp_file "tsj_fuzz_ov" ".sock" in
  Sys.remove sock;
  let addr = Protocol.Unix_path sock in
  let config =
    { (Server.default_config addr ~tau:2) with
      Server.deadline_s = Some 0.05;
      rate = Some 50.0;
      burst = 2;
      max_inflight = 8 }
  in
  let server =
    match Server.create config with
    | Ok s -> s
    | Error msg ->
      Printf.eprintf "overload: cannot start: %s\n" msg;
      exit 2
  in
  for _ = 1 to 8 do
    ignore (Store.add (Server.store server) (random_tree rng (1 + Prng.int rng 8)))
  done;
  Server.start server;
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
    (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  in
  let close_conn (fd, _, _) = try Unix.close fd with Unix.Unix_error _ -> () in
  (* Bucket hints are bounded by the refill period (20 ms at 50/s),
     backlog hints by the hard-coded [5, 1000] clamp. *)
  let check_busy_hint what = function
    | Protocol.Busy { retry_after_ms = Some ms } when ms < 1 || ms > 2000 ->
      failwith (Printf.sprintf "%s: BUSY hint %dms out of bounds" what ms)
    | _ -> ()
  in
  let conn = ref (connect ()) in
  let text_case i =
    (* kind: the semantics the reply must respect *)
    let tok, kind =
      match Prng.int rng 10 with
      | 0 | 1 -> ("@0 ", `Zero)
      | 2 -> ("@1 ", `Valid)
      | 3 -> (Printf.sprintf "@%d " (1 + Prng.int rng 100_000), `Valid)
      | 4 -> (Printf.sprintf "@%d " Protocol.max_deadline_ms, `Valid)
      | 5 -> ("@99999999999999999999 ", `Garbage)
      | 6 -> ("@-7 ", `Garbage)
      | 7 -> ("@x7 ", `Garbage)
      | 8 -> ("@ ", `Garbage)
      | _ -> ("", `Valid)
    in
    let ts = Tsj_tree.Bracket.to_string (random_tree rng (1 + Prng.int rng 8)) in
    let line =
      match Prng.int rng 3 with
      | 0 -> Printf.sprintf "QUERY %d %s%s" (Prng.int rng 3) tok ts
      | 1 -> Printf.sprintf "KNN %d %s%s" (1 + Prng.int rng 3) tok ts
      | _ -> Printf.sprintf "ADD %s%s" tok ts
    in
    try
      let _, ic, oc = !conn in
      output_string oc line;
      output_char oc '\n';
      flush oc;
      let reply = input_line ic in
      match Protocol.parse_response reply with
      | Error msg -> failwith (Printf.sprintf "unparseable reply %S (%s)" reply msg)
      | Ok resp -> (
        check_busy_hint "text" resp;
        match (kind, resp) with
        | `Zero, (Protocol.Hits _ | Protocol.Added _) ->
          failwith (Printf.sprintf "zero budget answered: %s" reply)
        | `Zero, Protocol.Busy _ ->
          failwith "zero budget shed instead of expired"
        | `Garbage, (Protocol.Hits _ | Protocol.Added _ | Protocol.Busy _) ->
          failwith
            (Printf.sprintf "garbage token %S accepted: %s -> %s" tok line reply)
        | _ -> ())
    with
    | Failure detail ->
      incr failures;
      report "overload" i detail
    | End_of_file | Sys_error _ | Unix.Unix_error _ ->
      incr failures;
      report "overload" i "server hung up a text connection";
      close_conn !conn;
      conn := connect ()
  in
  let binary_episode i =
    let ((_, ic, oc) as c) = connect () in
    (try
       let offered = 1 + Prng.int rng 7 in
       if offered < Protocol.Binary.version then expect_text_refusal ic oc offered;
       output_string oc
         (Printf.sprintf "HELLO BIN %d\n" (max offered Protocol.Binary.version));
       flush oc;
       (match Protocol.parse_response (input_line ic) with
       | Ok (Protocol.Hello_reply v) when v = Protocol.Binary.version -> ()
       | Ok (Protocol.Hello_reply v) ->
         failwith (Printf.sprintf "negotiated v%d from an offer of v%d" v offered)
       | Ok r -> failwith ("bad HELLO reply " ^ Protocol.render_response r)
       | Error msg -> failwith ("unparseable HELLO reply: " ^ msg));
       let read_frame () =
         let flen = Protocol.Binary.get_u32 (really_input_string ic 4) 0 in
         let rest = really_input_string ic flen in
         ( Protocol.Binary.get_u32 rest 0,
           Char.code rest.[4],
           String.sub rest 5 (flen - 5) )
       in
       for j = 1 to 4 do
         let id = (i * 7) + j in
         let deadline_ms =
           match Prng.int rng 5 with
           | 0 -> Some 0
           | 1 -> Some (1 + Prng.int rng 200)
           | 2 -> Some Protocol.max_deadline_ms
           | 3 -> Some max_int (* encoder must clamp, not overflow the u32 *)
           | _ -> None
         in
         let tree = random_tree rng (1 + Prng.int rng 8) in
         let req =
           match Prng.int rng 3 with
           | 0 -> Protocol.Query { tau = Prng.int rng 3; tree }
           | 1 -> Protocol.Knn { k = 1 + Prng.int rng 3; tree }
           | _ -> Protocol.Add { seq = None; tree }
         in
         let buf = Buffer.create 64 in
         Protocol.Binary.encode_request buf ~id ?deadline_ms req;
         output_string oc (Buffer.contents buf);
         flush oc;
         let rid, op, body = read_frame () in
         if rid <> id then failwith (Printf.sprintf "id %d answered as %d" id rid);
         match Protocol.Binary.decode_response ~op ~body with
         | Error msg -> failwith ("undecodable binary reply: " ^ msg)
         | Ok resp -> (
           check_busy_hint "binary" resp;
           match (deadline_ms, resp) with
           | Some 0, (Protocol.Hits _ | Protocol.Added _) ->
             failwith "a zero binary budget yielded an answer"
           | _ -> ())
       done
     with
    | Failure detail ->
      incr failures;
      report "overload" i detail
    | End_of_file | Sys_error _ | Unix.Unix_error _ ->
      incr failures;
      report "overload" i "server hung up a binary episode");
    close_conn c
  in
  for i = 1 to iterations do
    if Prng.int rng 16 = 0 then binary_episode i;
    text_case i
  done;
  (* the run must end with a healthy, idle server *)
  let ((_, ic, oc) as admin) = connect () in
  output_string oc "STATS\n";
  flush oc;
  (match Protocol.parse_response (input_line ic) with
  | Ok (Protocol.Stats_reply s) ->
    if s.Protocol.inflight <> 0 then begin
      incr failures;
      report "overload" iterations
        (Printf.sprintf "leaked %d inflight requests" s.Protocol.inflight)
    end;
    Printf.printf "overload: queries=%d adds=%d shed=%d expired=%d errors=%d\n"
      s.Protocol.queries s.Protocol.adds s.Protocol.shed s.Protocol.expired
      s.Protocol.errors
  | Ok r ->
    incr failures;
    report "overload" iterations ("bad STATS reply " ^ Protocol.render_response r)
  | Error msg | (exception Failure msg) ->
    incr failures;
    report "overload" iterations ("unparseable STATS reply: " ^ msg)
  | exception End_of_file ->
    incr failures;
    report "overload" iterations "server dead at end of run");
  close_conn admin;
  close_conn !conn;
  Server.drain server;
  Server.wait server;
  if Sys.file_exists sock then Sys.remove sock;
  !failures

let () =
  let mode, iterations, seed =
    match Array.to_list Sys.argv with
    | [ _; ("kernel" | "ball") as mode ] -> (mode, 6, 42)
    | [ _; mode ] -> (mode, 200_000, 42)
    | [ _; mode; iters ] -> (mode, int_of_string iters, 42)
    | [ _; mode; iters; seed ] -> (mode, int_of_string iters, int_of_string seed)
    | _ ->
      prerr_endline
        "usage: fuzz_main (lemma2|windows|join|ted|xml|bracket|server|dedup|router|scrub|overload) [iterations] [seed]\n\
        \       fuzz_main kernel [max_nodes]   (exhaustive banded-kernel sweep, default 6 nodes)\n\
        \       fuzz_main ball [max_nodes]     (exhaustive edit-ball sweep of the index, default 6 nodes)";
      exit 2
  in
  let rng = Prng.create seed in
  let failures =
    match mode with
    | "lemma2" -> fuzz_lemma2 iterations rng
    | "windows" -> fuzz_windows iterations rng
    | "join" -> fuzz_join iterations rng
    | "ted" -> fuzz_ted iterations rng
    | "kernel" -> fuzz_kernel iterations
    | "ball" -> fuzz_ball iterations
    | "xml" -> fuzz_xml iterations rng
    | "bracket" -> fuzz_bracket iterations rng
    | "server" -> fuzz_server iterations rng
    | "dedup" -> fuzz_dedup iterations rng
    | "router" -> fuzz_router iterations rng
    | "scrub" -> fuzz_scrub iterations rng
    | "overload" -> fuzz_overload iterations rng
    | other ->
      Printf.eprintf "unknown mode %S\n" other;
      exit 2
  in
  Printf.printf "%s: %d %s, %d failures\n" mode iterations
    (if mode = "kernel" || mode = "ball" then "max nodes" else "iterations")
    failures;
  exit (if failures = 0 then 0 else 1)
