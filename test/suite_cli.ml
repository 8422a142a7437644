(* End-to-end tests of the tsj command-line interface: each case runs the
   built binary as a subprocess and checks its output and exit status. *)

let tsj = "../bin/tsj.exe"

let run args =
  let cmd = Filename.quote_command tsj args in
  let ic = Unix.open_process_in (cmd ^ " 2>&1") in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let code = match status with Unix.WEXITED c -> c | _ -> -1 in
  (code, out)

let contains haystack needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

let check_exit name expected (code, out) =
  if code <> expected then
    Alcotest.failf "%s: exit %d (expected %d); output:\n%s" name code expected out

let test_ted () =
  let code, out = run [ "ted"; "{a{b}{c}}"; "{a{c}{b}}" ] in
  check_exit "ted" 0 (code, out);
  Alcotest.(check string) "distance printed" "2" (String.trim out);
  let code, out = run [ "ted"; "{a}"; "{a}" ] in
  check_exit "ted self" 0 (code, out);
  Alcotest.(check string) "zero" "0" (String.trim out);
  (* The full band is |T1| + |T2| - 1: a band of the larger size would
     print 5 here. *)
  let code, out = run [ "ted"; "{a{b{c{d}}}}"; "{w{x}{y}{z}}" ] in
  check_exit "ted chain vs star" 0 (code, out);
  Alcotest.(check string) "chain vs star" "6" (String.trim out);
  let code, _ = run [ "ted"; "{bad"; "{a}" ] in
  Alcotest.(check bool) "bad tree rejected" true (code <> 0)

let with_dataset f =
  let path = Filename.temp_file "tsjcli" ".trees" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{a{b}{c}}\n{a{b}{c}}\n{a{b}{x}}\n{q{w{e{r{t}}}}}\n");
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_join () =
  with_dataset (fun path ->
      let code, out = run [ "join"; path; "--tau"; "1"; "-m"; "PRT"; "--pairs" ] in
      check_exit "join" 0 (code, out);
      Alcotest.(check bool) "stats line" true (contains out "results=3");
      Alcotest.(check bool) "duplicate pair listed" true (contains out "0\t1\t0");
      (* all methods agree *)
      List.iter
        (fun m ->
          let code, out' = run [ "join"; path; "--tau"; "1"; "-m"; m ] in
          check_exit ("join " ^ m) 0 (code, out');
          Alcotest.(check bool) (m ^ " same results") true (contains out' "results=3"))
        [ "NL"; "STR"; "SET" ];
      let code, out = run [ "join"; path; "--tau"; "1"; "--metric"; "constrained" ] in
      check_exit "join constrained" 0 (code, out);
      Alcotest.(check bool) "constrained runs" true (contains out "results="))

(* [--pairs] prints the pairs sorted by (i, j): PRT, which finds its
   candidates in index order, prints the same lines as STR. *)
let test_join_pairs_sorted () =
  let path = Filename.temp_file "tsjcli" ".gen" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      check_exit "gen" 0
        (run [ "gen"; path; "--count"; "200"; "--profile"; "sentiment"; "--seed"; "7" ]);
      let pair_lines m =
        let code, out = run [ "join"; path; "--tau"; "2"; "-m"; m; "--pairs"; "-j"; "1" ] in
        check_exit ("join " ^ m) 0 (code, out);
        List.filter (fun l -> String.contains l '\t') (String.split_on_char '\n' out)
      in
      let prt = pair_lines "PRT" in
      let key l = Scanf.sscanf l "%d\t%d" (fun i j -> (i, j)) in
      Alcotest.(check bool) "some pairs" true (List.length prt > 10);
      Alcotest.(check bool) "sorted by (i, j)" true
        (List.sort (fun a b -> compare (key a) (key b)) prt = prt);
      Alcotest.(check (list string)) "PRT lines = STR lines" (pair_lines "STR") prt)

let test_search () =
  with_dataset (fun path ->
      let code, out = run [ "search"; path; "{a{b}{c}}"; "--tau"; "1" ] in
      check_exit "search" 0 (code, out);
      Alcotest.(check string) "hits by distance, then id"
        "0\t0\t{a{b}{c}}\n1\t0\t{a{b}{c}}\n2\t1\t{a{b}{x}}\n" out;
      let code, out = run [ "search"; path; "{a{b}{c}}"; "--tau"; "1"; "--top"; "1" ] in
      check_exit "search top" 0 (code, out);
      Alcotest.(check string) "the nearest tree only" "0\t0\t{a{b}{c}}\n" out)

let test_gen_and_partition () =
  let path = Filename.temp_file "tsjcli" ".gen" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      let code, out = run [ "gen"; path; "--count"; "25"; "--profile"; "sentiment" ] in
      check_exit "gen" 0 (code, out);
      Alcotest.(check bool) "reports stats" true (contains out "25 trees");
      let code, out = run [ "join"; path; "--tau"; "1" ] in
      check_exit "join generated" 0 (code, out);
      Alcotest.(check bool) "ran" true (contains out "trees=25"));
  let code, out = run [ "partition"; "{a{b{c{d}{e}}}{f}{g}}"; "--tau"; "1" ] in
  check_exit "partition" 0 (code, out);
  Alcotest.(check bool) "gamma shown" true (contains out "gamma");
  Alcotest.(check bool) "subgraphs listed" true (contains out "subgraph k=1");
  let code, out = run [ "partition"; "{a{b{c{d}{e}}}{f}{g}}"; "--tau"; "1"; "--dot" ] in
  check_exit "partition dot" 0 (code, out);
  Alcotest.(check bool) "dot output" true (contains out "digraph")

let test_sexp_format () =
  let path = Filename.temp_file "tsjcli" ".mrg" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc "( (S (NP x) (VP y)) )\n( (S (NP x) (VP y)) )\n");
      let code, out = run [ "join"; path; "--format"; "sexp"; "--tau"; "0" ] in
      check_exit "sexp join" 0 (code, out);
      Alcotest.(check bool) "duplicate found" true (contains out "results=1"))

let test_skip_malformed () =
  let path = Filename.temp_file "tsjcli" ".bad" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc "{a{b}{c}}\n}{x}\n{a{b}{x}}\n{a{b}{c}}\n");
      (* strict parse refuses the file and points at the bad record *)
      let code, out = run [ "join"; path; "--tau"; "1"; "-m"; "PRT" ] in
      check_exit "strict malformed" 2 (code, out);
      Alcotest.(check bool) "location reported" true (contains out "line 2");
      (* lenient mode quarantines it and joins the rest *)
      let code, out =
        run [ "join"; path; "--tau"; "1"; "-m"; "PRT"; "--skip-malformed"; "--pairs" ]
      in
      check_exit "skip-malformed" 0 (code, out);
      Alcotest.(check bool) "skip count reported" true (contains out "skipped 1 malformed");
      Alcotest.(check bool) "quarantine counted" true (contains out "quarantined: 1");
      Alcotest.(check bool) "remaining trees joined" true (contains out "results=3"))

let test_checkpoint_resume () =
  with_dataset (fun path ->
      let journal = Filename.temp_file "tsjcli" ".ckpt" in
      Sys.remove journal;
      Fun.protect ~finally:(fun () -> if Sys.file_exists journal then Sys.remove journal)
        (fun () ->
          (* --resume without --checkpoint is a usage error *)
          let code, _ = run [ "join"; path; "--tau"; "1"; "-m"; "PRT"; "--resume" ] in
          Alcotest.(check int) "resume needs checkpoint" 2 code;
          (* resilience flags require a PartSJ method *)
          let code, _ =
            run [ "join"; path; "--tau"; "1"; "-m"; "NL"; "--checkpoint"; journal ]
          in
          Alcotest.(check int) "NL refuses checkpoint" 2 code;
          let code, out =
            run [ "join"; path; "--tau"; "1"; "-m"; "PRT"; "--checkpoint"; journal ]
          in
          check_exit "checkpointed join" 0 (code, out);
          Alcotest.(check bool) "journal written" true (Sys.file_exists journal);
          Alcotest.(check bool) "checkpointed results" true (contains out "results=3");
          let code, out' =
            run
              [ "join"; path; "--tau"; "1"; "-m"; "PRT"; "--checkpoint"; journal;
                "--resume" ]
          in
          check_exit "resumed join" 0 (code, out');
          Alcotest.(check bool) "resumed results identical" true
            (contains out' "results=3")))

(* fsck: clean directory passes, bit rot is reported with exit 2 and
   without mutating anything, --repair quarantines and the repaired
   directory then verifies clean and serves the surviving prefix. *)
let test_fsck () =
  let dir = Filename.temp_file "tsjcli" ".store" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
        (try Unix.rmdir path with Unix.Unix_error _ -> ())
      end
      else try Sys.remove path with Sys_error _ -> ()
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () ->
      let module Store = Tsj_server.Store in
      let store =
        match Store.open_ ~dir ~tau:1 () with
        | Ok s -> s
        | Error msg -> Alcotest.failf "store open: %s" msg
      in
      List.iter
        (fun b ->
          match Tsj_tree.Bracket.of_string b with
          | Ok t -> ignore (Store.add store t)
          | Error msg -> Alcotest.failf "bad tree %s: %s" b msg)
        [ "{a{b}{c}}"; "{a{b}{x}}"; "{q{w}}"; "{q{w{e}}}"; "{z}"; "{z{z}}" ];
      let root = Store.merkle_root store in
      (* abandoned without close: every add is already durable *)
      let code, out = run [ "fsck"; dir ] in
      check_exit "fsck clean" 0 (code, out);
      Alcotest.(check bool) "clean verdict" true (contains out "clean: 6 trees");
      Alcotest.(check bool) "merkle root printed" true (contains out root);
      (* rot a bit mid-journal: line 0 is the epoch header, so line 3 is
         record seq 2 of 6 — mid-file, not a torn tail *)
      let journal = Filename.concat dir "journal" in
      let text = In_channel.with_open_bin journal In_channel.input_all in
      let line_start n =
        let rec go i left =
          if left = 0 then i else go (String.index_from text i '\n' + 1) (left - 1)
        in
        go 0 n
      in
      Tsj_harness.Faults.flip_bit journal ~bit:(8 * (line_start 3 + 3));
      let rotted = In_channel.with_open_bin journal In_channel.input_all in
      let code, out = run [ "fsck"; dir ] in
      check_exit "fsck corrupt" 2 (code, out);
      Alcotest.(check bool) "corruption reported" true (contains out "CORRUPT");
      Alcotest.(check bool) "repair suggested" true (contains out "--repair");
      Alcotest.(check bool) "verify-only did not mutate" true
        (In_channel.with_open_bin journal In_channel.input_all = rotted);
      let code, out = run [ "fsck"; dir; "--repair" ] in
      check_exit "fsck repair" 0 (code, out);
      Alcotest.(check bool) "prefix survives" true (contains out "2 trees survive");
      Alcotest.(check bool) "quarantine counted" true (contains out "quarantined=4");
      Alcotest.(check bool) "suffix moved aside" true
        (Sys.file_exists (Filename.concat dir "journal.quarantine"));
      (* the repaired directory verifies clean and replays *)
      let code, out = run [ "fsck"; dir ] in
      check_exit "fsck after repair" 0 (code, out);
      Alcotest.(check bool) "clean after repair" true (contains out "clean: 2 trees"))

let test_errors () =
  let code, _ = run [ "join"; "/nonexistent-file"; "--tau"; "1" ] in
  Alcotest.(check bool) "missing file" true (code <> 0);
  let code, _ = run [ "nonsense-subcommand" ] in
  Alcotest.(check bool) "unknown subcommand" true (code <> 0)

let suite =
  [
    Alcotest.test_case "cli ted" `Slow test_ted;
    Alcotest.test_case "cli join" `Slow test_join;
    Alcotest.test_case "cli join pairs sorted" `Slow test_join_pairs_sorted;
    Alcotest.test_case "cli search" `Slow test_search;
    Alcotest.test_case "cli gen/partition" `Slow test_gen_and_partition;
    Alcotest.test_case "cli sexp format" `Slow test_sexp_format;
    Alcotest.test_case "cli skip-malformed" `Slow test_skip_malformed;
    Alcotest.test_case "cli checkpoint/resume" `Slow test_checkpoint_resume;
    Alcotest.test_case "cli fsck" `Slow test_fsck;
    Alcotest.test_case "cli errors" `Slow test_errors;
  ]
