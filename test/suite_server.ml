(* Tests for the similarity-search service: protocol, journaled store,
   kill-and-restart crash safety, the socket server (admission control,
   per-connection isolation, drain) and the retrying client. *)

module Tree = Tsj_tree.Tree
module Bracket = Tsj_tree.Bracket
module Prng = Tsj_util.Prng
module Fault = Tsj_util.Fault_inject
module Protocol = Tsj_server.Protocol
module Store = Tsj_server.Store
module Server = Tsj_server.Server
module Client = Tsj_server.Client
module Faults = Tsj_harness.Faults
module Incremental = Tsj_core.Incremental

let t s = Bracket.of_string_exn s

let ok_or_fail = function Ok v -> v | Error msg -> Alcotest.fail msg

(* --- protocol --- *)

let test_addr_parse () =
  let check s expected =
    match (Protocol.addr_of_string s, expected) with
    | Ok a, Some e ->
      Alcotest.(check string) s (Protocol.addr_to_string e) (Protocol.addr_to_string a)
    | Error _, None -> ()
    | Ok a, None -> Alcotest.failf "%s parsed as %s" s (Protocol.addr_to_string a)
    | Error msg, Some _ -> Alcotest.failf "%s rejected: %s" s msg
  in
  check "/tmp/tsj.sock" (Some (Protocol.Unix_path "/tmp/tsj.sock"));
  check "relative.sock" (Some (Protocol.Unix_path "relative.sock"));
  check "localhost:7070" (Some (Protocol.Tcp ("localhost", 7070)));
  check ":7070" (Some (Protocol.Tcp ("127.0.0.1", 7070)));
  check "10.0.0.1:1" (Some (Protocol.Tcp ("10.0.0.1", 1)));
  check "host:0" None;
  check "host:65536" None;
  check "host:notaport" None;
  check "" None

let test_request_roundtrip () =
  let reqs =
    [
      Protocol.Query { tau = 2; tree = t "{a{b}{c}}" };
      Protocol.Knn { k = 5; tree = t "{a}" };
      Protocol.Add { seq = None; tree = t "{x{y{z}}}" };
      Protocol.Stats;
      Protocol.Health;
      Protocol.Drain;
    ]
  in
  List.iter
    (fun req ->
      let line = Protocol.render_request req in
      match Protocol.parse_request line with
      | Error msg -> Alcotest.failf "round trip of %S failed: %s" line msg
      | Ok req' ->
        Alcotest.(check string) ("round trip " ^ line) line
          (Protocol.render_request req'))
    reqs;
  (* leniency and diagnostics *)
  let err line =
    match Protocol.parse_request line with
    | Error msg -> msg
    | Ok _ -> Alcotest.failf "%S unexpectedly parsed" line
  in
  Alcotest.(check bool) "unknown verb lists commands" true
    (String.length (err "FROB {a}") > 20);
  ignore (err "QUERY x {a}");
  ignore (err "QUERY 2");
  ignore (err "QUERY -1 {a}");
  ignore (err "KNN -2 {a}");
  ignore (err "ADD");
  ignore (err "ADD {a");
  ignore (err "STATS now");
  ignore (err "");
  (* located tree diagnostics survive *)
  let msg = err "QUERY 1 {a{b}" in
  Alcotest.(check bool) ("has location: " ^ msg) true
    (String.length msg > 10 && String.sub msg 0 6 = "QUERY:");
  (* the staleness and deadline tokens, in that order, on reads *)
  (match Protocol.parse_request_d "KNN 3 ~2 @40 {a}" with
  | Ok (Protocol.Knn { k = 3; _ }, Some 2, Some 40) -> ()
  | _ -> Alcotest.fail "KNN ~2 @40 not parsed");
  Alcotest.(check string) "bad staleness token is located"
    "QUERY: bad staleness token \"~x\" (expected ~<records>)" (err "QUERY 1 ~x {a}");
  ignore (err "QUERY 1 ~-1 {a}");
  ignore (err "QUERY 1 @5 ~1 {a}");
  ignore (err "ADD ~1 {a}");
  (* case-insensitive verb *)
  (match Protocol.parse_request "query 1 {a}" with
  | Ok (Protocol.Query { tau = 1; _ }) -> ()
  | _ -> Alcotest.fail "lowercase verb rejected")

let test_response_roundtrip () =
  let resps =
    [
      Protocol.Hits { degraded = false; hits = [ (0, 1); (3, 2) ]; unverified = [] };
      Protocol.Hits
        { degraded = true; hits = [ (1, 0) ]; unverified = [ (4, 1, 3); (9, 0, 2) ] };
      Protocol.Hits { degraded = false; hits = []; unverified = [] };
      Protocol.Added { id = 7; partners = [ (1, 2); (3, 0) ] };
      Protocol.Added { id = 0; partners = [] };
      Protocol.Stats_reply
        {
          trees = 10; tau = 2; queries = 5; adds = 10; shed = 1; degraded = 2;
          errors = 3; quarantined = 1; inflight = 0; draining = false;
          journal_records = 4; epoch = 2; primary = true; dedup = 6;
          scrubbed = 12; crc_failures = 1; repaired = 1; expired = 2;
          accept_pauses = 1; reaped = 3; q_p50 = 128; q_p95 = 1024;
          q_p99 = 2048; k_p50 = 64; k_p95 = 256; k_p99 = 512; a_p50 = 32;
          a_p95 = 64; a_p99 = 128;
        };
      Protocol.Health_reply { draining = false };
      Protocol.Health_reply { draining = true };
      Protocol.Drained;
      Protocol.Busy { retry_after_ms = None };
      Protocol.Busy { retry_after_ms = Some 250 };
      Protocol.Err "something went wrong";
    ]
  in
  List.iter
    (fun r ->
      let line = Protocol.render_response r in
      Alcotest.(check bool) ("single line: " ^ line) false (String.contains line '\n');
      match Protocol.parse_response line with
      | Error msg -> Alcotest.failf "round trip of %S failed: %s" line msg
      | Ok r' ->
        Alcotest.(check string) ("round trip " ^ line) line
          (Protocol.render_response r'))
    resps;
  (* a newline smuggled into an error reason cannot break framing *)
  let line = Protocol.render_response (Protocol.Err "multi\nline\treason") in
  Alcotest.(check bool) "newline stripped" false (String.contains line '\n');
  (* malformed replies are rejected, not raised *)
  List.iter
    (fun s ->
      match Protocol.parse_response s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S unexpectedly parsed" s)
    [ "HITS 0 2 0 1:2"; "HITS 2 0 0"; "ADDED x 0"; "STATS trees=1"; "OK"; "nonsense" ]

(* Frames carry the text lines: for every request and reply variant the
   frame body is byte-for-byte the rendered line, and decoding the frame
   gives what parsing the line gives.  Labels with spaces, braces,
   backslashes and newlines are in the alphabet: a frame is
   length-delimited, so even a newline inside a tree must round-trip. *)
let odd_labels =
  Array.map Tsj_tree.Label.intern
    [| "a"; "b c"; "x{y}"; "back\\slash"; "line\nbreak"; " lead"; "trail " |]

let random_request rng =
  let tree () = Gen.random_tree ~labels:odd_labels rng (1 + Prng.int rng 6) in
  let opt f = if Prng.int rng 2 = 0 then None else Some (f ()) in
  let n () = Prng.int rng 1000 in
  let lag = opt n and deadline = opt (fun () -> Prng.int rng 100_000) in
  let req =
    match Prng.int rng 11 with
    | 0 -> Protocol.Query { tau = Prng.int rng 4; tree = tree () }
    | 1 -> Protocol.Knn { k = Prng.int rng 6; tree = tree () }
    | 2 -> Protocol.Add { seq = opt n; tree = tree () }
    | 3 -> Protocol.Stats
    | 4 -> Protocol.Health
    | 5 -> Protocol.Drain
    | 6 -> Protocol.Sync { epoch = n (); from_seq = n () }
    | 7 -> Protocol.Ack (n ())
    | 8 -> Protocol.Get (n ())
    | 9 ->
      let lo = n () in
      Protocol.Digest { epoch = n (); lo; hi = lo + n () }
    | _ -> Protocol.Promote
  in
  (req, lag, deadline)

let random_response rng =
  let n () = Prng.int rng 100_000 in
  let list f = List.init (Prng.int rng 4) (fun _ -> f ()) in
  let words () =
    String.concat
      (if Prng.int rng 2 = 0 then " " else "\n")
      (list (fun () -> Printf.sprintf "w%d" (n ())) @ [ "end" ])
  in
  match Prng.int rng 15 with
  | 0 ->
    Protocol.Hits
      { degraded = Prng.int rng 2 = 0; hits = list (fun () -> (n (), n ()));
        unverified = list (fun () -> (n (), n (), n ())) }
  | 1 -> Protocol.Added { id = n (); partners = list (fun () -> (n (), n ())) }
  | 2 ->
    Protocol.Tree_reply
      { seq = n (); tree = Gen.random_tree ~labels:odd_labels rng (1 + Prng.int rng 6) }
  | 3 ->
    let v () = if Prng.int rng 2 = 0 then 0 else n () in
    let b () = Prng.int rng 2 = 0 in
    Protocol.Stats_reply
      { trees = v (); tau = v (); queries = v (); adds = v (); shed = v ();
        degraded = v (); errors = v (); quarantined = v (); inflight = v ();
        draining = b (); journal_records = v (); epoch = v (); primary = b ();
        dedup = v (); scrubbed = v (); crc_failures = v (); repaired = v ();
        expired = v (); accept_pauses = v (); reaped = v (); q_p50 = v ();
        q_p95 = v (); q_p99 = v (); k_p50 = v (); k_p95 = v (); k_p99 = v ();
        a_p50 = v (); a_p95 = v (); a_p99 = v () }
  | 4 -> Protocol.Health_reply { draining = Prng.int rng 2 = 0 }
  | 5 -> Protocol.Drained
  | 6 -> Protocol.Busy { retry_after_ms = (if Prng.int rng 2 = 0 then None else Some (n ())) }
  | 7 -> Protocol.Err (words ())
  | 8 ->
    let base = n () in
    Protocol.Sync_stream { epoch = n (); base; high = base + n () }
  | 9 -> Protocol.Record (words ())
  | 10 ->
    let lo = n () in
    Protocol.Digest_reply
      { epoch = n (); lo; hi = lo + n (); digest = Printf.sprintf "%016x" (n ()) }
  | 11 -> Protocol.Fenced (n ())
  | 12 -> Protocol.Promoted (n ())
  | 13 -> Protocol.Hello_reply (1 + Prng.int rng 9)
  | _ -> Protocol.Redirect (Printf.sprintf "/tmp/node%d.sock" (n ()))

(* [(id, op, body)] of the one frame in [s], checking its length word. *)
let deframe s =
  let len = Protocol.Binary.get_u32 s 0 in
  if len <> String.length s - 4 then
    Alcotest.failf "frame length %d of %d bytes" len (String.length s);
  (Protocol.Binary.get_u32 s 4, Char.code s.[8], String.sub s 9 (len - 5))

let read_frame ic =
  let hdr = really_input_string ic 4 in
  deframe (hdr ^ really_input_string ic (Protocol.Binary.get_u32 hdr 0))

(* Send [line] as one request frame; the reply frame's body. *)
let frame_request (_, ic, oc) ~id line =
  let b = Buffer.create 64 in
  Protocol.Binary.frame b ~id ~op:0x01 line;
  output_string oc (Buffer.contents b);
  flush oc;
  let rid, op, body = read_frame ic in
  Alcotest.(check int) ("id of " ^ line) id rid;
  Alcotest.(check int) ("reply opcode of " ^ line) 0x81 op;
  body

let prop_frames_are_text_lines =
  Gen.qtest ~count:500 "frame bodies are the text lines"
    QCheck.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let rng = Prng.create seed in
      let id = Prng.int rng 0xFFFF_FFFF in
      let req, max_lag, deadline_ms = random_request rng in
      let line = Protocol.render_request_d ?max_lag ?deadline_ms req in
      let b = Buffer.create 64 in
      Protocol.Binary.encode_request b ~id ?max_lag ?deadline_ms req;
      let rid, op, body = deframe (Buffer.contents b) in
      let parsed = Protocol.parse_request_d line in
      let lag' = match req with Protocol.Query _ | Protocol.Knn _ -> max_lag | _ -> None in
      let deadline' =
        match req with
        | Protocol.Query _ | Protocol.Knn _ | Protocol.Add _ -> deadline_ms
        | _ -> None
      in
      let resp = random_response rng in
      let rline = Protocol.render_response resp in
      let b = Buffer.create 64 in
      Protocol.Binary.encode_response b ~id resp;
      let rrid, rop, rbody = deframe (Buffer.contents b) in
      let rparsed = Protocol.parse_response rline in
      rid = id && body = line
      && Protocol.Binary.decode_request ~version:Protocol.Binary.version ~op ~body = parsed
      && parsed = Ok (req, lag', deadline')
      && rrid = id && rop <> op && rbody = rline
      && Protocol.Binary.decode_response ~op:rop ~body:rbody = rparsed
      && (match rparsed with
         | Ok r -> Protocol.render_response r = rline
         | Error _ -> false))

(* QUERY, KNN and ADD parse their tree from the request line in place;
   the copy of the parser that split the words off with [String.trim]
   and [String.sub] is the reference: every request and every ERR text
   must be the same, and rendered lines byte for byte the same. *)
let test_request_lines_match_reference () =
  let module C = Codec_reference.Codec_check in
  List.iter
    (fun line -> Option.iter (fun m -> Alcotest.fail m) (C.compare_requests line))
    [ ""; "  "; "QUERY"; "QUERY 2"; "QUERY 2 "; "query\t2 {a}"; "QUERY 2  ~3  @5  {a{b}}  ";
      "QUERY -1 {a}"; "QUERY -1 {a"; "KNN 3 ~x {a}"; "KNN 3 @ {a}"; "ADD {a}"; "ADD 7 {a}";
      "ADD -7 {a}"; "ADD @9 {a} \012"; "ADD 7 @-1 {a}"; "ADD"; "ADD  "; "STATS"; "STATS x";
      "SYNC 1 2"; "SYNC 1  2"; "DIGEST 0 1 2"; "GET 3"; "ACKED x"; "FOO {a}";
      "QUERY 2 {a}\n{b}"; "QUERY 2 {a\n{b"; "QUERY 2 \012{a}"; "QUERY 0x10 {a}" ];
  let rng = Prng.create 32 in
  for _ = 1 to 3000 do
    let line = C.random_line rng (C.random_input rng) in
    Option.iter (fun m -> Alcotest.fail m) (C.compare_requests line);
    Option.iter (fun m -> Alcotest.fail m)
      (C.compare_render rng (C.random_tree rng (1 + Prng.int rng 12)))
  done

(* --- store --- *)

let trees_of seed n =
  let rng = Prng.create seed in
  Array.init n (fun _ -> Gen.random_tree rng (3 + Prng.int rng 10))

let with_store_dir f =
  let dir = Filename.temp_file "tsj_store" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir && Sys.is_directory dir then begin
        Array.iter
          (fun x -> try Sys.remove (Filename.concat dir x) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      end)
    (fun () -> f dir)

let test_store_persistence () =
  with_store_dir (fun dir ->
      let trees = trees_of 51 12 in
      let store = ok_or_fail (Store.open_ ~dir ~tau:2 ()) in
      Array.iteri
        (fun i tree ->
          let id, _ = Store.add store tree in
          Alcotest.(check int) "sequential ids" i id)
        trees;
      Alcotest.(check int) "journal grows" 12 (Store.journal_records store);
      (* reopen WITHOUT close: pure journal replay *)
      let replayed = ok_or_fail (Store.open_ ~dir ~tau:2 ()) in
      Alcotest.(check int) "replayed all" 12 (Store.n_trees replayed);
      Array.iteri
        (fun i tree ->
          Alcotest.(check bool) (Printf.sprintf "tree %d back" i) true
            (Tree.equal tree (Store.tree replayed i)))
        trees;
      (* flush resets the journal but keeps the trees via the snapshot *)
      Store.flush replayed;
      Alcotest.(check int) "journal empty after flush" 0
        (Store.journal_records replayed);
      let id, _ = Store.add replayed (t "{q{r}}") in
      Alcotest.(check int) "adds continue after flush" 12 id;
      Store.close replayed;
      let reopened = ok_or_fail (Store.open_ ~dir ~tau:2 ()) in
      Alcotest.(check int) "snapshot + tail" 13 (Store.n_trees reopened);
      Alcotest.(check int) "clean close emptied journal" 0
        (Store.journal_records reopened);
      (* stored tau wins over the requested one *)
      let reopened2 = ok_or_fail (Store.open_ ~dir ~tau:5 ()) in
      Alcotest.(check int) "snapshot tau wins" 2 (Store.tau reopened2);
      Store.close reopened;
      Store.close reopened2)

(* The snapshot format, pinned byte for byte: the header keeps the name
   of the search-index files it began as, so store directories written
   by earlier versions still open.  The body may hold comment lines and
   duplicate records (clients may insert one tree twice). *)
let golden_snapshot =
  "# tsj-search-index v1\n# tau 2\n{a{b}{c}}\n{x{y{z}}}\n{a{b}{c}}\n{q}\n"

let test_store_snapshot_golden () =
  let contains msg sub =
    let n = String.length sub in
    let rec scan i = i + n <= String.length msg && (String.sub msg i n = sub || scan (i + 1)) in
    scan 0
  in
  let expected = [ "{a{b}{c}}"; "{x{y{z}}}"; "{a{b}{c}}"; "{q}" ] in
  let parses_to what contents =
    match Store.collection_of_string contents with
    | Error e -> Alcotest.failf "%s: %s" what e
    | Ok (tau, trees) ->
      Alcotest.(check int) (what ^ ": tau") 2 tau;
      Alcotest.(check (list string))
        (what ^ ": trees, duplicate kept") expected
        (Array.to_list (Array.map Bracket.to_string trees));
      trees
  in
  let trees = parses_to "golden" golden_snapshot in
  (* a comment line changes nothing *)
  ignore
    (parses_to "commented"
       "# tsj-search-index v1\n# tau 2\n{a{b}{c}}\n# a comment\n{x{y{z}}}\n{a{b}{c}}\n{q}\n");
  (* writing the trees back reproduces the bytes exactly *)
  let path = Filename.temp_file "tsj" ".snapshot" in
  Store.save_collection ~tau:2 trees path;
  let written = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check string) "written bytes" golden_snapshot written;
  (* every rejection names the offending file line, in the lenient
     bracket parser's "line L[, column C]" convention *)
  let expect_err sub lines =
    match Store.collection_of_string (String.concat "\n" lines ^ "\n") with
    | Ok _ -> Alcotest.failf "expected rejection mentioning %S" sub
    | Error msg ->
      if not (contains msg sub) then Alcotest.failf "error %S does not mention %S" msg sub
  in
  let header = "# tsj-search-index v1" in
  expect_err "line 2: negative threshold tau = -3" [ header; "# tau -3"; "{a}" ];
  expect_err "line 2: corrupt tau header \"x\"" [ header; "# tau x"; "{a}" ];
  expect_err "line 2: corrupt tau header" [ header; "# tau" ];
  expect_err "line 4: empty record" [ header; "# tau 2"; "{a}"; ""; "{b}" ];
  expect_err "line 3, column" [ header; "# tau 2"; "{a{b}" ];
  (* comment lines still count toward the line numbers *)
  expect_err "line 5, column" [ header; "# tau 2"; "{a{b}}"; "# interlude"; "{a{b}" ];
  expect_err "not a tsj search index file" [ "{a}" ]

let test_store_corrupt_journal_rejected () =
  with_store_dir (fun dir ->
      let store = ok_or_fail (Store.open_ ~dir ~tau:1 ()) in
      ignore (Store.add store (t "{a}"));
      ignore (Store.add store (t "{b}"));
      ignore (Store.add store (t "{c}"));
      (* no close: journal holds 3 records *)
      let journal = Filename.concat dir "journal" in
      let lines =
        In_channel.with_open_text journal In_channel.input_lines
      in
      (* corrupt the MIDDLE record: that is real corruption, not a torn
         tail, and must fail the open.  The first line is the epoch
         header, then one record per add. *)
      (match lines with
      | [ header; l1; _l2; l3 ] ->
        Out_channel.with_open_text journal (fun oc ->
            List.iter
              (fun l -> Printf.fprintf oc "%s\n" l)
              [ header; l1; "add 1 {b} deadbeefdeadbeef"; l3 ])
      | _ -> Alcotest.fail "expected epoch header + 3 journal records");
      (match Store.open_ ~dir ~tau:1 () with
      | Ok _ -> Alcotest.fail "mid-journal corruption accepted"
      | Error msg ->
        Alcotest.(check bool) ("diagnostic: " ^ msg) true
          (String.length msg > 10)))

let test_store_seq_gap_rejected () =
  with_store_dir (fun dir ->
      let store = ok_or_fail (Store.open_ ~dir ~tau:1 ()) in
      ignore (Store.add store (t "{a}"));
      let journal = Filename.concat dir "journal" in
      (* append a record whose seq skips ahead — a lost record *)
      let payload = "add 5 {z}" in
      let crc = Tsj_util.Text.fnv1a64_hex payload in
      Out_channel.with_open_gen [ Open_append ] 0o644 journal (fun oc ->
          Printf.fprintf oc "%s %s\n" payload crc);
      match Store.open_ ~dir ~tau:1 () with
      | Ok _ -> Alcotest.fail "seq gap accepted"
      | Error msg ->
        Alcotest.(check bool) ("mentions gap: " ^ msg) true
          (String.length msg > 5))

(* --- kill-and-restart (the acceptance scenario) --- *)

let test_kill_and_restart () =
  let trees = trees_of 61 14 in
  let queries = trees_of 62 4 in
  List.iter
    (fun kill_at ->
      let r =
        Faults.run_server_kill_and_restart ~kill_at_add:kill_at ~trees ~queries ~tau:2 ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "killed (kill_at=%d)" kill_at)
        true r.Faults.server_killed;
      Alcotest.(check int) "acked = kill point" kill_at r.Faults.acked;
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical after restart (kill_at=%d)" kill_at)
        true r.Faults.answers_match)
    (* seq numbers are 0-based: 13 kills just before the final add *)
    [ 1; 7; 13 ]

let test_kill_and_restart_torn_tail () =
  let trees = trees_of 63 10 in
  let queries = trees_of 64 4 in
  let r =
    Faults.run_server_kill_and_restart ~kill_at_add:5 ~tear_tail:true ~trees ~queries
      ~tau:2 ()
  in
  Alcotest.(check bool) "killed" true r.Faults.server_killed;
  Alcotest.(check int) "acked" 5 r.Faults.acked;
  Alcotest.(check int) "torn tail loses exactly one" 4 r.Faults.expected;
  Alcotest.(check bool) "bit-identical after torn-tail restart" true
    r.Faults.answers_match

(* Property (qcheck): ANY interleaving of ADD/QUERY with a kill at an
   arbitrary point replays to an index answering bit-identically to one
   fed the surviving prefix — with and without a torn journal tail. *)
let prop_restart_deterministic =
  Gen.qtest ~count:25 "journal replay deterministic under random kills"
    QCheck.(triple (int_bound 1000) (int_bound 12) bool)
    (fun (seed, kill_raw, tear_tail) ->
      let rng = Prng.create (7000 + seed) in
      let n = 4 + Prng.int rng 10 in
      let trees = Array.init n (fun _ -> Gen.random_tree rng (3 + Prng.int rng 9)) in
      let queries =
        Array.init 3 (fun k ->
            (* mix member and fresh probes *)
            if k = 0 then trees.(Prng.int rng n)
            else Gen.random_tree rng (3 + Prng.int rng 9))
      in
      let kill_at = kill_raw mod n in
      let r =
        Faults.run_server_kill_and_restart ~kill_at_add:kill_at ~tear_tail ~trees
          ~queries ~tau:2 ()
      in
      r.Faults.answers_match)

(* --- socket server end-to-end --- *)

let with_server ?(tau = 2) ?dir ?(max_inflight = 64) ?deadline_s ?(max_batch = 64) ?rate ?(burst = 32) ?idle_timeout_s ?max_out_bytes
    ?max_conns ?(drain_budget_s = 5.0) f =
  let sock = Filename.temp_file "tsj_sock" "" in
  Sys.remove sock;
  let addr = Protocol.Unix_path sock in
  let base = Server.default_config addr ~tau in
  let config =
    { base with
      Server.dir; max_inflight; deadline_s; max_batch;
      drain_budget_s; rate; burst; idle_timeout_s; max_conns;
      max_out_bytes =
        (match max_out_bytes with Some b -> b | None -> base.Server.max_out_bytes) }
  in
  let server = ok_or_fail (Server.create config) in
  Server.start server;
  Fun.protect
    ~finally:(fun () ->
      Server.drain server;
      Server.wait server;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () -> f addr server)

let request conn req = ok_or_fail (Client.request conn req)

(* A raw line client, for sending bytes the typed client never would. *)
let raw_connect addr =
  match addr with
  | Protocol.Unix_path p ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX p);
    (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  | Protocol.Tcp _ -> Alcotest.fail "raw_connect: unix sockets only in tests"

let raw_request (_, ic, oc) line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

let test_server_end_to_end () =
  with_server (fun addr server ->
      let conn = ok_or_fail (Client.connect addr) in
      (* health first *)
      (match request conn Protocol.Health with
      | Protocol.Health_reply { draining = false } -> ()
      | r -> Alcotest.failf "bad health reply %s" (Protocol.render_response r));
      (* build a tiny index over the wire *)
      let added =
        List.map
          (fun s ->
            match request conn (Protocol.Add { seq = None; tree = t s }) with
            | Protocol.Added { id; partners } -> (id, partners)
            | r -> Alcotest.failf "bad add reply %s" (Protocol.render_response r))
          [ "{a{b}{c}}"; "{a{b}{d}}"; "{x{y{z}}}" ]
      in
      Alcotest.(check (list int)) "ids sequential" [ 0; 1; 2 ]
        (List.map fst added);
      Alcotest.(check (list (pair int int))) "partners of the near-duplicate"
        [ (0, 1) ]
        (snd (List.nth added 1));
      (* threshold query *)
      (match request conn (Protocol.Query { tau = 1; tree = t "{a{b}{c}}" }) with
      | Protocol.Hits { degraded = false; hits; unverified = [] } ->
        Alcotest.(check (list (pair int int))) "query hits" [ (0, 0); (1, 1) ] hits
      | r -> Alcotest.failf "bad query reply %s" (Protocol.render_response r));
      (* top-k *)
      (match request conn (Protocol.Knn { k = 1; tree = t "{a{b}{c}}" }) with
      | Protocol.Hits { hits = [ (0, 0) ]; _ } -> ()
      | r -> Alcotest.failf "bad knn reply %s" (Protocol.render_response r));
      (* a query over the index threshold is an ERR, not a crash *)
      (match request conn (Protocol.Query { tau = 9; tree = t "{a}" }) with
      | Protocol.Err _ -> ()
      | r -> Alcotest.failf "expected ERR, got %s" (Protocol.render_response r));
      (* stats reflect everything *)
      (match request conn Protocol.Stats with
      | Protocol.Stats_reply s ->
        Alcotest.(check int) "trees" 3 s.Protocol.trees;
        Alcotest.(check int) "adds" 3 s.Protocol.adds;
        Alcotest.(check int) "queries" 2 s.Protocol.queries;
        Alcotest.(check int) "errors" 1 s.Protocol.errors;
        Alcotest.(check bool) "not draining" false s.Protocol.draining
      | r -> Alcotest.failf "bad stats reply %s" (Protocol.render_response r));
      Client.close conn;
      ignore server)

let test_server_malformed_isolation () =
  with_server (fun addr server ->
      (* connection A misbehaves; connection B must be untouched *)
      let a = raw_connect addr in
      let b = ok_or_fail (Client.connect addr) in
      (match request b (Protocol.Add { seq = None; tree = t "{a{b}}" }) with
      | Protocol.Added _ -> ()
      | r -> Alcotest.failf "B add failed: %s" (Protocol.render_response r));
      List.iter
        (fun bad ->
          let reply = raw_request a bad in
          Alcotest.(check bool)
            (Printf.sprintf "%S answered ERR (got %S)" bad reply)
            true
            (String.length reply >= 3 && String.sub reply 0 3 = "ERR"))
        [ "FROB"; "QUERY"; "QUERY x {a}"; "ADD {a"; "ADD {a{b}"; "QUERY 1 }{";
          "STATS please"; "\007\255garbage" ];
      (* blank lines are ignored (no reply) and the connection survives:
         send a blank line followed by a bad verb — the single reply we
         read back belongs to the bad verb *)
      (match a with
      | _, ic, oc ->
        output_string oc "  \r\nFROB\n";
        flush oc;
        let reply = input_line ic in
        Alcotest.(check bool) "blank line skipped, FROB answered" true
          (String.length reply >= 3 && String.sub reply 0 3 = "ERR"));
      (match a with fd, _, _ -> (try Unix.close fd with Unix.Unix_error _ -> ()));
      (* B still works after A's abuse *)
      (match request b (Protocol.Query { tau = 1; tree = t "{a{b}}" }) with
      | Protocol.Hits { hits = [ (0, 0) ]; _ } -> ()
      | r -> Alcotest.failf "B poisoned by A: %s" (Protocol.render_response r));
      Client.close b;
      ignore server)

let test_server_injected_request_fault_isolation () =
  with_server (fun addr server ->
      let a = ok_or_fail (Client.connect addr) in
      (match request a (Protocol.Add { seq = None; tree = t "{a{b}}" }) with
      | Protocol.Added _ -> ()
      | r -> Alcotest.failf "setup add failed: %s" (Protocol.render_response r));
      (* arm the per-request fault point at request #1: connection A's
         second request raises inside the handler, while connection B's
         first request (numbered 0) is untouched.  Only A may die; the
         server and other connections keep serving. *)
      Fault.with_armed "server.request" ~at:1 (fun () ->
          (match Client.request a (Protocol.Query { tau = 1; tree = t "{a{b}}" }) with
          | Ok r ->
            Alcotest.failf "expected connection death, got %s"
              (Protocol.render_response r)
          | Error _ -> ());
          (* the victim connection is quarantined, with a reason *)
          let rec wait_quarantine n =
            if n = 0 then Alcotest.fail "no quarantine record for the killed connection"
            else if Server.quarantined server = [] then begin
              Thread.yield ();
              wait_quarantine (n - 1)
            end
          in
          wait_quarantine 10_000;
          (* a fresh connection is served normally *)
          let b = ok_or_fail (Client.connect addr) in
          (match request b (Protocol.Query { tau = 1; tree = t "{a{b}}" }) with
          | Protocol.Hits { hits = [ (0, 0) ]; _ } -> ()
          | r -> Alcotest.failf "server poisoned: %s" (Protocol.render_response r));
          Client.close b);
      Client.close a;
      (match Server.quarantined server with
      | [ q ] ->
        Alcotest.(check bool) "reason is the injected fault" true
          (match q.Tsj_join.Types.q_reason with
          | Tsj_join.Types.Verify_failed msg ->
            String.length msg >= 14 && String.sub msg 0 14 = "server.request"
          | _ -> false)
      | qs -> Alcotest.failf "expected 1 quarantine record, got %d" (List.length qs)))

let test_server_admission_busy () =
  (* watermark 0: every work-bearing request is shed, deterministically,
     with an explicit BUSY — control requests still pass *)
  with_server ~max_inflight:0 (fun addr server ->
      let conn = ok_or_fail (Client.connect addr) in
      (match request conn (Protocol.Add { seq = None; tree = t "{a}" }) with
      | Protocol.Busy _ -> ()
      | r -> Alcotest.failf "expected BUSY, got %s" (Protocol.render_response r));
      (match request conn (Protocol.Query { tau = 1; tree = t "{a}" }) with
      | Protocol.Busy _ -> ()
      | r -> Alcotest.failf "expected BUSY, got %s" (Protocol.render_response r));
      (match request conn Protocol.Health with
      | Protocol.Health_reply _ -> ()
      | r -> Alcotest.failf "control request shed: %s" (Protocol.render_response r));
      (match request conn Protocol.Stats with
      | Protocol.Stats_reply s ->
        Alcotest.(check int) "both sheds counted" 2 s.Protocol.shed;
        Alcotest.(check int) "nothing admitted" 0 s.Protocol.adds
      | r -> Alcotest.failf "bad stats: %s" (Protocol.render_response r));
      Client.close conn;
      ignore server)

let test_server_deadline_degrades () =
  (* a deadline that has always already expired: the query must still
     answer — degraded, with the exact duplicate surfaced as a bound
     sandwich (lower = 0), never a hang or a drop *)
  with_server ~deadline_s:1e-9 (fun addr server ->
      let conn = ok_or_fail (Client.connect addr) in
      let dup = t "{a{b}{c}{d}}" in
      (match request conn (Protocol.Add { seq = None; tree = dup }) with
      | Protocol.Added { id = 0; _ } -> ()
      | r -> Alcotest.failf "add failed: %s" (Protocol.render_response r));
      (match request conn (Protocol.Query { tau = 2; tree = dup }) with
      | Protocol.Hits { degraded = true; hits; unverified } ->
        let covered =
          List.mem_assoc 0 hits
          || List.exists (fun (i, lo, _) -> i = 0 && lo = 0) unverified
        in
        Alcotest.(check bool) "duplicate surfaced in the degraded answer" true covered
      | r -> Alcotest.failf "expected degraded HITS, got %s" (Protocol.render_response r));
      (match request conn Protocol.Stats with
      | Protocol.Stats_reply s -> Alcotest.(check int) "degraded counted" 1 s.Protocol.degraded
      | r -> Alcotest.failf "bad stats: %s" (Protocol.render_response r));
      Client.close conn;
      ignore server)

(* Every reported hit is in [truth] at its true distance, and every hit
   of [cover] (default [truth]) is reported or sits inside one of the
   [unverified] sandwiches. *)
let check_sound_answer ?cover what ~truth ~hits ~unverified =
  List.iter
    (fun (id, d) ->
      match List.assoc_opt id truth with
      | Some d' when d' = d -> ()
      | _ -> Alcotest.failf "%s: hit (%d, %d) is not a true hit" what id d)
    hits;
  List.iter
    (fun (id, d) ->
      if
        not
          (List.mem_assoc id hits
          || List.exists (fun (i, lo, hi) -> i = id && lo <= d && d <= hi) unverified)
      then Alcotest.failf "%s: true hit (%d, %d) lost" what id d)
    (Option.value cover ~default:truth)

let test_server_knn_spent_budget () =
  (* An always-expired compute budget degrades a served KNN like a
     QUERY: what it reports must still cover the unbudgeted k nearest. *)
  let rng = Prng.create 2402 in
  let bases = trees_of 2403 12 in
  let edited k tree = snd (Tsj_tree.Edit_op.random_script rng ~labels:Gen.default_alphabet k tree) in
  let stored = Array.init 48 (fun i -> edited (i mod 3) bases.(i mod 12)) in
  with_server ~deadline_s:1e-9 (fun addr server ->
      let conn = ok_or_fail (Client.connect addr) in
      Array.iter (fun tree -> ignore (request conn (Protocol.Add { seq = None; tree }))) stored;
      let degraded = ref 0 in
      Array.iteri
        (fun i base ->
          let q = edited (i mod 2) base in
          List.iter
            (fun k ->
              let store = Server.store server in
              let truth = (Store.query store q).Incremental.hits in
              let cover = Store.nearest ~k store q in
              match request conn (Protocol.Knn { k; tree = q }) with
              | Protocol.Hits { degraded = d; hits; unverified } ->
                if d then incr degraded;
                check_sound_answer ~cover (Printf.sprintf "KNN %d of base %d" k i) ~truth
                  ~hits ~unverified
              | r -> Alcotest.failf "bad KNN reply %s" (Protocol.render_response r))
            [ 1; 3; 5 ])
        bases;
      Alcotest.(check bool) "KNNs degraded" true (!degraded > 0);
      Client.close conn)

(* A snapshot on which one unbudgeted read takes well over the budgets
   below: [slow_read_trees] near-duplicates (four random edits each) of
   one 150-node tree over two labels, at τ = 5.  Every stored tree is a
   candidate of a query one edit from that tree, and each costs a
   cascade run.  Over two labels the cascade's bounds and alignment
   certificate leave about half of the pairs to the kernel (0.065 s a
   read on a 2-vCPU host).  The tests that use it also hold each
   candidate [slow_verify_s] at the [incremental.verify] fault point
   ({!with_slow_verify}), so a read takes at least 0.15 s however many
   pairs the cascade decides.  Returns the query. *)
let slow_read_tau = 5
let slow_read_trees = 3000

let slow_read_fixture dir =
  let rng = Prng.create 2401 in
  let labels = Gen.alphabet 2 in
  let base = Gen.random_tree ~labels rng 150 in
  let edited k = snd (Tsj_tree.Edit_op.random_script rng ~labels k base) in
  let stored = Array.init slow_read_trees (fun _ -> edited 4) in
  Unix.mkdir dir 0o755;
  Store.save_collection ~tau:slow_read_tau stored (Filename.concat dir "snapshot");
  edited 1

(* The wait per verified candidate: 3,000 candidates wait 0.15 s. *)
let slow_verify_s = 50e-6

(* Runs [f] with every candidate that [Incremental.query] verifies
   spinning [slow_verify_s] first.  It spins rather than sleeps, so the
   read holds the domain as verification does.  Fails if no candidate
   reached the fault point. *)
let with_slow_verify f =
  let before = Fault.hits "incremental.verify" in
  Fault.arm_action "incremental.verify" (fun _ ->
      let t0 = Tsj_util.Timer.now () in
      while Tsj_util.Timer.now () -. t0 < slow_verify_s do
        ()
      done);
  Fun.protect ~finally:(fun () -> Fault.disarm "incremental.verify") f;
  if Fault.hits "incremental.verify" = before then
    Alcotest.fail "no read reached the incremental.verify fault point"

(* Send text requests in one write, without waiting for the replies. *)
let send_lines ?deadline_ms (_, _, oc) reqs =
  List.iter
    (fun req ->
      output_string oc (Protocol.render_request_d ?deadline_ms req);
      output_char oc '\n')
    reqs;
  flush oc

let read_reply (_, ic, _) = ok_or_fail (Protocol.parse_response (input_line ic))

(* A read runs on the event loop, so the loop answers nothing else until
   it returns, and a connection's turn ends with its first read past
   1 ms: a HEALTH sent on a second connection 20 ms after the reads
   waits for at most the read in flight and the pipeliner's next one,
   each bounded by its compute budget.  The clock starts when the reads are sent: the client shares
   the server's domain, so it may run only after the loop yields.  The
   stated slack is half the unbudgeted read's time, at least 0.1 s: it
   covers the verify chunk in flight, the sandwiches of the candidates
   left over and a loaded host's scheduling, and stays far below the
   pipelined backlog.  Every pipelined read comes back degraded and
   sound. *)
let check_inline_read_liveness ?deadline_s ?client_ms ~reads dir q =
  with_server ~tau:slow_read_tau ~dir ?deadline_s (fun addr server ->
      let store = Server.store server in
      let t1 = Tsj_util.Timer.now () in
      let truth = (Store.query store q).Incremental.hits in
      let full_s = Tsj_util.Timer.now () -. t1 in
      let cover = Store.nearest ~k:5 store q in
      let budget_s =
        match (deadline_s, client_ms) with
        | Some s, _ -> s
        | None, Some ms -> float_of_int ms /. 1000.0
        | None, None -> invalid_arg "check_inline_read_liveness: no budget"
      in
      (* Both cases give the compute 50 ms: [deadline_s], or a client's
         100 ms less the server's 50 ms response margin. *)
      if full_s < 0.1 then
        Alcotest.failf "fixture too fast: the unbudgeted read took %.3f s" full_s;
      let bound = 0.02 +. (2.0 *. budget_s) +. Float.max 0.1 (full_s /. 2.0) in
      let ((fd, _, _) as a) = raw_connect addr in
      let replied () =
        match Unix.select [ fd ] [] [] 0.0 with [], _, _ -> false | _ -> true
      in
      let b = ok_or_fail (Client.connect addr) in
      ignore (request b Protocol.Health);
      let t0 = Tsj_util.Timer.now () in
      send_lines ?deadline_ms:client_ms a
        (List.init reads (fun _ -> Protocol.Knn { k = 5; tree = q }));
      Thread.delay 0.02;
      (match request b Protocol.Health with
      | Protocol.Health_reply { draining = false } -> ()
      | r -> Alcotest.failf "bad health reply %s" (Protocol.render_response r));
      let waited = Tsj_util.Timer.now () -. t0 in
      (* The loop took the read up first: its reply was flushed before
         HEALTH was read. *)
      Alcotest.(check bool) "the read ran before HEALTH" true (replied ());
      if waited > bound then
        Alcotest.failf
          "HEALTH answered %.3f s after %d pipelined reads (bound %.3f s; unbudgeted \
           read %.3f s)"
          waited reads bound full_s;
      for i = 1 to reads do
        match read_reply a with
        | Protocol.Hits { degraded = true; hits; unverified } ->
          check_sound_answer ~cover (Printf.sprintf "budgeted KNN %d" i) ~truth ~hits
            ~unverified
        | r ->
          Alcotest.failf "expected a degraded KNN %d, got %s" i (Protocol.render_response r)
      done;
      Unix.close fd;
      Client.close b)

let test_inline_read_liveness () =
  with_slow_verify @@ fun () ->
  with_store_dir (fun dir ->
      let q = slow_read_fixture dir in
      (* The server budget, a client pipelining 12 reads. *)
      check_inline_read_liveness ~deadline_s:0.05 ~reads:12 dir q;
      (* A client deadline alone: the read keeps a response margin, so
         its degraded answer beats the deadline rather than being
         replaced by [ERR deadline expired]. *)
      check_inline_read_liveness ~client_ms:100 ~reads:1 dir q)

let test_drain_cancels_inline_read () =
  (* No deadline: only the drain can stop the read, by cancelling the
     budget it published.  [Server.drain] is the SIGTERM path; a wire
     DRAIN would be read only after the read returns. *)
  let drain_budget_s = 0.03 in
  with_slow_verify @@ fun () ->
  with_store_dir (fun dir ->
      let q = slow_read_fixture dir in
      with_server ~tau:slow_read_tau ~dir ~drain_budget_s (fun addr server ->
          let t1 = Tsj_util.Timer.now () in
          let truth = (Store.query (Server.store server) q).Incremental.hits in
          let full_s = Tsj_util.Timer.now () -. t1 in
          if full_s < 2.0 *. (0.03 +. drain_budget_s) then
            Alcotest.failf "fixture too fast: the unbudgeted read took %.3f s" full_s;
          let ((fd, _, _) as a) = raw_connect addr in
          send_lines a [ Protocol.Query { tau = slow_read_tau; tree = q } ];
          Thread.delay 0.03;
          let t0 = Tsj_util.Timer.now () in
          Server.drain server;
          let took = Tsj_util.Timer.now () -. t0 in
          Alcotest.(check bool) "drained" true (Server.drained server);
          if took > drain_budget_s +. 1.0 then
            Alcotest.failf "drain took %.3f s (budget %.2f s + 1 s)" took drain_budget_s;
          (match read_reply a with
          | Protocol.Hits { degraded = true; hits; unverified } ->
            check_sound_answer "cancelled QUERY" ~truth ~hits ~unverified
          | r -> Alcotest.failf "expected a degraded QUERY, got %s" (Protocol.render_response r));
          Unix.close fd))

let test_server_drain_flushes () =
  with_store_dir (fun dir ->
      with_server ~dir (fun addr server ->
          let conn = ok_or_fail (Client.connect addr) in
          List.iter
            (fun s -> ignore (request conn (Protocol.Add { seq = None; tree = t s })))
            [ "{a{b}}"; "{c{d}{e}}"; "{f}" ];
          (match request conn Protocol.Drain with
          | Protocol.Drained -> ()
          | r -> Alcotest.failf "bad drain reply %s" (Protocol.render_response r));
          Server.wait server;
          Alcotest.(check bool) "drained" true (Server.drained server);
          (* new connections are refused after the drain *)
          (match Client.connect addr with
          | Error _ -> ()
          | Ok c ->
            (* accepting is stopped; at worst the connect succeeds against
               a dead socket and the request fails *)
            (match Client.request c (Protocol.Query { tau = 1; tree = t "{a}" }) with
            | Error _ -> ()
            | Ok r ->
              Alcotest.failf "served after drain: %s" (Protocol.render_response r));
            Client.close c));
      (* the drain left a complete snapshot and an empty journal: a cold
         start sees everything without replay *)
      let store = ok_or_fail (Store.open_ ~dir ~tau:2 ()) in
      Alcotest.(check int) "cold start sees all trees" 3 (Store.n_trees store);
      Alcotest.(check int) "journal empty" 0 (Store.journal_records store);
      let r = Store.query store (t "{a{b}}") in
      Alcotest.(check (list (pair int int))) "cold index answers"
        [ (0, 0); (2, 2) ] r.Incremental.hits;
      Store.close store)

(* Lock-step text clients on concurrent connections, first streaming
   ADDs and then querying: below the watermark every request is
   answered (no BUSY, no ERR), and a drain over the wire leaves a cold
   start with every tree and an empty journal. *)
let test_concurrent_text_clients () =
  let trees = trees_of 171 24 in
  let clients = 6 and per_client = 10 in
  with_store_dir (fun dir ->
      with_server ~dir ~max_inflight:1024 ~deadline_s:0.5 (fun addr server ->
          let next = Atomic.make 0 and bad = Atomic.make 0 in
          let client c () =
            match Client.connect addr with
            | Error _ -> ignore (Atomic.fetch_and_add bad per_client)
            | Ok conn ->
              let rng = Prng.create (172 + c) in
              for _ = 1 to per_client do
                let k = Atomic.fetch_and_add next 1 in
                let req =
                  if k < Array.length trees then Protocol.Add { seq = None; tree = trees.(k) }
                  else
                    Protocol.Query
                      { tau = 2; tree = trees.(Prng.int rng (Array.length trees)) }
                in
                match Client.request conn req with
                | Ok (Protocol.Added _ | Protocol.Hits _) -> ()
                | Ok _ | Error _ -> Atomic.incr bad
              done;
              Client.close conn
          in
          List.iter Thread.join (List.init clients (fun c -> Thread.create (client c) ()));
          Alcotest.(check int) "every request answered, none BUSY/ERR" 0 (Atomic.get bad);
          let conn = ok_or_fail (Client.connect addr) in
          (match request conn Protocol.Drain with
          | Protocol.Drained -> ()
          | r -> Alcotest.failf "bad drain reply %s" (Protocol.render_response r));
          Client.close conn;
          Server.wait server);
      let store = ok_or_fail (Store.open_ ~dir ~tau:2 ()) in
      Alcotest.(check int) "cold start sees every tree" (Array.length trees)
        (Store.n_trees store);
      Alcotest.(check int) "drain left the journal empty" 0 (Store.journal_records store);
      Store.close store)

let test_server_accept_fault_drops_one_connection () =
  with_server (fun addr server ->
      (* the injected accept fault must drop exactly that connection *)
      Fault.with_armed "server.accept" (fun () ->
          let victim = ok_or_fail (Client.connect addr) in
          (* the server closes it without serving; our request fails *)
          (match Client.request victim (Protocol.Health) with
          | Error _ -> ()
          | Ok r ->
            Alcotest.failf "victim served despite accept fault: %s"
              (Protocol.render_response r));
          Client.close victim);
      let survivor = ok_or_fail (Client.connect addr) in
      (match request survivor Protocol.Health with
      | Protocol.Health_reply _ -> ()
      | r -> Alcotest.failf "server dead after accept fault: %s"
               (Protocol.render_response r));
      Client.close survivor;
      Alcotest.(check int) "accept fault quarantined" 1
        (List.length (Server.quarantined server)))

(* --- replication: protocol, cluster end-to-end, torn-tail catch-up,
   failover storm --- *)

let test_replication_protocol_roundtrip () =
  let reqs =
    [
      Protocol.Add { seq = Some 5; tree = t "{x{y}}" };
      Protocol.Add { seq = Some 0; tree = t "{a}" };
      Protocol.Sync { epoch = 3; from_seq = 17 };
      Protocol.Sync { epoch = 0; from_seq = 0 };
      Protocol.Ack 9;
      Protocol.Promote;
    ]
  in
  List.iter
    (fun req ->
      let line = Protocol.render_request req in
      match Protocol.parse_request line with
      | Error msg -> Alcotest.failf "round trip of %S failed: %s" line msg
      | Ok req' ->
        Alcotest.(check string) ("round trip " ^ line) line
          (Protocol.render_request req'))
    reqs;
  List.iter
    (fun bad ->
      match Protocol.parse_request bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S unexpectedly parsed" bad)
    [ "ADD -1 {a}"; "SYNC 1"; "SYNC -1 0"; "SYNC 1 -2"; "ACKED"; "ACKED x";
      "PROMOTE now" ];
  let resps =
    [
      Protocol.Sync_stream { epoch = 2; base = 11; high = 13 };
      Protocol.Record "add 3 {a{b}} 0123456789abcdef";
      Protocol.Fenced 4;
      Protocol.Promoted 1;
    ]
  in
  List.iter
    (fun r ->
      let line = Protocol.render_response r in
      match Protocol.parse_response line with
      | Error msg -> Alcotest.failf "round trip of %S failed: %s" line msg
      | Ok r' ->
        Alcotest.(check string) ("round trip " ^ line) line
          (Protocol.render_response r'))
    resps;
  (* a RECORD payload travels verbatim — no word-splitting damage *)
  (match Protocol.parse_response "RECORD add 0 {A{b}}  weird  payload" with
  | Ok (Protocol.Record r) ->
    Alcotest.(check string) "payload verbatim" "add 0 {A{b}}  weird  payload" r
  | _ -> Alcotest.fail "RECORD payload mangled")

let rec eventually ?(tries = 500) msg f =
  if f () then ()
  else if tries = 0 then Alcotest.fail ("timeout waiting for " ^ msg)
  else begin
    Thread.delay 0.01;
    eventually ~tries:(tries - 1) msg f
  end

(* ADD with an explicit seq, retried until quorum is reachable (the
   followers register asynchronously after start). *)
let rec add_acked ?(tries = 500) conn ~seq tree =
  match request conn (Protocol.Add { seq = Some seq; tree }) with
  | Protocol.Added { id; _ } -> id
  | Protocol.Err _ when tries > 0 ->
    Thread.delay 0.01;
    add_acked ~tries:(tries - 1) conn ~seq tree
  | r -> Alcotest.failf "add seq %d never acknowledged: %s" seq
           (Protocol.render_response r)

let stats_of conn =
  match request conn Protocol.Stats with
  | Protocol.Stats_reply s -> s
  | r -> Alcotest.failf "bad stats reply %s" (Protocol.render_response r)

(* A refused SYNC is answered on the requester's own connection: the
   primary owns the transport until the stream is established, so the
   refusal must reach the requester instead of an EOF. *)
let test_sync_refusal_answered () =
  with_server (fun addr _server ->
      let conn = ok_or_fail (Client.connect addr) in
      List.iter
        (fun s -> ignore (request conn (Protocol.Add { seq = None; tree = t s })))
        [ "{a{b}}"; "{c}" ];
      Client.close conn;
      let ((fd, ic, _) as raw) = raw_connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (match Protocol.parse_response (raw_request raw "SYNC 0 0") with
          | Ok (Protocol.Sync_stream { high; _ }) ->
            Alcotest.(check int) "stream header high" 2 high
          | _ -> Alcotest.fail "expected a stream header");
          Alcotest.(check string) "refusal on the same connection"
            "ERR sync refused: replica is ahead of the primary"
            (raw_request raw "ACKED 7");
          match input_line ic with
          | exception End_of_file -> ()
          | line -> Alcotest.failf "unexpected line after the refusal: %S" line))

(* [Cluster.serve_sync] never closes the transport it refuses: every
   refusal leaves the close to the caller, which still has to write the
   reply.  A stream it accepts is closed once, by the cluster. *)
let test_serve_sync_refusals_leave_transport_open () =
  let module Cluster = Tsj_server.Cluster in
  let closes = ref 0 in
  let sync ?(cluster = Cluster.create ()) ?(primary = true) ?(send = ignore) replies =
    let replies = ref replies in
    let recv () =
      match !replies with
      | [] -> failwith "peer hung up"
      | r :: rest ->
        replies := rest;
        r
    in
    Cluster.serve_sync cluster
      ~epoch:(fun () -> 0)
      ~base:(fun () -> 0)
      ~n_trees:(fun () -> 2)
      ~record_for:(fun seq -> Store.render_record ~seq (t "{a}"))
      ~primary:(fun () -> primary)
      ~peer_id:"replica" ~f_epoch:0 ~send ~recv
      ~close:(fun () -> incr closes)
  in
  let refused what = function
    | `Refused _ -> ()
    | `Streaming -> Alcotest.failf "%s: streaming" what
    | `Fenced e -> Alcotest.failf "%s: fenced at %d" what e
  in
  let sealed = Cluster.create () in
  Cluster.seal sealed;
  refused "not primary" (sync ~primary:false []);
  refused "header send raises" (sync ~send:(fun _ -> failwith "broken pipe") []);
  refused "handshake recv raises" (sync []);
  refused "no ACKED after the header" (sync [ "HITS 0 0 0" ]);
  refused "replica ahead" (sync [ "ACKED 7" ]);
  refused "catch-up recv raises" (sync [ "ACKED 0" ]);
  refused "catch-up fenced" (sync [ "ACKED 0"; "FENCED 3" ]);
  refused "sealed cluster" (sync ~cluster:sealed [ "ACKED 2" ]);
  Alcotest.(check int) "no refusal closed the transport" 0 !closes;
  let cluster = Cluster.create () in
  (match sync ~cluster [ "ACKED 0"; "ACKED 1"; "ACKED 2" ] with
  | `Streaming -> ()
  | _ -> Alcotest.fail "expected the stream to be accepted");
  Cluster.seal cluster;
  Cluster.seal cluster;
  Alcotest.(check int) "a sealed stream is closed once" 1 !closes

let test_replicated_cluster_end_to_end () =
  let socks = Array.init 3 (fun _ ->
      let p = Filename.temp_file "tsj_repl" ".sock" in
      Sys.remove p;
      p)
  in
  let addr i = Protocol.Unix_path socks.(i) in
  let mk ~primary ~sync_from i =
    let config =
      { (Server.default_config (addr i) ~tau:2) with
        Server.quorum = 2; sync_from; primary }
    in
    let server = ok_or_fail (Server.create config) in
    Server.start server;
    server
  in
  let p0 = mk ~primary:true ~sync_from:[] 0 in
  let r1 = mk ~primary:false ~sync_from:[ addr 0 ] 1 in
  let r2 = mk ~primary:false ~sync_from:[ addr 0; addr 1 ] 2 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun s ->
          (try Server.drain s with _ -> ());
          try Server.wait s with _ -> ())
        [ p0; r1; r2 ];
      Array.iter (fun p -> if Sys.file_exists p then Sys.remove p) socks)
    (fun () ->
      let trees =
        [| t "{a{b}{c}}"; t "{a{b}{d}}"; t "{x{y{z}}}"; t "{p{q}}" |]
      in
      let conn0 = ok_or_fail (Client.connect (addr 0)) in
      (* quorum-acked writes: the first ADD blocks on a follower having
         registered, then each one is durable on two nodes before OK *)
      Array.iteri
        (fun i tree ->
          Alcotest.(check int) "sequential ids" i (add_acked conn0 ~seq:i tree))
        trees;
      let conn1 = ok_or_fail (Client.connect (addr 1)) in
      let conn2 = ok_or_fail (Client.connect (addr 2)) in
      eventually "replicas caught up" (fun () ->
          (stats_of conn1).Protocol.trees = 4 && (stats_of conn2).Protocol.trees = 4);
      (* replicas serve reads; writes on a non-primary are fenced *)
      (match request conn1 (Protocol.Query { tau = 1; tree = trees.(0) }) with
      | Protocol.Hits { hits; _ } ->
        Alcotest.(check (list (pair int int))) "replica read" [ (0, 0); (1, 1) ] hits
      | r -> Alcotest.failf "replica query failed: %s" (Protocol.render_response r));
      (match request conn1 (Protocol.Add { seq = Some 4; tree = trees.(0) }) with
      | Protocol.Fenced 0 -> ()
      | r -> Alcotest.failf "replica accepted a write: %s" (Protocol.render_response r));
      (* failover: promote r1, which bumps the epoch *)
      (match request conn1 Protocol.Promote with
      | Protocol.Promoted 1 -> ()
      | r -> Alcotest.failf "promote failed: %s" (Protocol.render_response r));
      let s1 = stats_of conn1 in
      Alcotest.(check bool) "r1 is primary" true s1.Protocol.primary;
      Alcotest.(check int) "r1 epoch bumped" 1 s1.Protocol.epoch;
      (* the stale primary is fenced off on its next replicated write *)
      (match request conn0 (Protocol.Add { seq = Some 4; tree = trees.(0) }) with
      | Protocol.Fenced 1 -> ()
      | r ->
        Alcotest.failf "stale primary not fenced: %s" (Protocol.render_response r));
      let s0 = stats_of conn0 in
      Alcotest.(check bool) "p0 demoted" false s0.Protocol.primary;
      Client.close conn0;
      (* stop the old primary; r2's stream rotates to the new one *)
      Server.drain p0;
      Server.wait p0;
      (* a post-failover quorum write through the new primary *)
      let id = add_acked conn1 ~seq:4 (t "{n{e}{w}}") in
      Alcotest.(check int) "post-failover id" 4 id;
      eventually "r2 adopted the new epoch" (fun () ->
          let s = stats_of conn2 in
          s.Protocol.trees = 5 && s.Protocol.epoch = 1);
      (* both survivors answer identically *)
      let hits_on conn =
        match request conn (Protocol.Query { tau = 2; tree = t "{n{e}{w}}" }) with
        | Protocol.Hits { hits; _ } -> hits
        | r -> Alcotest.failf "query failed: %s" (Protocol.render_response r)
      in
      Alcotest.(check (list (pair int int))) "survivors agree" (hits_on conn1)
        (hits_on conn2);
      Client.close conn1;
      Client.close conn2)

(* A replica that crashes with a torn journal tail must heal on
   re-sync: the torn record is dropped on reopen and re-streamed by the
   primary's catch-up. *)
let test_replica_torn_tail_catchup () =
  let module Replica = Tsj_server.Replica in
  let module Cluster = Tsj_server.Cluster in
  with_store_dir (fun dir ->
      let primary_store = ok_or_fail (Store.open_ ~tau:2 ()) in
      let primary = Replica.create ~primary:true primary_store in
      let cluster = Cluster.create ~quorum:1 () in
      let record_for s = Store.record_for primary_store s in
      let follower_store = ref (ok_or_fail (Store.open_ ~dir ~tau:2 ())) in
      let follower = ref (Replica.create !follower_store) in
      let resync () =
        let pending = ref None in
        let send line =
          match Replica.feed !follower line with
          | Replica.Reply r | Replica.Final r -> pending := Some r
          | Replica.Stop reason -> failwith ("stream stopped: " ^ reason)
        in
        let recv () =
          match !pending with
          | Some r ->
            pending := None;
            r
          | None -> failwith "no reply pending"
        in
        let f_epoch =
          match Protocol.parse_request (Replica.hello !follower) with
          | Ok (Protocol.Sync { epoch; _ }) -> epoch
          | _ -> Alcotest.fail "malformed hello"
        in
        match
          Cluster.serve_sync cluster
            ~epoch:(fun () -> Store.epoch primary_store)
            ~base:(fun () -> Store.epoch_base primary_store)
            ~n_trees:(fun () -> Store.n_trees primary_store)
            ~record_for
            ~primary:(fun () -> Replica.is_primary primary)
            ~peer_id:"follower" ~f_epoch ~send ~recv
            ~close:(fun () -> ())
        with
        | `Streaming -> ()
        | `Fenced e -> Alcotest.failf "unexpected fence at %d" e
        | `Refused msg -> Alcotest.failf "sync refused: %s" msg
      in
      resync ();
      let trees = trees_of 71 6 in
      Array.iter
        (fun tree ->
          Cluster.with_write cluster (fun () ->
              let id, _ = ok_or_fail (Store.add_seq primary_store tree) in
              match Cluster.replicate cluster ~record_for ~seq:id with
              | Cluster.Acks _ -> ()
              | Cluster.No_quorum _ | Cluster.Fenced_off _ ->
                Alcotest.fail "replication failed"))
        trees;
      Alcotest.(check int) "follower current" 6 (Store.n_trees !follower_store);
      (* crash the follower with a torn tail: abandon the store object
         and chop the final journal record mid-write *)
      let journal = Filename.concat dir "journal" in
      let len = (Unix.stat journal).Unix.st_size in
      Faults.truncate_file journal ~keep_bytes:(len - 3);
      follower_store := ok_or_fail (Store.open_ ~dir ~tau:2 ());
      Alcotest.(check int) "torn record dropped on reopen" 5
        (Store.n_trees !follower_store);
      follower := Replica.create !follower_store;
      (* catch-up from seq 5 re-streams the lost record *)
      resync ();
      Alcotest.(check int) "caught up" 6 (Store.n_trees !follower_store);
      Array.iteri
        (fun i tree ->
          Alcotest.(check bool) (Printf.sprintf "tree %d identical" i) true
            (Tree.equal tree (Store.tree !follower_store i)))
        trees;
      Store.close !follower_store;
      Store.close primary_store)

let check_storm name (r : Faults.failover_report) =
  Alcotest.(check bool) (name ^ ": no acked ADD lost") true r.Faults.acked_preserved;
  Alcotest.(check bool) (name ^ ": one writer per epoch") true r.Faults.single_writer;
  Alcotest.(check bool) (name ^ ": cluster converged") true r.Faults.converged;
  Alcotest.(check bool)
    (name ^ ": answers bit-identical to an unfailed node")
    true r.Faults.cluster_answers_match

let test_failover_storm () =
  let trees = trees_of 81 24 in
  let queries = trees_of 82 4 in
  (* 60 randomized kill/partition points per seed *)
  List.iter
    (fun seed ->
      let r = Faults.run_failover_storm ~seed ~rounds:60 ~trees ~queries ~tau:2 () in
      let name = Printf.sprintf "storm (seed=%d)" seed in
      Alcotest.(check int) (name ^ ": one chaos point per round") 60
        r.Faults.chaos_points;
      Alcotest.(check bool) (name ^ ": writes got through") true
        (r.Faults.acked_adds > 60);
      Alcotest.(check bool) (name ^ ": failovers exercised") true
        (r.Faults.failovers > 0);
      check_storm name r)
    [ 901; 902 ]

(* Property (qcheck): at ANY random kill/partition schedule, the
   replicated cluster loses no acknowledged ADD and never has two
   writers in one epoch. *)
let prop_failover_storm =
  Gen.qtest ~count:10 "failover storm invariants under random seeds"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (9100 + seed) in
      let trees = Array.init 12 (fun _ -> Gen.random_tree rng (3 + Prng.int rng 8)) in
      let queries = Array.init 2 (fun _ -> Gen.random_tree rng (3 + Prng.int rng 8)) in
      let r = Faults.run_failover_storm ~seed ~rounds:6 ~trees ~queries ~tau:2 () in
      r.Faults.acked_preserved && r.Faults.single_writer && r.Faults.converged
      && r.Faults.cluster_answers_match)

(* --- binary protocol: negotiation, pipelining, group commit,
   bounded-staleness reads --- *)

let bin_connect addr = ok_or_fail (Client.Bin.connect ~timeout_s:10.0 addr)

let test_binary_hello_and_pipelining () =
  with_server (fun addr server ->
      (* text first, then HELLO upgrades the very same connection *)
      let ((fd, ic, oc) as raw) = raw_connect addr in
      (match Protocol.parse_response (raw_request raw "ADD {a{b}}") with
      | Ok (Protocol.Added { id = 0; _ }) -> ()
      | _ -> Alcotest.fail "text ADD before HELLO failed");
      (match Protocol.parse_response (raw_request raw "HELLO BIN 7") with
      | Ok (Protocol.Hello_reply v) when v = Protocol.Binary.version -> ()
      | Ok r -> Alcotest.failf "HELLO answered %s" (Protocol.render_response r)
      | Error msg -> Alcotest.failf "HELLO reply unparseable: %s" msg);
      (* from here the connection speaks frames; the id is echoed *)
      let b = Buffer.create 64 in
      Protocol.Binary.encode_request b ~id:42 Protocol.Stats;
      output_string oc (Buffer.contents b);
      flush oc;
      let flen = Protocol.Binary.get_u32 (really_input_string ic 4) 0 in
      let rest = really_input_string ic flen in
      Alcotest.(check int) "request id echoed" 42 (Protocol.Binary.get_u32 rest 0);
      (match
         Protocol.Binary.decode_response ~op:(Char.code rest.[4])
           ~body:(String.sub rest 5 (flen - 5))
       with
      | Ok (Protocol.Stats_reply s) ->
        Alcotest.(check int) "binary STATS sees the text-mode add" 1 s.Protocol.trees
      | Ok r -> Alcotest.failf "binary STATS answered %s" (Protocol.render_response r)
      | Error msg -> Alcotest.failf "binary STATS undecodable: %s" msg);
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (* pipelining through the Bin client: many ids outstanding at once,
         every reply matched to the request that owns it, exactly once *)
      let bin = bin_connect addr in
      let add_ids =
        List.map
          (fun s -> Client.Bin.send bin (Protocol.Add { seq = None; tree = t s }))
          [ "{p{q}}"; "{p{r}}"; "{s}" ]
      in
      let qid = Client.Bin.send bin (Protocol.Query { tau = 1; tree = t "{a{b}}" }) in
      let sid = Client.Bin.send bin Protocol.Stats in
      Client.Bin.flush bin;
      let replies = Hashtbl.create 8 in
      for _ = 1 to 5 do
        match Client.Bin.recv bin with
        | Ok (id, resp) ->
          Alcotest.(check bool) "no duplicate reply id" false (Hashtbl.mem replies id);
          Hashtbl.replace replies id resp
        | Error e -> Alcotest.fail e
      done;
      (* the committer assigns tree ids in pipeline order *)
      List.iteri
        (fun i id ->
          match Hashtbl.find_opt replies id with
          | Some (Protocol.Added { id = tree_id; _ }) ->
            Alcotest.(check int) "pipelined adds keep send order" (1 + i) tree_id
          | Some r ->
            Alcotest.failf "add id %d misattributed: %s" id
              (Protocol.render_response r)
          | None -> Alcotest.failf "add id %d unanswered" id)
        add_ids;
      (match Hashtbl.find_opt replies qid with
      | Some (Protocol.Hits { hits; _ }) ->
        Alcotest.(check bool) "pipelined query found the acked tree" true
          (List.mem_assoc 0 hits)
      | Some r ->
        Alcotest.failf "query misattributed: %s" (Protocol.render_response r)
      | None -> Alcotest.fail "pipelined query unanswered");
      (match Hashtbl.find_opt replies sid with
      | Some (Protocol.Stats_reply _) -> ()
      | Some r ->
        Alcotest.failf "stats misattributed: %s" (Protocol.render_response r)
      | None -> Alcotest.fail "pipelined stats unanswered");
      Client.Bin.close bin;
      ignore server)

(* Offers of the retired frame versions are refused with ERR, and the
   refusing connection keeps speaking text; any offer at or above the
   current version is answered with the current version. *)
let test_binary_hello_versions () =
  with_server (fun addr server ->
      ignore server;
      let ((fd, _, _) as raw) = raw_connect addr in
      ignore (raw_request raw "ADD {a{b}}");
      List.iter
        (fun v ->
          let hello = Printf.sprintf "HELLO BIN %d" v in
          (match Protocol.parse_response (raw_request raw hello) with
          | Ok (Protocol.Err _) -> ()
          | Ok r -> Alcotest.failf "%s answered %s" hello (Protocol.render_response r)
          | Error msg -> Alcotest.failf "%s reply unparseable: %s" hello msg);
          Alcotest.(check string) (hello ^ ": next text QUERY answered") "HITS 0 1 0 0:0"
            (raw_request raw "QUERY 1 {a{b}}"))
        [ 1; 2 ];
      Alcotest.(check string) "a high offer gets the current version" "HELLO BIN 3"
        (raw_request raw "HELLO BIN 7");
      (* GET travels in a frame; SYNC, which hands the socket to a
         replication thread, is refused inside one *)
      Alcotest.(check string) "framed GET" "TREE 0 {a{b}}" (frame_request raw ~id:5 "GET 0");
      Alcotest.(check bool) "framed SYNC refused" true
        (String.starts_with ~prefix:"ERR " (frame_request raw ~id:6 "SYNC 0 0"));
      Alcotest.(check string) "stream still usable" "OK serving"
        (frame_request raw ~id:7 "HEALTH");
      (try Unix.close fd with Unix.Unix_error _ -> ()))

(* One script, once as newline lines and once as frames against a twin
   server: every reply must be the same line.  STATS latency quantiles
   are timings, so they are masked before comparing. *)
let test_text_and_frames_agree () =
  let script =
    [ "STATS"; "HEALTH"; "ADD {a{b}{c}}"; "ADD 1 {a{b}{d}}"; "ADD 1 {a{b}{d}}";
      "ADD @60000 {x{y}}"; "QUERY 1 {a{b}{c}}"; "QUERY 1 ~0 @5000 {a{b}{c}}";
      "KNN 2 {a{b}}"; "KNN 1 ~3 {a{b}{d}}"; "GET 0"; "GET 99"; "DIGEST 0 0 2";
      "DIGEST 0 0 9"; "QUERY 1 {a{b}"; "QUERY 1 ~x {a}"; "KNN 1 @-3 {a}";
      "ADD @zz {a}"; "SYNC 0 0 0"; "STATS" ]
  in
  let mask line =
    if String.length line > 5 && String.sub line 0 5 = "STATS" then
      String.split_on_char ' ' line
      |> List.filter (fun w ->
             not (List.exists (fun p -> String.starts_with ~prefix:p w) [ "q_"; "k_"; "a_" ]))
      |> String.concat " "
    else line
  in
  let over_text addr =
    let ((fd, _, _) as raw) = raw_connect addr in
    let replies = List.map (fun line -> mask (raw_request raw line)) script in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    replies
  in
  let over_frames addr =
    let ((fd, _, _) as raw) = raw_connect addr in
    Alcotest.(check string) "upgrade" "HELLO BIN 3" (raw_request raw "HELLO BIN 3");
    let replies = List.mapi (fun id line -> mask (frame_request raw ~id line)) script in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    replies
  in
  let text = with_server (fun addr _ -> over_text addr) in
  let frames = with_server (fun addr _ -> over_frames addr) in
  List.iter2
    (fun line (a, b) -> Alcotest.(check string) line a b)
    script (List.combine text frames);
  (* the script reached every kind of reply it was written for *)
  List.iter
    (fun prefix ->
      Alcotest.(check bool) ("some reply starts " ^ prefix) true
        (List.exists (String.starts_with ~prefix) text))
    [ "STATS trees=0"; "STATS trees=3"; "OK serving"; "ADDED 1"; "HITS"; "TREE 0";
      "ERR GET 99"; "DIGEST 0 0 2"; "ERR QUERY: line"; "ERR QUERY: bad staleness";
      "ERR KNN: bad deadline"; "ERR ADD: bad deadline"; "ERR SYNC" ]

(* A frame can carry a label with a line break, but the journal and the
   snapshot are lines: ADD refuses such a tree (a query may still use
   one), and the store reopens with only what was acknowledged. *)
let test_add_refuses_line_break_labels () =
  with_store_dir (fun dir ->
      with_server ~dir (fun addr _ ->
          let ((fd, _, _) as raw) = raw_connect addr in
          ignore (raw_request raw "HELLO BIN 3");
          Alcotest.(check bool) "ADD refused" true
            (String.starts_with ~prefix:"ERR "
               (frame_request raw ~id:1 "ADD {a\nb{c}}"));
          Alcotest.(check string) "QUERY answered" "HITS 0 0 0"
            (frame_request raw ~id:2 "QUERY 1 {a\rb{c}}");
          Alcotest.(check string) "no seq consumed" "ADDED 0 0"
            (frame_request raw ~id:3 "ADD {x}");
          (try Unix.close fd with Unix.Unix_error _ -> ()));
      with_server ~dir (fun addr _ ->
          let ((fd, _, _) as raw) = raw_connect addr in
          Alcotest.(check bool) "reopened with the one acked tree" true
            (String.starts_with ~prefix:"STATS trees=1 " (raw_request raw "STATS"));
          (try Unix.close fd with Unix.Unix_error _ -> ())))

let test_binary_group_commit_fsyncs () =
  (* [n] pipelined ADDs against a committer stalled at the batch fault
     point pile into full group commits of [max_batch] *)
  let burst ~n ~max_batch =
    with_store_dir (fun dir ->
        with_server ~dir ~max_batch ~max_inflight:(max 64 (2 * n)) (fun addr server ->
            let bin = bin_connect addr in
            (* lock-step warm-up so the committer is known idle afterwards *)
            (match
               ok_or_fail
                 (Client.Bin.request bin (Protocol.Add { seq = None; tree = t "{w}" }))
             with
            | Protocol.Added { id = 0; _ } -> ()
            | r -> Alcotest.failf "warm-up add failed: %s" (Protocol.render_response r));
            let store = Server.store server in
            let f0 = Store.fsyncs store in
            let h0 = Fault.hits "server.journal" in
            (* count journal flushes while the committer is stalled at the
               batch fault point, so the pipelined ADDs pile into full
               group commits *)
            Fault.arm_action "server.journal" (fun _ -> ());
            let gate = Atomic.make false in
            Fault.arm_action "server.batch" (fun _ ->
                while not (Atomic.get gate) do
                  Thread.delay 0.001
                done);
            Fun.protect
              ~finally:(fun () ->
                Atomic.set gate true;
                Fault.disarm_all ())
              (fun () ->
                let rng = Prng.create 97 in
                let ids =
                  List.init n (fun _ ->
                      Client.Bin.send bin
                        (Protocol.Add
                           { seq = None; tree = Gen.random_tree rng (3 + Prng.int rng 6) }))
                in
                Client.Bin.flush bin;
                eventually "all adds admitted" (fun () ->
                    (Server.stats server).Protocol.inflight = n);
                Thread.delay 0.05;
                Atomic.set gate true;
                let answered = Hashtbl.create 8 in
                List.iter
                  (fun _ ->
                    match Client.Bin.recv bin with
                    | Ok (id, Protocol.Added { id = tree_id; _ }) ->
                      Hashtbl.replace answered id tree_id
                    | Ok (id, r) ->
                      Alcotest.failf "add %d answered %s" id (Protocol.render_response r)
                    | Error e -> Alcotest.fail e)
                  ids;
                List.iteri
                  (fun i id ->
                    match Hashtbl.find_opt answered id with
                    | Some tree_id ->
                      Alcotest.(check int) "batched adds keep queue order" (1 + i) tree_id
                    | None -> Alcotest.failf "add id %d unanswered" id)
                  ids;
                let batches = Fault.hits "server.journal" - h0 in
                let fsyncs = Store.fsyncs store - f0 in
                (* one journal append per group commit, one fsync each —
                   not one per ADD *)
                Alcotest.(check int) "group commits = ceil(N / max_batch)"
                  ((n + max_batch - 1) / max_batch) batches;
                Alcotest.(check int) "one fsync per group commit" batches fsyncs;
                Alcotest.(check bool)
                  (Printf.sprintf "fsyncs per ADD %d/%d well below 1" fsyncs n)
                  true
                  (4 * fsyncs <= n));
            Client.Bin.close bin))
  in
  burst ~n:8 ~max_batch:4;
  (* the default batch size: a 64-ADD burst costs one fsync *)
  burst ~n:64 ~max_batch:64

let test_group_commit_crash_recovers_acked_prefix () =
  with_store_dir (fun dir ->
      let sock = Filename.temp_file "tsj_sock" "" in
      Sys.remove sock;
      let addr = Protocol.Unix_path sock in
      let config =
        { (Server.default_config addr ~tau:2) with Server.dir = Some dir; max_batch = 4 }
      in
      let server = ok_or_fail (Server.create config) in
      Server.start server;
      let acked = ref [] in
      Fun.protect
        ~finally:(fun () ->
          Fault.disarm_all ();
          if Sys.file_exists sock then Sys.remove sock)
        (fun () ->
          let bin = bin_connect addr in
          let rng = Prng.create 98 in
          for i = 0 to 4 do
            let tree = Gen.random_tree rng (3 + Prng.int rng 6) in
            match
              ok_or_fail (Client.Bin.request bin (Protocol.Add { seq = None; tree }))
            with
            | Protocol.Added { id; _ } when id = i -> acked := tree :: !acked
            | r -> Alcotest.failf "add %d failed: %s" i (Protocol.render_response r)
          done;
          (* an injected journal fault fails the whole batch atomically:
             every ADD in it is answered ERR, nothing is indexed and
             nothing reaches the journal *)
          let before = Store.journal_records (Server.store server) in
          Fault.arm "server.journal" ();
          let ids =
            List.init 3 (fun _ ->
                Client.Bin.send bin
                  (Protocol.Add
                     { seq = None; tree = Gen.random_tree rng (3 + Prng.int rng 6) }))
          in
          Client.Bin.flush bin;
          List.iter
            (fun _ ->
              match Client.Bin.recv bin with
              | Ok (id, Protocol.Err _) when List.mem id ids -> ()
              | Ok (id, r) ->
                Alcotest.failf "faulted add %d answered %s" id
                  (Protocol.render_response r)
              | Error e -> Alcotest.fail e)
            ids;
          Fault.disarm "server.journal";
          Alcotest.(check int) "journal untouched by the failed batch" before
            (Store.journal_records (Server.store server));
          Alcotest.(check int) "nothing from the failed batch indexed" 5
            (Store.n_trees (Server.store server));
          (* the sequence continues with no gap *)
          (match
             ok_or_fail
               (Client.Bin.request bin (Protocol.Add { seq = None; tree = t "{g{h}}" }))
           with
          | Protocol.Added { id = 5; _ } -> acked := t "{g{h}}" :: !acked
          | r -> Alcotest.failf "post-fault add failed: %s" (Protocol.render_response r));
          (* crash (kill -9) with a stalled, never-acked batch in flight:
             recovery from the journal must see exactly the acked prefix *)
          let gate = Atomic.make false in
          Fault.arm_action "server.batch" (fun _ ->
              while not (Atomic.get gate) do
                Thread.delay 0.001
              done);
          ignore
            (List.init 3 (fun _ ->
                 Client.Bin.send bin
                   (Protocol.Add
                      { seq = None; tree = Gen.random_tree rng (3 + Prng.int rng 6) })));
          Client.Bin.flush bin;
          eventually "stalled batch admitted" (fun () ->
              (Server.stats server).Protocol.inflight = 3);
          Server.abort server;
          Atomic.set gate true;
          Server.wait server;
          Client.Bin.close bin;
          Fault.disarm_all ();
          let store = ok_or_fail (Store.open_ ~dir ~tau:2 ()) in
          Alcotest.(check int) "recovered exactly the acked prefix" 6
            (Store.n_trees store);
          List.iteri
            (fun i tree ->
              let idx = 5 - i in
              Alcotest.(check bool) (Printf.sprintf "acked tree %d survives" idx) true
                (Tree.equal tree (Store.tree store idx)))
            !acked;
          Store.close store))

let test_bounded_staleness_reads () =
  let socks =
    Array.init 2 (fun _ ->
        let p = Filename.temp_file "tsj_stale" ".sock" in
        Sys.remove p;
        p)
  in
  let addr i = Protocol.Unix_path socks.(i) in
  let mk ~primary ~sync_from i =
    let config =
      { (Server.default_config (addr i) ~tau:2) with Server.quorum = 2; sync_from; primary }
    in
    let server = ok_or_fail (Server.create config) in
    Server.start server;
    server
  in
  let p0 = mk ~primary:true ~sync_from:[] 0 in
  let r1 = mk ~primary:false ~sync_from:[ addr 0 ] 1 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun s ->
          (try Server.drain s with _ -> ());
          try Server.wait s with _ -> ())
        [ p0; r1 ];
      Array.iter (fun p -> if Sys.file_exists p then Sys.remove p) socks)
    (fun () ->
      let trees = [| t "{a{b}{c}}"; t "{a{b}{d}}" |] in
      let conn0 = ok_or_fail (Client.connect (addr 0)) in
      Array.iteri (fun i tree -> ignore (add_acked conn0 ~seq:i tree)) trees;
      Client.close conn0;
      let conn1 = ok_or_fail (Client.connect (addr 1)) in
      eventually "replica caught up" (fun () -> (stats_of conn1).Protocol.trees = 2);
      Client.close conn1;
      (* the primary always answers a bounded read: its lag is zero *)
      let bin0 = bin_connect (addr 0) in
      (match
         ok_or_fail
           (Client.Bin.request bin0 ~max_lag:0
              (Protocol.Query { tau = 1; tree = trees.(0) }))
       with
      | Protocol.Hits { hits; _ } ->
        Alcotest.(check (list (pair int int))) "primary bounded read" [ (0, 0); (1, 1) ]
          hits
      | r -> Alcotest.failf "primary bounded read: %s" (Protocol.render_response r));
      Client.Bin.close bin0;
      (* a synced replica within the bound answers locally *)
      let bin1 = bin_connect (addr 1) in
      (match
         ok_or_fail
           (Client.Bin.request bin1 ~max_lag:1
              (Protocol.Query { tau = 1; tree = trees.(0) }))
       with
      | Protocol.Hits { hits; _ } ->
        Alcotest.(check (list (pair int int))) "synced replica bounded read"
          [ (0, 0); (1, 1) ] hits
      | r -> Alcotest.failf "replica bounded read: %s" (Protocol.render_response r));
      (* kill the primary: the replica's lag becomes unknown, so bounded
         reads redirect to its last known upstream while unbounded reads
         keep answering from what it has *)
      Server.drain p0;
      Server.wait p0;
      eventually "stream loss surfaces as REDIRECT" (fun () ->
          match
            Client.Bin.request bin1 ~max_lag:0
              (Protocol.Query { tau = 1; tree = trees.(0) })
          with
          | Ok (Protocol.Redirect a) -> a = Protocol.addr_to_string (addr 0)
          | _ -> false);
      (* the same bound on a newline connection *)
      let raw1 = raw_connect (addr 1) in
      Alcotest.(check string) "text bounded read redirects"
        ("REDIRECT " ^ Protocol.addr_to_string (addr 0))
        (raw_request raw1 "QUERY 1 ~0 {a{b}{c}}");
      (let fd, _, _ = raw1 in
       try Unix.close fd with Unix.Unix_error _ -> ());
      (match
         ok_or_fail (Client.Bin.request bin1 (Protocol.Query { tau = 1; tree = trees.(0) }))
       with
      | Protocol.Hits { hits; _ } ->
        Alcotest.(check bool) "unbounded read still answers" true
          (List.mem_assoc 0 hits)
      | r -> Alcotest.failf "unbounded read refused: %s" (Protocol.render_response r));
      Client.Bin.close bin1;
      (* a replica that never had an upstream answers ERR, not a hang *)
      let sock2 = Filename.temp_file "tsj_stale" ".sock" in
      Sys.remove sock2;
      let addr2 = Protocol.Unix_path sock2 in
      let r2 =
        ok_or_fail
          (Server.create
             { (Server.default_config addr2 ~tau:2) with Server.primary = false })
      in
      Server.start r2;
      let bin2 = bin_connect addr2 in
      (match
         ok_or_fail
           (Client.Bin.request bin2 ~max_lag:3
              (Protocol.Query { tau = 1; tree = trees.(0) }))
       with
      | Protocol.Err reason ->
        Alcotest.(check bool) ("names the problem: " ^ reason) true
          (String.length reason > 5)
      | r -> Alcotest.failf "upstream-less replica: %s" (Protocol.render_response r));
      Client.Bin.close bin2;
      Server.drain r2;
      Server.wait r2;
      if Sys.file_exists sock2 then Sys.remove sock2)

(* Failover with kill -9 semantics, over both client paths: the text
   failover client's safe-retry ADDs, then [abort] of the primary, a
   binary PROMOTE frame to the most advanced survivor, binary ADDs with
   explicit seqs rotating across the nodes, and one more failover-client
   ADD that must find the new primary.  Every acknowledged ADD survives
   bit-identically on both survivors, no epoch has two acking writers,
   and the survivors answer like a single node that never failed. *)
let test_failover_after_kill () =
  let n = 14 and killed_at = 6 in
  let trees = trees_of 181 n in
  let socks =
    Array.init 3 (fun _ ->
        let p = Filename.temp_file "tsj_fo" ".sock" in
        Sys.remove p;
        p)
  in
  let addr i = Protocol.Unix_path socks.(i) in
  with_store_dir (fun d0 ->
  with_store_dir (fun d1 ->
  with_store_dir (fun d2 ->
      let dirs = [| d0; d1; d2 |] in
      let mk ~primary ~sync_from i =
        let config =
          { (Server.default_config (addr i) ~tau:2) with
            Server.dir = Some dirs.(i); quorum = 2; sync_from; primary }
        in
        let server = ok_or_fail (Server.create config) in
        Server.start server;
        server
      in
      let nodes =
        [|
          mk ~primary:true ~sync_from:[] 0;
          mk ~primary:false ~sync_from:[ addr 0; addr 2 ] 1;
          mk ~primary:false ~sync_from:[ addr 0; addr 1 ] 2;
        |]
      in
      let alive = [| true; true; true |] in
      Fun.protect
        ~finally:(fun () ->
          Array.iteri
            (fun i s ->
              if alive.(i) then (try Server.drain s with _ -> ());
              try Server.wait s with _ -> ())
            nodes;
          Array.iter (fun p -> if Sys.file_exists p then Sys.remove p) socks)
        (fun () ->
          let fo =
            Client.Failover.create ~timeout_s:2.0 ~rng:(Prng.create 182)
              [ addr 0; addr 1; addr 2 ]
          in
          let failover_add seq =
            match Client.Failover.add fo trees.(seq) with
            | Ok (Protocol.Added { id; _ }) ->
              Alcotest.(check int) "failover client ADD lands at its seq" seq id
            | Ok r -> Alcotest.failf "ADD %d: %s" seq (Protocol.render_response r)
            | Error e -> Alcotest.failf "ADD %d: %s" seq e
          in
          (* quorum is unreachable until a follower registers: the first
             ADD retries its own seq, so tree 0 still lands at id 0 *)
          for seq = 0 to killed_at - 1 do
            failover_add seq
          done;
          let with_bin i f =
            match Client.Bin.connect ~timeout_s:2.0 (addr i) with
            | Error _ as e -> e
            | Ok b -> Fun.protect ~finally:(fun () -> Client.Bin.close b) (fun () -> f b)
          in
          let bin_stats i =
            if not alive.(i) then None
            else
              match with_bin i (fun b -> Client.Bin.request b Protocol.Stats) with
              | Ok (Protocol.Stats_reply s) -> Some s
              | _ -> None
          in
          (* kill -9 the primary, promote the most advanced survivor *)
          Server.abort nodes.(0);
          alive.(0) <- false;
          let best =
            List.filter_map
              (fun i ->
                Option.map (fun s -> ((s.Protocol.epoch, s.Protocol.trees), i)) (bin_stats i))
              [ 1; 2 ]
            |> List.sort (fun a b -> compare b a)
            |> function
            | (_, i) :: _ -> i
            | [] -> Alcotest.fail "no survivor reachable"
          in
          (match with_bin best (fun b -> Client.Bin.request b Protocol.Promote) with
          | Ok (Protocol.Promoted 1) -> ()
          | Ok r -> Alcotest.failf "PROMOTE frame answered %s" (Protocol.render_response r)
          | Error e -> Alcotest.failf "PROMOTE frame failed: %s" e);
          (* binary ADDs with explicit seqs, rotating on a fence or a dead
             node; (seq, epoch, node) of every ack *)
          let acks = ref [] in
          let current = ref 0 in
          let bin_add seq =
            let rec go tries =
              if tries = 0 then Alcotest.failf "binary ADD %d never acknowledged" seq;
              let i = !current in
              let outcome =
                if not alive.(i) then `Rotate
                else
                  match
                    with_bin i (fun b ->
                        match
                          Client.Bin.request b
                            (Protocol.Add { seq = Some seq; tree = trees.(seq) })
                        with
                        | Ok (Protocol.Added { id; _ }) ->
                          Alcotest.(check int) "binary ADD lands at its seq" seq id;
                          (match Client.Bin.request b Protocol.Stats with
                          | Ok (Protocol.Stats_reply s) -> Ok (`Acked s.Protocol.epoch)
                          | _ -> Ok (`Acked (-1)))
                        | Ok (Protocol.Fenced _) -> Ok `Rotate
                        | Ok (Protocol.Busy _ | Protocol.Err _) -> Ok `Retry
                        | Ok r -> Error (Protocol.render_response r)
                        | Error _ as e -> e)
                  with
                  | Ok o -> o
                  | Error _ -> `Rotate
              in
              match outcome with
              | `Acked epoch -> acks := (seq, epoch, i) :: !acks
              | `Rotate ->
                current := (i + 1) mod 3;
                Thread.delay 0.01;
                go (tries - 1)
              | `Retry ->
                Thread.delay 0.01;
                go (tries - 1)
            in
            go 500
          in
          for seq = killed_at to n - 2 do
            bin_add seq
          done;
          (* the failover client rotates past the dead node and the
             fenced replica to the new primary *)
          failover_add (n - 1);
          let survivors = [ 1; 2 ] in
          List.iter
            (fun i ->
              eventually (Printf.sprintf "node %d converged" i) (fun () ->
                  match bin_stats i with
                  | Some s -> s.Protocol.trees = n && s.Protocol.epoch = 1
                  | None -> false))
            survivors;
          List.iter
            (fun i ->
              let store = Server.store nodes.(i) in
              Array.iteri
                (fun seq tree ->
                  Alcotest.(check bool)
                    (Printf.sprintf "acked ADD %d survives on node %d" seq i)
                    true
                    (Tree.equal tree (Store.tree store seq)))
                trees)
            survivors;
          let writers = Hashtbl.create 4 in
          List.iter
            (fun (seq, epoch, node) ->
              if epoch >= 0 then
                match Hashtbl.find_opt writers epoch with
                | None -> Hashtbl.replace writers epoch node
                | Some w ->
                  if w <> node then
                    Alcotest.failf "epoch %d acked by nodes %d and %d (seq %d)" epoch w
                      node seq)
            !acks;
          let reference = ok_or_fail (Store.open_ ~tau:2 ()) in
          Array.iter (fun tree -> ignore (Store.add reference tree)) trees;
          Array.iteri
            (fun k q ->
              if k mod 3 = 0 then
                let want = (Store.query reference q).Incremental.hits in
                List.iter
                  (fun i ->
                    match
                      with_bin i (fun b ->
                          Client.Bin.request b (Protocol.Query { tau = 2; tree = q }))
                    with
                    | Ok (Protocol.Hits { degraded = false; hits; _ }) ->
                      Alcotest.(check (list (pair int int)))
                        (Printf.sprintf "node %d answers like the unfailed reference" i)
                        want hits
                    | Ok r -> Alcotest.failf "query: %s" (Protocol.render_response r)
                    | Error e -> Alcotest.failf "query: %s" e)
                  survivors)
            trees;
          Store.close reference))))

(* --- client retry / backoff --- *)

let test_client_backoff_deterministic () =
  (* same seed -> same jittered schedule; bounds respected *)
  let schedule seed =
    let rng = Prng.create seed in
    List.init 6 (fun i ->
        Client.backoff_delay ~base_delay_s:0.05 ~max_delay_s:2.0 ~rng i)
  in
  Alcotest.(check (list (float 1e-12))) "reproducible" (schedule 7) (schedule 7);
  List.iteri
    (fun i d ->
      let cap = Float.min 2.0 (0.05 *. Float.pow 2.0 (float_of_int i)) in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d in [cap/2, cap]" i)
        true
        (d >= (cap /. 2.0) -. 1e-12 && d <= cap +. 1e-12))
    (schedule 11)

let test_client_with_retries () =
  let slept = ref [] in
  let sleep d = slept := d :: !slept in
  let rng = Prng.create 3 in
  let calls = ref 0 in
  let flaky () =
    incr calls;
    if !calls < 3 then Error "transient" else Ok !calls
  in
  (match Client.with_retries ~attempts:5 ~sleep ~rng flaky with
  | Ok 3 -> ()
  | Ok n -> Alcotest.failf "returned after %d calls" n
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "slept between attempts" 2 (List.length !slept);
  (* exhaustion returns the last error and sleeps attempts-1 times *)
  let slept2 = ref 0 in
  (match
     Client.with_retries ~attempts:3 ~sleep:(fun _ -> incr slept2)
       ~rng:(Prng.create 4) (fun () -> Error "always")
   with
  | Error "always" -> ()
  | Error e -> Alcotest.failf "wrong error %s" e
  | Ok _ -> Alcotest.fail "expected failure");
  Alcotest.(check int) "attempts-1 sleeps" 2 !slept2;
  Alcotest.check_raises "attempts >= 1"
    (Invalid_argument "Client.with_retries: attempts must be >= 1") (fun () ->
      ignore (Client.with_retries ~attempts:0 ~rng:(Prng.create 1) (fun () -> Ok ())))

let test_client_backoff_deadline_cap () =
  (* an injected clock that advances exactly by what was slept: the
     total backoff wait can never exceed the caller's deadline *)
  let run ~attempts ~deadline_s =
    let clock = ref 0.0 in
    let slept = ref [] in
    let sleep d =
      slept := d :: !slept;
      clock := !clock +. d
    in
    let calls = ref 0 in
    let r =
      Client.with_retries ~attempts ~base_delay_s:1.0 ~max_delay_s:8.0 ~sleep
        ~deadline_s
        ~now:(fun () -> !clock)
        ~rng:(Prng.create 13)
        (fun () ->
          incr calls;
          Error "down")
    in
    (r, List.rev !slept, !calls)
  in
  (match run ~attempts:10 ~deadline_s:2.5 with
  | Error "down", slept, calls ->
    let total = List.fold_left ( +. ) 0.0 slept in
    (* the schedule grows past the deadline, so the final sleep is
       clamped to exactly the time remaining and retrying stops *)
    Alcotest.(check (float 1e-9)) "total wait = deadline exactly" 2.5 total;
    Alcotest.(check bool)
      (Printf.sprintf "stopped before exhausting attempts (%d calls)" calls)
      true (calls < 10);
    List.iter
      (fun d -> Alcotest.(check bool) "every sleep positive" true (d > 0.0))
      slept
  | Error e, _, _ -> Alcotest.failf "wrong error %s" e
  | Ok _, _, _ -> Alcotest.fail "expected failure");
  (* a deadline that already passed: one attempt, zero sleeps *)
  (match run ~attempts:10 ~deadline_s:0.0 with
  | Error "down", [], 1 -> ()
  | _, slept, calls ->
    Alcotest.failf "expired deadline still waited (%d sleeps, %d calls)"
      (List.length slept) calls);
  (* without a deadline the full schedule runs: attempts-1 sleeps *)
  (match
     let slept = ref 0 in
     let r =
       Client.with_retries ~attempts:4 ~base_delay_s:1.0 ~max_delay_s:8.0
         ~sleep:(fun _ -> incr slept)
         ~rng:(Prng.create 13)
         (fun () -> Error "down")
     in
     (r, !slept)
   with
  | Error "down", 3 -> ()
  | _, n -> Alcotest.failf "expected 3 sleeps without a deadline, got %d" n);
  (* the failover client obeys the same cap across server rotations *)
  let clock = ref 0.0 in
  let total = ref 0.0 in
  let sleep d =
    total := !total +. d;
    clock := !clock +. d
  in
  let fo =
    Client.Failover.create ~attempts:12 ~base_delay_s:1.0 ~max_delay_s:8.0 ~sleep
      ~deadline_s:1.5
      ~now:(fun () -> !clock)
      ~rng:(Prng.create 17)
      [ Protocol.Unix_path "/nonexistent/a.sock"; Protocol.Unix_path "/nonexistent/b.sock" ]
  in
  (match Client.Failover.request fo Protocol.Stats with
  | Error _ -> ()
  | Ok r -> Alcotest.failf "unexpected reply %s" (Protocol.render_response r));
  Alcotest.(check (float 1e-9)) "failover total wait = deadline exactly" 1.5 !total

(* --- disk faults on the durability path --- *)

let contains haystack needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

let test_short_write_crash_recovers () =
  (* A crash in the middle of a journal append — through the real
     [durable.write] hit point, so the torn bytes are the genuine
     half-written record, not an artificial truncation.  The restart
     must drop the torn tail, keep every completed record, and reuse
     the torn sequence number for the retry. *)
  with_store_dir (fun dir ->
      let trees = trees_of 61 6 in
      let store = ok_or_fail (Store.open_ ~dir ~tau:2 ()) in
      Array.iter (fun tree -> ignore (Store.add store tree)) (Array.sub trees 0 5);
      (match Fault.with_armed "durable.write" (fun () -> Store.add store trees.(5)) with
      | exception Fault.Injected _ -> ()
      | _ -> Alcotest.fail "short-write crash did not fire");
      (* kill -9 semantics: no close; reopen from the torn journal *)
      let store2 = ok_or_fail (Store.open_ ~dir ~tau:2 ()) in
      Alcotest.(check int) "torn record dropped, acked prefix kept" 5
        (Store.n_trees store2);
      Array.iteri
        (fun i tree ->
          if i < 5 then
            Alcotest.(check bool) (Printf.sprintf "tree %d survives" i) true
              (Tree.equal tree (Store.tree store2 i)))
        trees;
      (* the retry lands on the seq the torn record wanted *)
      (match Store.add_seq store2 trees.(5) with
      | Ok (5, _) -> ()
      | Ok (id, _) -> Alcotest.failf "retry bound at %d" id
      | Error msg -> Alcotest.fail msg);
      Store.close store2;
      let store3 = ok_or_fail (Store.open_ ~dir ~tau:2 ()) in
      Alcotest.(check int) "all six after the retry" 6 (Store.n_trees store3);
      Alcotest.(check bool) "retried tree durable" true
        (Tree.equal trees.(5) (Store.tree store3 5));
      Store.close store3)

let test_fsync_eio_typed_error () =
  (* An EIO reported by fsync (the "fsyncgate" failure): the add must
     come back as the typed disk-fault error — never a silent ack — and
     the store must stay consistent and writable once the disk heals. *)
  with_store_dir (fun dir ->
      let store = ok_or_fail (Store.open_ ~dir ~tau:2 ()) in
      ignore (Store.add store (t "{a{b}}"));
      let fired = ref false in
      Fault.arm_action "durable.fsync" (fun _ ->
          if not !fired then begin
            fired := true;
            raise
              (Tsj_util.Durable.Disk_fault
                 { Tsj_util.Durable.f_op = `Fsync; f_path = "journal"; f_detail = "EIO" })
          end);
      let r =
        Fun.protect
          ~finally:(fun () -> Fault.disarm "durable.fsync")
          (fun () -> Store.add_seq store ~seq:1 (t "{a{c}}"))
      in
      (match r with
      | Error msg ->
        Alcotest.(check bool) ("typed fault surfaced: " ^ msg) true
          (contains msg "disk fault" && contains msg "fsync")
      | Ok _ -> Alcotest.fail "EIO on fsync was acked");
      Alcotest.(check int) "failed add not visible" 1 (Store.n_trees store);
      (* the journal was repaired in place: the same seq commits now *)
      (match Store.add_seq store ~seq:1 (t "{a{c}}") with
      | Ok (1, _) -> ()
      | Ok (id, _) -> Alcotest.failf "retry bound at %d" id
      | Error msg -> Alcotest.failf "store unusable after repair: %s" msg);
      Store.close store;
      let store2 = ok_or_fail (Store.open_ ~dir ~tau:2 ()) in
      Alcotest.(check int) "both adds durable" 2 (Store.n_trees store2);
      Store.close store2);
  (* the checkpoint writer speaks the same typed error *)
  let st =
    {
      Tsj_join.Checkpoint.fingerprint = "00";
      blocks_done = 0;
      pairs = [];
      quarantined = [];
      n_candidates = 0;
      stage_counts = [||];
      n_probed = 0;
      n_matched = 0;
      n_small_hits = 0;
      n_indexed = 0;
    }
  in
  match Tsj_join.Checkpoint.save ~path:"/nonexistent/dir/cp.journal" st with
  | exception Tsj_util.Durable.Disk_fault { Tsj_util.Durable.f_op = `Write; _ } -> ()
  | exception e -> Alcotest.failf "untyped checkpoint failure: %s" (Printexc.to_string e)
  | () -> Alcotest.fail "checkpoint saved into a nonexistent directory"

let test_failover_backoff_resets_after_rotation () =
  (* Two dead sockets and one live (shedding) server: transport
     failures grow the backoff exponent, but the moment a rotation
     reaches a server that answers at all — even with BUSY — the
     schedule must reset to the base delay instead of keeping the
     accumulated exponent.  With base 0.1 the ranges are disjoint:
     exponent 0 sleeps in [0.05, 0.1], exponent 2 in [0.2, 0.4]. *)
  with_server ~max_inflight:0 (fun addr server ->
      let slept = ref [] in
      let sleep d = slept := d :: !slept in
      let fo =
        Client.Failover.create ~attempts:4 ~base_delay_s:0.1 ~max_delay_s:8.0 ~sleep
          ~rng:(Prng.create 23)
          [
            Protocol.Unix_path "/nonexistent/a.sock";
            Protocol.Unix_path "/nonexistent/b.sock";
            addr;
          ]
      in
      (match Client.Failover.request fo (Protocol.Add { seq = None; tree = t "{a}" }) with
      | Ok (Protocol.Busy _) | Error _ -> ()
      | Ok r -> Alcotest.failf "unexpected reply %s" (Protocol.render_response r));
      (match List.rev !slept with
      | [ s0; s1; s2 ] ->
        let in_range name lo hi d =
          Alcotest.(check bool)
            (Printf.sprintf "%s = %.3f in [%.2f, %.2f]" name d lo hi)
            true
            (d >= lo -. 1e-9 && d <= hi +. 1e-9)
        in
        in_range "first (exponent 0)" 0.05 0.1 s0;
        in_range "second (exponent 1)" 0.1 0.2 s1;
        (* the BUSY answer from the live server resets the schedule:
           without the reset this sleep would be in [0.2, 0.4] *)
        in_range "after a well-formed reply (reset)" 0.05 0.1 s2
      | l -> Alcotest.failf "expected 3 sleeps, got %d" (List.length l));
      ignore server)

let test_client_retries_busy_preserved () =
  (* a persistently shedding server: the retrying client must surface
     BUSY as BUSY (an explicit answer), not as a transport error *)
  with_server ~max_inflight:0 (fun addr server ->
      let rng = Prng.create 5 in
      (match
         Client.request_with_retries ~attempts:3 ~sleep:(fun _ -> ()) ~rng addr
           (Protocol.Add { seq = None; tree = t "{a}" })
       with
      | Ok (Protocol.Busy _) -> ()
      | Ok r -> Alcotest.failf "expected BUSY, got %s" (Protocol.render_response r)
      | Error e -> Alcotest.failf "BUSY masked as error: %s" e);
      ignore server)

(* --- integrity: Merkle digests, seals, scrub, heal, anti-entropy --- *)

module Integrity = Tsj_server.Integrity
module Scrub = Tsj_server.Scrub

(* Property (qcheck): under ANY interleaving of pushes and truncates,
   the incrementally maintained Merkle tree answers root and range
   digests identically to a from-scratch rebuild. *)
let prop_merkle_incremental =
  Gen.qtest ~count:60 "Merkle incremental = recompute under push/truncate"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (3100 + seed) in
      let m = Integrity.Merkle.create () in
      let mirror = ref [] (* newest first *) in
      let steps = 5 + Prng.int rng 40 in
      let ok = ref true in
      for i = 0 to steps - 1 do
        let n = Integrity.Merkle.size m in
        if n > 0 && Prng.int rng 4 = 0 then begin
          let keep = Prng.int rng (n + 1) in
          Integrity.Merkle.truncate m keep;
          let l = List.rev !mirror in
          mirror := List.rev (List.filteri (fun j _ -> j < keep) l)
        end
        else begin
          let line = Printf.sprintf "add %d {x%d} feed" n i in
          Integrity.Merkle.push m line;
          mirror := line :: !mirror
        end;
        let reference = Integrity.Merkle.of_lines (List.rev !mirror) in
        if Integrity.Merkle.root m <> Integrity.Merkle.root reference then
          ok := false;
        let sz = Integrity.Merkle.size m in
        if sz > 0 then begin
          let lo = Prng.int rng sz in
          let hi = lo + 1 + Prng.int rng (sz - lo) in
          if
            Integrity.Merkle.range m ~lo ~hi
            <> Integrity.Merkle.range reference ~lo ~hi
          then ok := false
        end;
        (* recompute must be a no-op on a consistent tree *)
        Integrity.Merkle.recompute m;
        if Integrity.Merkle.root m <> Integrity.Merkle.root reference then
          ok := false
      done;
      !ok)

let test_seal_roundtrip () =
  let path = Filename.temp_file "tsj_seal" ".dat" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove (Integrity.seal_path path) with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc "hello line\n");
      (* never sealed: vacuously clean *)
      (match Integrity.check_seal path with
      | Ok 0 -> ()
      | _ -> Alcotest.fail "unsealed file not vacuously clean");
      Integrity.write_seal path;
      (match Integrity.check_seal path with
      | Ok 11 -> ()
      | Ok n -> Alcotest.failf "sealed %d bytes, expected 11" n
      | Error e -> Alcotest.fail e);
      (* append-only growth keeps the seal valid (prefix coverage) *)
      Out_channel.with_open_gen [ Open_append ] 0o644 path (fun oc ->
          output_string oc "appended\n");
      (match Integrity.check_seal path with
      | Ok 11 -> ()
      | _ -> Alcotest.fail "append invalidated a prefix seal");
      (* rot inside the sealed prefix is caught *)
      Faults.flip_bit path ~bit:18;
      (match Integrity.check_seal path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "rot inside the sealed prefix not caught");
      Faults.flip_bit path ~bit:18;
      (* rot in the seal sidecar itself is caught *)
      Faults.flip_bit (Integrity.seal_path path) ~bit:42;
      match Integrity.check_seal path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "rot in the seal sidecar not caught")

(* a full scrub cycle: two unbounded steps guarantee a cursor wrap *)
let full_scrub store =
  let budget = Store.journal_records store + 1 in
  let a = Store.scrub_step ~budget store in
  let b = Store.scrub_step ~budget store in
  (a.Store.sc_findings @ b.Store.sc_findings, a.Store.sc_repaired + b.Store.sc_repaired)

let test_scrub_detects_and_repairs () =
  with_store_dir (fun dir ->
      let trees = trees_of 311 8 in
      let store = ok_or_fail (Store.open_ ~dir ~tau:2 ()) in
      Array.iter (fun tree -> ignore (Store.add store tree)) trees;
      (* clean store: nothing to find *)
      let clean, _ = full_scrub store in
      Alcotest.(check int) "clean store has no findings" 0 (List.length clean);
      (* a step's work is bounded by its budget, whatever the store size *)
      let step = Store.scrub_step ~budget:3 store in
      Alcotest.(check int) "a budgeted step re-reads at most its budget" 3
        step.Store.sc_verified;
      (* rot one bit mid-journal: detected and repaired in one cycle *)
      let journal = Filename.concat dir "journal" in
      Faults.flip_bit journal ~bit:(8 * ((Unix.stat journal).Unix.st_size / 2));
      let findings, repaired = full_scrub store in
      Alcotest.(check bool) "journal rot detected" true (findings <> []);
      Alcotest.(check bool) "journal rot repaired" true (repaired > 0);
      let clean, _ = full_scrub store in
      Alcotest.(check int) "clean after repair" 0 (List.length clean);
      (* the repair converged disk to memory: a replay agrees *)
      let replayed = ok_or_fail (Store.open_ ~dir ~tau:2 ()) in
      Alcotest.(check int) "replay after repair" 8 (Store.n_trees replayed);
      Store.close replayed;
      (* rot the snapshot (written by the repair flush): the seal is its
         only integrity cover *)
      let snapshot = Filename.concat dir "snapshot" in
      Faults.flip_bit snapshot ~bit:12;
      let findings, repaired = full_scrub store in
      Alcotest.(check bool) "snapshot rot detected" true (findings <> []);
      Alcotest.(check bool) "snapshot rot repaired" true (repaired > 0);
      (* rot the journal's seal sidecar *)
      Faults.flip_bit (Integrity.seal_path journal) ~bit:30;
      let findings, _ = full_scrub store in
      Alcotest.(check bool) "seal rot detected" true (findings <> []);
      let clean, _ = full_scrub store in
      Alcotest.(check int) "clean again" 0 (List.length clean);
      let verified, crc_failures, ranges_repaired, quarantined =
        Store.scrub_counters store
      in
      Alcotest.(check bool) "records verified counted" true (verified > 0);
      Alcotest.(check bool) "crc failures counted" true (crc_failures >= 3);
      Alcotest.(check bool) "repairs counted" true (ranges_repaired >= 3);
      Alcotest.(check int) "nothing quarantined" 0 quarantined;
      Store.close store)

let test_scrub_read_fault_is_finding_not_repair () =
  with_store_dir (fun dir ->
      let store = ok_or_fail (Store.open_ ~dir ~tau:2 ()) in
      Array.iter (fun tree -> ignore (Store.add store tree)) (trees_of 313 4);
      let fired = ref false in
      Fault.arm_action "durable.read" (fun _ ->
          if not !fired then begin
            fired := true;
            raise
              (Tsj_util.Durable.Disk_fault
                 {
                   Tsj_util.Durable.f_op = `Read;
                   f_path = Filename.concat dir "journal";
                   f_detail = "injected EIO";
                 })
          end);
      let r = Store.scrub_step ~budget:8 store in
      Fault.disarm_all ();
      Alcotest.(check bool) "EIO surfaces as a finding" true
        (r.Store.sc_findings <> []);
      Alcotest.(check int) "a failing disk is never repaired over" 0
        r.Store.sc_repaired;
      let clean, _ = full_scrub store in
      Alcotest.(check int) "disk was actually fine" 0 (List.length clean);
      Store.close store)

(* corrupt the byte at [frac] of record line [i] (0-based, past the
   epoch header) in [dir]'s journal, without touching anything else *)
let rot_journal_record dir ~record =
  let journal = Filename.concat dir "journal" in
  let text = In_channel.with_open_bin journal In_channel.input_all in
  let rec line_start idx from =
    if idx = 0 then from
    else
      match String.index_from_opt text from '\n' with
      | Some nl -> line_start (idx - 1) (nl + 1)
      | None -> Alcotest.fail "journal shorter than expected"
  in
  (* line 0 is the epoch header *)
  let start = line_start (record + 1) 0 in
  let len =
    match String.index_from_opt text start '\n' with
    | Some nl -> nl - start
    | None -> String.length text - start
  in
  Faults.flip_bit journal ~bit:(8 * (start + (len / 2)))

let test_healing_open_refetches () =
  with_store_dir (fun dir ->
      let trees = trees_of 317 6 in
      let store = ok_or_fail (Store.open_ ~dir ~tau:2 ()) in
      Array.iter (fun tree -> ignore (Store.add store tree)) trees;
      (* primary twin the heal callback fetches canonical records from *)
      let twin = ok_or_fail (Store.open_ ~tau:2 ()) in
      Array.iter (fun tree -> ignore (Store.add twin tree)) trees;
      (* abandon without close (kill -9), rot record 2 of 6 *)
      rot_journal_record dir ~record:2;
      (* without a heal source the open refuses, as before *)
      (match Store.open_ ~dir ~tau:2 () with
      | Ok _ -> Alcotest.fail "mid-journal rot accepted without heal"
      | Error _ -> ());
      let heal seq = Some (Store.record_for twin seq) in
      let healed = ok_or_fail (Store.open_ ~dir ~tau:2 ~heal ()) in
      Alcotest.(check int) "healed open keeps every tree" 6 (Store.n_trees healed);
      Array.iteri
        (fun i tree ->
          Alcotest.(check bool) (Printf.sprintf "tree %d intact" i) true
            (Tree.equal tree (Store.tree healed i)))
        trees;
      let _, crc_failures, repaired, quarantined = Store.scrub_counters healed in
      Alcotest.(check bool) "rot counted" true (crc_failures > 0);
      Alcotest.(check bool) "heal counted as repair" true (repaired > 0);
      Alcotest.(check int) "nothing quarantined" 0 quarantined;
      (* the splice is durable: a plain reopen succeeds *)
      let clean, _ = full_scrub healed in
      Alcotest.(check int) "healed store scrubs clean" 0 (List.length clean);
      Store.close healed;
      let reopened = ok_or_fail (Store.open_ ~dir ~tau:2 ()) in
      Alcotest.(check int) "plain reopen after heal" 6 (Store.n_trees reopened);
      Store.close reopened)

let test_quarantine_open_serves_prefix () =
  with_store_dir (fun dir ->
      let trees = trees_of 331 6 in
      let store = ok_or_fail (Store.open_ ~dir ~tau:2 ()) in
      Array.iter (fun tree -> ignore (Store.add store tree)) trees;
      rot_journal_record dir ~record:3;
      (* healing fails (no source), quarantine mode opens degraded *)
      let heal _ = None in
      let st = ok_or_fail (Store.open_ ~dir ~tau:2 ~heal ~quarantine:true ()) in
      Alcotest.(check int) "surviving prefix served" 3 (Store.n_trees st);
      let _, crc_failures, _, quarantined = Store.scrub_counters st in
      Alcotest.(check bool) "rot counted" true (crc_failures > 0);
      Alcotest.(check int) "rotted suffix quarantined" 3 quarantined;
      Alcotest.(check bool) "quarantine file holds the moved-aside records"
        true
        (Sys.file_exists (Filename.concat dir "journal.quarantine"));
      (* degraded is still consistent: scrubs clean, serves the prefix *)
      let clean, _ = full_scrub st in
      Alcotest.(check int) "quarantined store scrubs clean" 0 (List.length clean);
      Array.iteri
        (fun i tree ->
          if i < 3 then
            Alcotest.(check bool) (Printf.sprintf "tree %d intact" i) true
              (Tree.equal tree (Store.tree st i)))
        trees;
      Store.close st)

let test_anti_entropy_transfers_suffix () =
  let trees = trees_of 337 10 in
  let primary = ok_or_fail (Store.open_ ~tau:2 ()) in
  Array.iter (fun tree -> ignore (Store.add primary tree)) trees;
  let n = Store.n_trees primary in
  (* replica shares records [0, 4), then its history diverges *)
  let replica = ok_or_fail (Store.open_ ~tau:2 ()) in
  for i = 0 to 3 do
    ignore (Store.add replica trees.(i))
  done;
  ignore (ok_or_fail (Store.add_seq replica (t "{z{z}{z}}")));
  let probes = ref 0 in
  let digest ~lo ~hi =
    incr probes;
    Ok (Store.digest primary ~lo ~hi)
  in
  let fetch seq = Ok (Store.record_for primary seq) in
  (match Scrub.anti_entropy ~local:replica ~remote_n:n ~digest ~fetch with
  | Error e -> Alcotest.fail e
  | Ok transferred ->
    Alcotest.(check int) "transfers exactly the diverging suffix" (n - 4)
      transferred);
  Alcotest.(check bool)
    (Printf.sprintf "O(log n) digest probes (%d)" !probes)
    true
    (!probes <= 10);
  Alcotest.(check int) "replica converged" n (Store.n_trees replica);
  Array.iteri
    (fun i tree ->
      Alcotest.(check bool) (Printf.sprintf "record %d converged" i) true
        (Tree.equal tree (Store.tree replica i)))
    trees;
  Alcotest.(check string) "Merkle roots agree" (Store.merkle_root primary)
    (Store.merkle_root replica);
  let _, _, repaired, _ = Store.scrub_counters replica in
  Alcotest.(check bool) "range repair credited" true (repaired > 0);
  (* an already-converged pair transfers nothing *)
  match Scrub.anti_entropy ~local:replica ~remote_n:n ~digest ~fetch with
  | Ok 0 -> ()
  | Ok k -> Alcotest.failf "idempotent repair moved %d records" k
  | Error e -> Alcotest.fail e

let test_digest_wire_verb () =
  with_store_dir (fun dir ->
      with_server ~dir (fun addr server ->
          let conn = ok_or_fail (Client.connect addr) in
          List.iter
            (fun s -> ignore (request conn (Protocol.Add { seq = None; tree = t s })))
            [ "{a{b}{c}}"; "{a{b}{d}}"; "{x{y{z}}}" ];
          let store = Server.store server in
          (match request conn (Protocol.Digest { epoch = 0; lo = 0; hi = 3 }) with
          | Protocol.Digest_reply { epoch = 0; lo = 0; hi = 3; digest } ->
            Alcotest.(check string) "digest matches the store's Merkle range"
              (Store.digest store ~lo:0 ~hi:3)
              digest
          | r -> Alcotest.failf "bad DIGEST reply %s" (Protocol.render_response r));
          (* a stale epoch is fenced, an overlong range is an error *)
          (match request conn (Protocol.Digest { epoch = 7; lo = 0; hi = 1 }) with
          | Protocol.Fenced _ -> ()
          | r -> Alcotest.failf "stale epoch answered %s" (Protocol.render_response r));
          (match request conn (Protocol.Digest { epoch = 0; lo = 0; hi = 99 }) with
          | Protocol.Err _ -> ()
          | r ->
            Alcotest.failf "out-of-range DIGEST answered %s"
              (Protocol.render_response r));
          (* STATS carries the scrub counters over the wire *)
          match request conn Protocol.Stats with
          | Protocol.Stats_reply { crc_failures = 0; repaired = 0; _ } -> ()
          | r -> Alcotest.failf "bad STATS %s" (Protocol.render_response r)))

let test_server_background_scrubber () =
  with_store_dir (fun dir ->
      let sock = Filename.temp_file "tsj_sock" "" in
      Sys.remove sock;
      let addr = Protocol.Unix_path sock in
      let config =
        { (Server.default_config addr ~tau:2) with
          Server.dir = Some dir;
          scrub_interval_s = Some 0.05;
          scrub_budget = 64;
          drain_budget_s = 5.0 }
      in
      let server = ok_or_fail (Server.create config) in
      Server.start server;
      Fun.protect
        ~finally:(fun () ->
          Server.drain server;
          Server.wait server;
          if Sys.file_exists sock then Sys.remove sock)
        (fun () ->
          let conn = ok_or_fail (Client.connect addr) in
          List.iter
            (fun s -> ignore (request conn (Protocol.Add { seq = None; tree = t s })))
            [ "{a{b}{c}}"; "{a{b}{d}}"; "{x{y{z}}}"; "{p{q}}" ];
          (* on the healthy store the scrubber runs and finds nothing *)
          eventually "a healthy scrub pass" (fun () ->
              (stats_of conn).Protocol.scrubbed > 0);
          Alcotest.(check int) "healthy store: no crc failures" 0
            (stats_of conn).Protocol.crc_failures;
          (* rot the live journal under the running server: the
             background scrubber must detect and repair it *)
          let journal = Filename.concat dir "journal" in
          Faults.flip_bit journal ~bit:(8 * ((Unix.stat journal).Unix.st_size / 2));
          let deadline = Unix.gettimeofday () +. 10.0 in
          let repaired () =
            match request conn Protocol.Stats with
            | Protocol.Stats_reply { crc_failures; repaired; _ } ->
              crc_failures > 0 && repaired > 0
            | _ -> false
          in
          while (not (repaired ())) && Unix.gettimeofday () < deadline do
            Thread.delay 0.05
          done;
          Alcotest.(check bool) "background scrub detected and repaired rot" true
            (repaired ());
          (* serving was never wrong while the disk rotted *)
          match request conn (Protocol.Query { tau = 1; tree = t "{a{b}{c}}" }) with
          | Protocol.Hits { degraded = false; hits; _ } ->
            Alcotest.(check (list (pair int int))) "answers unaffected by rot"
              [ (0, 0); (1, 1) ]
              hits
          | r -> Alcotest.failf "bad query reply %s" (Protocol.render_response r)))

let test_scrub_storm () =
  let trees = trees_of 83 20 in
  let queries = trees_of 84 4 in
  let r = Faults.run_scrub_storm ~seed:911 ~rounds:30 ~trees ~queries ~tau:2 () in
  Alcotest.(check bool) "flips injected" true (r.Faults.sb_flips > 0);
  Alcotest.(check bool) "every corruption detected" true r.Faults.sb_all_detected;
  Alcotest.(check int) "zero wrong answers" 0 r.Faults.sb_wrong_answers;
  Alcotest.(check bool) "repairs applied" true
    (r.Faults.sb_scrub_repairs + r.Faults.sb_healed + r.Faults.sb_quarantined > 0);
  Alcotest.(check bool) "anti-entropy moved only the differing ranges" true
    r.Faults.sb_transfer_frugal;
  Alcotest.(check bool) "converged" true r.Faults.sb_converged

(* A fixed storm over realistic trees (seed 42, 24 swissprot trees,
   the first one the probe query): anti-entropy re-sends exactly the
   110 records that differ, where full re-syncs at the same calls
   would move 488. *)
let test_scrub_storm_resends_only_differing_range () =
  let trees = Tsj_datagen.Profiles.(instantiate swissprot ~seed:73 ~n:24) in
  let queries = Array.sub trees 0 1 in
  let r = Faults.run_scrub_storm ~seed:42 ~rounds:30 ~trees ~queries ~tau:2 () in
  Alcotest.(check bool) "exact per anti-entropy call" true r.Faults.sb_transfer_frugal;
  Alcotest.(check (pair int int)) "records re-sent / full re-sync cost" (110, 488)
    (r.Faults.sb_transferred, r.Faults.sb_full_resync_cost);
  Alcotest.(check bool) "every corruption detected" true r.Faults.sb_all_detected;
  Alcotest.(check int) "zero wrong answers" 0 r.Faults.sb_wrong_answers;
  Alcotest.(check bool) "converged" true r.Faults.sb_converged

(* Every injected corruption is detected, no answer is ever wrong,
   every anti-entropy call transfers exactly the diverging suffix, and
   the stores converge. *)
let scrub_storm_holds seed =
  let rng = Prng.create (9300 + seed) in
  let trees = Array.init 10 (fun _ -> Gen.random_tree rng (3 + Prng.int rng 8)) in
  let queries = Array.init 2 (fun _ -> Gen.random_tree rng (3 + Prng.int rng 8)) in
  let r = Faults.run_scrub_storm ~seed ~rounds:8 ~trees ~queries ~tau:2 () in
  r.Faults.sb_all_detected
  && r.Faults.sb_wrong_answers = 0
  && r.Faults.sb_transfer_frugal && r.Faults.sb_converged

(* Property (qcheck): the invariants hold at ANY random bit-rot
   schedule. *)
let prop_scrub_storm =
  Gen.qtest ~count:10 "scrub storm invariants under random seeds"
    QCheck.(int_bound 100_000)
    scrub_storm_holds

(* Seeds whose quarantine reopen moved the replica's whole journal
   aside, so anti-entropy had to refill it from empty (a full re-sync
   is then the exact repair).  A summed "less than a full re-sync"
   check used to fail on them. *)
let test_scrub_storm_pinned_seeds () =
  List.iter
    (fun seed ->
      Alcotest.(check bool) (Printf.sprintf "scrub storm invariants (seed %d)" seed) true
        (scrub_storm_holds seed))
    [ 80; 112; 236; 239; 277; 297 ]

(* --- overload robustness: deadlines, fair admission, hygiene --- *)

module Admission = Tsj_server.Admission

let test_deadline_expired_on_wire () =
  with_server (fun addr server ->
      ignore server;
      let conn = ok_or_fail (Client.connect addr) in
      ignore (request conn (Protocol.Add { seq = None; tree = t "{a{b}}" }));
      let ((fd, _, _) as raw) = raw_connect addr in
      (* a budget that is already spent: answered ERR, never a hang or a
         silent drop *)
      (match Protocol.parse_response (raw_request raw "QUERY 1 @0 {a{b}}") with
      | Ok (Protocol.Err reason) ->
        Alcotest.(check string) "expired reason" "deadline expired" reason
      | Ok r -> Alcotest.failf "expected ERR, got %s" (Protocol.render_response r)
      | Error e -> Alcotest.fail e);
      (* an expired ADD is refused before it reaches the journal *)
      (match Protocol.parse_response (raw_request raw "ADD @0 {z}") with
      | Ok (Protocol.Err _) -> ()
      | Ok r -> Alcotest.failf "expected ERR, got %s" (Protocol.render_response r)
      | Error e -> Alcotest.fail e);
      (* a generous budget answers normally *)
      (match Protocol.parse_response (raw_request raw "QUERY 1 @60000 {a{b}}") with
      | Ok (Protocol.Hits { hits; _ }) ->
        Alcotest.(check bool) "budgeted query answers" true (List.mem_assoc 0 hits)
      | Ok r -> Alcotest.failf "expected HITS, got %s" (Protocol.render_response r)
      | Error e -> Alcotest.fail e);
      (match request conn Protocol.Stats with
      | Protocol.Stats_reply s ->
        Alcotest.(check int) "expired counted" 2 s.Protocol.expired;
        Alcotest.(check int) "expired ADD never indexed" 1 s.Protocol.trees
      | r -> Alcotest.failf "bad stats: %s" (Protocol.render_response r));
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Client.close conn)

let test_stats_latency_quantiles () =
  with_server (fun addr server ->
      ignore server;
      let conn = ok_or_fail (Client.connect addr) in
      List.iter
        (fun s -> ignore (request conn (Protocol.Add { seq = None; tree = t s })))
        [ "{a{b}}"; "{a{c}}"; "{d}" ];
      for _ = 1 to 5 do
        ignore (request conn (Protocol.Query { tau = 1; tree = t "{a{b}}" }))
      done;
      ignore (request conn (Protocol.Knn { k = 2; tree = t "{a{b}}" }));
      (match request conn Protocol.Stats with
      | Protocol.Stats_reply s ->
        Alcotest.(check bool) "query p50 measured" true (s.Protocol.q_p50 >= 1);
        Alcotest.(check bool) "query quantiles monotone" true
          (s.Protocol.q_p50 <= s.Protocol.q_p95
          && s.Protocol.q_p95 <= s.Protocol.q_p99);
        Alcotest.(check bool) "knn p99 measured" true (s.Protocol.k_p99 >= 1);
        Alcotest.(check bool) "add p50 measured" true (s.Protocol.a_p50 >= 1);
        Alcotest.(check bool) "add quantiles monotone" true
          (s.Protocol.a_p50 <= s.Protocol.a_p95
          && s.Protocol.a_p95 <= s.Protocol.a_p99)
      | r -> Alcotest.failf "bad stats: %s" (Protocol.render_response r));
      (* the binary STATS frame carries the same counters *)
      let bin = bin_connect addr in
      let sid = Client.Bin.send bin Protocol.Stats in
      Client.Bin.flush bin;
      (match Client.Bin.recv bin with
      | Ok (id, Protocol.Stats_reply s) ->
        Alcotest.(check int) "stats id echoed" sid id;
        Alcotest.(check bool) "binary stats carries quantiles" true
          (s.Protocol.q_p50 >= 1 && s.Protocol.q_p50 <= s.Protocol.q_p99)
      | Ok (_, r) ->
        Alcotest.failf "bad binary stats: %s" (Protocol.render_response r)
      | Error e -> Alcotest.fail e);
      Client.Bin.close bin;
      Client.close conn)

let test_busy_retry_after_hint () =
  (* one token, refilled five times a second: the first query is
     admitted, the immediate follow-up is shed with a concrete hint *)
  with_server ~rate:5.0 ~burst:1 (fun addr server ->
      ignore server;
      let conn = ok_or_fail (Client.connect addr) in
      (match request conn (Protocol.Query { tau = 1; tree = t "{a}" }) with
      | Protocol.Hits _ -> ()
      | r -> Alcotest.failf "first query shed: %s" (Protocol.render_response r));
      (match request conn (Protocol.Query { tau = 1; tree = t "{a}" }) with
      | Protocol.Busy { retry_after_ms = Some ms } ->
        Alcotest.(check bool) "hint positive" true (ms >= 1);
        Alcotest.(check bool) "hint bounded by the refill period" true (ms <= 200)
      | Protocol.Busy { retry_after_ms = None } ->
        Alcotest.fail "BUSY without a retry-after hint"
      | r -> Alcotest.failf "expected BUSY, got %s" (Protocol.render_response r));
      (* waiting out the hint earns a token back *)
      Thread.delay 0.25;
      (match request conn (Protocol.Query { tau = 1; tree = t "{a}" }) with
      | Protocol.Hits _ -> ()
      | r -> Alcotest.failf "token did not refill: %s" (Protocol.render_response r));
      Client.close conn)

let test_idle_connection_reaped () =
  with_server ~idle_timeout_s:0.1 (fun addr server ->
      let idle = ok_or_fail (Client.connect addr) in
      let deadline = Unix.gettimeofday () +. 5.0 in
      let reaped () = (Server.stats server).Protocol.reaped >= 1 in
      while (not (reaped ())) && Unix.gettimeofday () < deadline do
        Thread.delay 0.02
      done;
      Alcotest.(check bool) "idle connection reaped" true (reaped ());
      (* the reaped connection is really gone *)
      (match Client.request idle Protocol.Health with
      | Error _ -> ()
      | Ok _ -> (
        (* the first request may race the close; a second must fail *)
        match Client.request idle Protocol.Health with
        | Error _ -> ()
        | Ok r ->
          Alcotest.failf "reaped conn served: %s" (Protocol.render_response r)));
      Client.close idle;
      (* a fresh connection is untouched *)
      let live = ok_or_fail (Client.connect addr) in
      (match request live Protocol.Health with
      | Protocol.Health_reply _ -> ()
      | r -> Alcotest.failf "server dead after reap: %s" (Protocol.render_response r));
      Client.close live)

let test_max_conns_cap () =
  with_server ~max_conns:1 (fun addr server ->
      let first = ok_or_fail (Client.connect addr) in
      (match request first Protocol.Health with
      | Protocol.Health_reply _ -> ()
      | r -> Alcotest.failf "first conn refused: %s" (Protocol.render_response r));
      (* the connection over the cap is accepted and immediately closed *)
      (match Client.connect ~timeout_s:1.0 addr with
      | Error _ -> ()
      | Ok extra -> (
        (match Client.request extra Protocol.Health with
        | Error _ -> ()
        | Ok r ->
          Alcotest.failf "over-cap conn served: %s" (Protocol.render_response r));
        Client.close extra));
      (* the admitted connection is still served *)
      (match request first Protocol.Health with
      | Protocol.Health_reply _ -> ()
      | r -> Alcotest.failf "first conn dead: %s" (Protocol.render_response r));
      Alcotest.(check bool) "over-cap close counted" true
        ((Server.stats server).Protocol.reaped >= 1);
      Client.close first)

let test_emfile_accept_pause () =
  with_server (fun addr server ->
      Fault.arm_action "server.emfile" (fun _ ->
          raise (Unix.Unix_error (Unix.EMFILE, "accept", "")));
      (* the OS backlog takes the connection; the paused server cannot *)
      let pending = Client.connect ~timeout_s:5.0 addr in
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        (Server.stats server).Protocol.accept_pauses = 0
        && Unix.gettimeofday () < deadline
      do
        Thread.delay 0.02
      done;
      Fault.disarm "server.emfile";
      Alcotest.(check bool) "accept pause counted" true
        ((Server.stats server).Protocol.accept_pauses >= 1);
      (* once fds are back, the backlogged connection is served *)
      match pending with
      | Error e -> Alcotest.failf "backlogged connect failed: %s" e
      | Ok c -> (
        (match Client.request c Protocol.Health with
        | Ok (Protocol.Health_reply _) -> ()
        | Ok r -> Alcotest.failf "bad health: %s" (Protocol.render_response r)
        | Error e ->
          Alcotest.failf "backlogged conn dead after recovery: %s" e);
        Client.close c))

let test_overload_storm () =
  let trees = trees_of 91 16 in
  let queries = trees_of 92 4 in
  let r =
    Faults.run_overload_storm ~seed:1055 ~duration_s:0.8 ~greedy:2 ~trees
      ~queries ~tau:2 ()
  in
  Alcotest.(check bool) "greedy load dwarfs the conforming load" true
    (r.Faults.ov_greedy_sent > r.Faults.ov_conforming_sent);
  Alcotest.(check bool) "goodput held" true r.Faults.ov_goodput_ok;
  Alcotest.(check bool) "conforming client not starved" true
    r.Faults.ov_no_starvation;
  Alcotest.(check int) "conforming client never shed" 0
    r.Faults.ov_conforming_shed;
  Alcotest.(check bool) "greedy excess shed" true (r.Faults.ov_greedy_shed > 0);
  Alcotest.(check int) "no late answers" 0 r.Faults.ov_late_answers;
  Alcotest.(check int) "no wrong answers" 0 r.Faults.ov_wrong_answers;
  Alcotest.(check int) "hedge-raced answers identical" 0
    r.Faults.ov_hedge_mismatches;
  Alcotest.(check bool) "idle connection reaped" true (r.Faults.ov_reaped >= 1);
  Alcotest.(check bool) "expired ADD refused" true r.Faults.ov_expired_add_rejected;
  Alcotest.(check bool) "store unchanged by the expired ADD" true
    r.Faults.ov_trees_stable

(* Property (qcheck): a client that spaces its requests at (or above)
   its bucket's refill period is NEVER shed, whatever the rate, burst
   and jitter — fair admission cannot starve a conforming client. *)
let prop_token_bucket_no_starvation =
  Gen.qtest ~count:300 "token bucket never starves a conforming client"
    QCheck.(triple (int_range 1 1000) (int_range 1 64) (int_bound 10_000))
    (fun (rate_x10, burst, seed) ->
      let rate = float_of_int rate_x10 /. 10. in
      let rng = Prng.create (31 + seed) in
      let clock = ref 1.0 in
      let b = Admission.Token_bucket.create ~rate ~burst ~now:!clock in
      let ok = ref true in
      for _ = 1 to 100 do
        (* spacing strictly above the refill period is conforming *)
        let jitter = float_of_int (1 + Prng.int rng 1000) /. 1000. in
        clock := !clock +. ((1. +. jitter) /. rate);
        if not (Admission.Token_bucket.take b ~now:!clock) then ok := false
      done;
      !ok)

(* Property (qcheck): folding [Deadline.after_hop] over ANY chain of
   hops (random elapsed times and response margins) yields a budget
   that is monotonically non-increasing and never negative. *)
let prop_deadline_monotone =
  Gen.qtest ~count:300 "propagated deadlines never grow"
    QCheck.(
      pair (int_bound 5_000_000)
        (small_list (pair (int_bound 10_000) (int_bound 1_000))))
    (fun (d0, hops) ->
      let d = ref (Admission.Deadline.clamp d0) in
      !d >= 0
      && List.for_all
           (fun (elapsed_ms, margin_ms) ->
             let d' = Admission.Deadline.after_hop ~margin_ms ~elapsed_ms !d in
             let ok = d' <= !d && d' >= 0 in
             d := d';
             ok)
           hops)

(* --- whole-tree dedup ([Store.open_ ~dedup:true]) --- *)

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
  let a' = Gen.deep_copy a in
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

let suite =
  [
    Alcotest.test_case "addr parse" `Quick test_addr_parse;
    Alcotest.test_case "request round trip" `Quick test_request_roundtrip;
    Alcotest.test_case "response round trip" `Quick test_response_roundtrip;
    Alcotest.test_case "store persistence" `Quick test_store_persistence;
    Alcotest.test_case "store rejects mid-journal corruption" `Quick
      test_store_corrupt_journal_rejected;
    Alcotest.test_case "store rejects seq gaps" `Quick test_store_seq_gap_rejected;
    Alcotest.test_case "kill and restart" `Quick test_kill_and_restart;
    Alcotest.test_case "kill and restart with torn tail" `Quick
      test_kill_and_restart_torn_tail;
    prop_restart_deterministic;
    Alcotest.test_case "server end to end" `Quick test_server_end_to_end;
    Alcotest.test_case "server isolates malformed connections" `Quick
      test_server_malformed_isolation;
    Alcotest.test_case "server isolates injected request faults" `Quick
      test_server_injected_request_fault_isolation;
    Alcotest.test_case "server sheds with BUSY at the watermark" `Quick
      test_server_admission_busy;
    Alcotest.test_case "server degrades over-deadline queries" `Quick
      test_server_deadline_degrades;
    Alcotest.test_case "server drain flushes snapshot + journal" `Quick
      test_server_drain_flushes;
    Alcotest.test_case "server survives accept faults" `Quick
      test_server_accept_fault_drops_one_connection;
    Alcotest.test_case "replication protocol round trip" `Quick
      test_replication_protocol_roundtrip;
    Alcotest.test_case "replicated cluster end to end" `Quick
      test_replicated_cluster_end_to_end;
    Alcotest.test_case "replica torn-tail catch-up" `Quick
      test_replica_torn_tail_catchup;
    Alcotest.test_case "failover storm" `Quick test_failover_storm;
    prop_failover_storm;
    Alcotest.test_case "binary HELLO negotiation and pipelining" `Quick
      test_binary_hello_and_pipelining;
    Alcotest.test_case "binary ADDs group-commit into batched fsyncs" `Quick
      test_binary_group_commit_fsyncs;
    Alcotest.test_case "group-commit crash recovers the acked prefix" `Quick
      test_group_commit_crash_recovers_acked_prefix;
    Alcotest.test_case "bounded-staleness reads answer or redirect" `Quick
      test_bounded_staleness_reads;
    Alcotest.test_case "client backoff deterministic" `Quick
      test_client_backoff_deterministic;
    Alcotest.test_case "client backoff capped by the deadline" `Quick
      test_client_backoff_deadline_cap;
    Alcotest.test_case "client with_retries" `Quick test_client_with_retries;
    Alcotest.test_case "client preserves BUSY" `Quick test_client_retries_busy_preserved;
    Alcotest.test_case "short-write crash recovers the acked prefix" `Quick
      test_short_write_crash_recovers;
    Alcotest.test_case "fsync EIO surfaces as a typed disk fault" `Quick
      test_fsync_eio_typed_error;
    Alcotest.test_case "failover backoff resets after a live rotation" `Quick
      test_failover_backoff_resets_after_rotation;
    prop_merkle_incremental;
    Alcotest.test_case "seal round trip" `Quick test_seal_roundtrip;
    Alcotest.test_case "scrub detects and repairs rot" `Quick
      test_scrub_detects_and_repairs;
    Alcotest.test_case "scrub read fault is a finding, not a repair" `Quick
      test_scrub_read_fault_is_finding_not_repair;
    Alcotest.test_case "healing open refetches rotted records" `Quick
      test_healing_open_refetches;
    Alcotest.test_case "quarantine open serves the surviving prefix" `Quick
      test_quarantine_open_serves_prefix;
    Alcotest.test_case "anti-entropy transfers only the diverging suffix" `Quick
      test_anti_entropy_transfers_suffix;
    Alcotest.test_case "DIGEST wire verb" `Quick test_digest_wire_verb;
    Alcotest.test_case "background scrubber repairs live rot" `Quick
      test_server_background_scrubber;
    Alcotest.test_case "scrub storm" `Quick test_scrub_storm;
    prop_scrub_storm;
    Alcotest.test_case "expired deadlines answered ERR on the wire" `Quick
      test_deadline_expired_on_wire;
    Alcotest.test_case "STATS latency quantiles (text and binary)" `Quick
      test_stats_latency_quantiles;
    Alcotest.test_case "BUSY carries a retry-after hint" `Quick
      test_busy_retry_after_hint;
    Alcotest.test_case "idle connections reaped" `Quick
      test_idle_connection_reaped;
    Alcotest.test_case "connection cap closes the overflow" `Quick
      test_max_conns_cap;
    Alcotest.test_case "EMFILE pauses accepts, then recovers" `Quick
      test_emfile_accept_pause;
    Alcotest.test_case "overload storm" `Slow test_overload_storm;
    prop_token_bucket_no_starvation;
    prop_deadline_monotone;
    Alcotest.test_case "concurrent lock-step text clients all answered" `Quick
      test_concurrent_text_clients;
    Alcotest.test_case "failover after kill -9 (failover client, binary frames)" `Quick
      test_failover_after_kill;
    Alcotest.test_case "scrub storm pinned seeds" `Quick test_scrub_storm_pinned_seeds;
    Alcotest.test_case "anti-entropy re-sends only the differing range" `Quick
      test_scrub_storm_resends_only_differing_range;
    Alcotest.test_case "store snapshot golden format" `Quick test_store_snapshot_golden;
    Alcotest.test_case "refused SYNC answered on its connection" `Quick
      test_sync_refusal_answered;
    Alcotest.test_case "serve_sync refusals leave the transport open" `Quick
      test_serve_sync_refusals_leave_transport_open;
    prop_frames_are_text_lines;
    Alcotest.test_case "request lines parse and render as the reference" `Quick
      test_request_lines_match_reference;
    Alcotest.test_case "retired HELLO versions refused, connection stays text" `Quick
      test_binary_hello_versions;
    Alcotest.test_case "text lines and frames answer one script alike" `Quick
      test_text_and_frames_agree;
    Alcotest.test_case "ADD refuses a label with a line break" `Quick
      test_add_refuses_line_break_labels;
    Alcotest.test_case "store dedup = duplicate-free store" `Quick
      test_store_dedup_equivalence;
    Alcotest.test_case "store dedup within one batch" `Quick
      test_store_dedup_within_batch;
    Alcotest.test_case "served KNN under a spent budget covers the k nearest" `Quick
      test_server_knn_spent_budget;
    Alcotest.test_case "inline read leaves HEALTH answered within the budget" `Slow
      test_inline_read_liveness;
    Alcotest.test_case "drain cancels the in-flight inline read" `Slow
      test_drain_cancels_inline_read;
  ]
