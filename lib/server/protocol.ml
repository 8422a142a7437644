module Tree = Tsj_tree.Tree
module Bracket = Tsj_tree.Bracket

(* --- addresses --- *)

type addr = Unix_path of string | Tcp of string * int

let addr_of_string s =
  let s = String.trim s in
  if s = "" then Error "empty address"
  else if String.contains s '/' || not (String.contains s ':') then Ok (Unix_path s)
  else begin
    let i = String.rindex s ':' in
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 ->
      Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
    | _ -> Error (Printf.sprintf "bad port %S in address %S" port s)
  end

let addr_to_string = function
  | Unix_path p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

(* --- requests --- *)

type request =
  | Query of { tau : int; tree : Tree.t }
  | Knn of { k : int; tree : Tree.t }
  | Add of { seq : int option; tree : Tree.t }
  | Stats
  | Health
  | Drain
  | Sync of { epoch : int; from_seq : int }
  | Ack of int
  | Get of int
  | Digest of { epoch : int; lo : int; hi : int }
  | Promote

let max_deadline_ms = Admission.Deadline.max_ms

(* [String.trim]'s whitespace. *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* A request line is read in place, as the trimmed span [lo, hi) of
   [line]: a word ends at the first ' ', and the rest starts after the
   blanks that follow it.  This cuts the words [String.trim] and
   [String.index ' '] would, and the tree is parsed from the line at its
   offset, not from a copy. *)
let parse_request_d line =
  let ( let* ) = Result.bind in
  let len = String.length line in
  let rec skip i hi = if i < hi && is_blank line.[i] then skip (i + 1) hi else i in
  let lo = skip 0 len in
  let rec back j = if j > lo && is_blank line.[j - 1] then back (j - 1) else j in
  let hi = back len in
  let rec word_end i = if i < hi && line.[i] <> ' ' then word_end (i + 1) else i in
  let next e = if e < hi then skip (e + 1) hi else hi in
  let sub a b = String.sub line a (b - a) in
  (* The optional tokens between a work verb's arguments and its tree:
     "~<n>", the staleness bound (QUERY/KNN), then "@<ms>", the
     remaining budget (QUERY/KNN/ADD).  A bracket tree starts with '{',
     so neither can be mistaken for one.  A malformed token is a hard
     parse error naming the verb and the token — never silently taken as
     part of the tree, which would only yield a confusing bracket
     diagnostic. *)
  let token what ~sigil ~name ~unit ~cap i =
    if i < hi && line.[i] = sigil then begin
      let e = word_end i in
      match int_of_string_opt (sub (i + 1) e) with
      | Some n when n >= 0 -> Ok (Some (min n cap), next e)
      | _ ->
        Error
          (Printf.sprintf "%s: bad %s token %S (expected %c<%s>)" what name (sub i e) sigil
             unit)
    end
    else Ok (None, i)
  in
  let deadline what =
    token what ~sigil:'@' ~name:"deadline" ~unit:"milliseconds" ~cap:max_deadline_ms
  in
  let tree what i =
    if i = hi then Error (what ^ ": missing tree")
    else
      Result.map_error
        (fun msg -> what ^ ": " ^ msg)
        (Bracket.of_substring line ~pos:i ~len:(hi - i))
  in
  (* A request whose integer argument fails to parse, whose tree is
     malformed (diagnosed by the located bracket parser) or whose verb
     is unknown yields [Error reason] — never an exception.  The server
     turns the reason into an [ERR] reply.  The result carries the
     staleness bound and the remaining-budget deadline, when present. *)
  let read what i k =
    let e = word_end i in
    match int_of_string_opt (sub i e) with
    | None -> Error (Printf.sprintf "%s: expected an integer, found %S" what (sub i e))
    | Some n ->
      let* lag, i =
        token what ~sigil:'~' ~name:"staleness" ~unit:"records" ~cap:max_int (next e)
      in
      let* deadline, i = deadline what i in
      let* tree = tree what i in
      let* req = k n tree in
      Ok (req, lag, deadline)
  in
  let e = word_end lo in
  let verb = sub lo e and rest = next e in
  match String.uppercase_ascii verb with
  | "QUERY" ->
    read "QUERY" rest (fun tau tree ->
        if tau < 0 then Error "QUERY: negative threshold" else Ok (Query { tau; tree }))
  | "KNN" ->
    read "KNN" rest (fun k tree ->
        if k < 0 then Error "KNN: negative k" else Ok (Knn { k; tree }))
  | "ADD" ->
    (* An optional client-chosen sequence number precedes the (optional)
       deadline token and the tree; a bracket tree cannot start with a
       digit, so the forms are unambiguous.  See the idempotency
       contract in the interface. *)
    let e = word_end rest in
    let* seq, rest =
      match int_of_string_opt (sub rest e) with
      | Some seq when seq < 0 -> Error "ADD: negative sequence number"
      | Some seq -> Ok (Some seq, next e)
      | None -> Ok (None, rest)
    in
    let* deadline, rest = deadline "ADD" rest in
    let* tree = tree "ADD" rest in
    Ok (Add { seq; tree }, None, deadline)
  | "SYNC" -> (
    match String.split_on_char ' ' (sub rest hi) with
    | [ e; s ] -> (
      match (int_of_string_opt e, int_of_string_opt s) with
      | Some epoch, Some from_seq when epoch >= 0 && from_seq >= 0 ->
        Ok (Sync { epoch; from_seq }, None, None)
      | _ -> Error "SYNC: expected two non-negative integers")
    | _ -> Error "SYNC: expected <epoch> <from_seq>")
  | "ACKED" -> (
    match int_of_string_opt (sub rest hi) with
    | Some seq when seq >= 0 -> Ok (Ack seq, None, None)
    | _ -> Error "ACKED: expected a non-negative integer")
  | "GET" -> (
    match int_of_string_opt (sub rest hi) with
    | Some seq when seq >= 0 -> Ok (Get seq, None, None)
    | _ -> Error "GET: expected a non-negative sequence number")
  | "DIGEST" -> (
    match String.split_on_char ' ' (sub rest hi) with
    | [ e; lo; hi ] -> (
      match (int_of_string_opt e, int_of_string_opt lo, int_of_string_opt hi) with
      | Some epoch, Some lo, Some hi when epoch >= 0 && 0 <= lo && lo <= hi ->
        Ok (Digest { epoch; lo; hi }, None, None)
      | _ -> Error "DIGEST: expected <epoch> <lo> <hi> with 0 <= lo <= hi")
    | _ -> Error "DIGEST: expected <epoch> <lo> <hi>")
  | "STATS" when rest = hi -> Ok (Stats, None, None)
  | "HEALTH" when rest = hi -> Ok (Health, None, None)
  | "DRAIN" when rest = hi -> Ok (Drain, None, None)
  | "PROMOTE" when rest = hi -> Ok (Promote, None, None)
  | ("STATS" | "HEALTH" | "DRAIN" | "PROMOTE") as v ->
    Error (Printf.sprintf "%s takes no arguments" v)
  | "" -> Error "empty request"
  | other ->
    Error
      (Printf.sprintf
         "unknown command %S (expected QUERY, KNN, ADD, GET, DIGEST, STATS, HEALTH, \
          DRAIN, SYNC, ACKED or PROMOTE)"
         other)

let parse_request line =
  match parse_request_d line with Ok (req, _, _) -> Ok req | Error _ as e -> e

let render_request_d ?max_lag ?deadline_ms req =
  let b = Buffer.create 512 in
  let str = Buffer.add_string b and chr = Buffer.add_char b in
  let int n = str (string_of_int n) in
  let token sigil = Option.iter (fun n -> chr sigil; int n; chr ' ') in
  let lag () = token '~' (Option.map (max 0) max_lag) in
  let deadline () =
    token '@' (Option.map (fun ms -> max 0 (min ms max_deadline_ms)) deadline_ms)
  in
  let work verb n tree =
    str verb;
    int n;
    chr ' ';
    lag ();
    deadline ();
    Bracket.to_buffer b tree
  in
  (match req with
  | Query { tau; tree } -> work "QUERY " tau tree
  | Knn { k; tree } -> work "KNN " k tree
  | Add { seq; tree } ->
    str "ADD ";
    Option.iter (fun seq -> int seq; chr ' ') seq;
    deadline ();
    Bracket.to_buffer b tree
  | Stats -> str "STATS"
  | Health -> str "HEALTH"
  | Drain -> str "DRAIN"
  | Sync { epoch; from_seq } -> str "SYNC "; int epoch; chr ' '; int from_seq
  | Ack seq -> str "ACKED "; int seq
  | Get seq -> str "GET "; int seq
  | Digest { epoch; lo; hi } -> str "DIGEST "; int epoch; chr ' '; int lo; chr ' '; int hi
  | Promote -> str "PROMOTE");
  Buffer.contents b

let render_request req = render_request_d req

(* --- responses --- *)

type stats_reply = {
  trees : int;
  tau : int;
  queries : int;
  adds : int;
  shed : int;
  degraded : int;
  errors : int;
  quarantined : int;
  inflight : int;
  draining : bool;
  journal_records : int;
  epoch : int;
  primary : bool;
  dedup : int;
  scrubbed : int;  (** records re-verified by the background scrubber *)
  crc_failures : int;  (** checksum/seal findings (open + scrub) *)
  repaired : int;  (** healed records, scrub repairs, anti-entropy ranges *)
  expired : int;  (** requests dropped because their deadline had passed *)
  accept_pauses : int;  (** accept stalls after EMFILE/ENFILE *)
  reaped : int;  (** connections closed by hygiene (idle, overflow, max-conns) *)
  q_p50 : int;  (** QUERY service latency quantiles, µs (log-bucket) *)
  q_p95 : int;
  q_p99 : int;
  k_p50 : int;  (** KNN latency quantiles, µs *)
  k_p95 : int;
  k_p99 : int;
  a_p50 : int;  (** ADD latency quantiles, µs *)
  a_p95 : int;
  a_p99 : int;
}

type response =
  | Hits of {
      degraded : bool;
      hits : (int * int) list;  (** [(id, distance)] *)
      unverified : (int * int * int) list;  (** [(id, lower, upper)] *)
    }
  | Added of { id : int; partners : (int * int) list }
  | Tree_reply of { seq : int; tree : Tsj_tree.Tree.t }
  | Stats_reply of stats_reply
  | Health_reply of { draining : bool }
  | Drained
  | Busy of { retry_after_ms : int option }
      (** shed under overload; the hint, when present, is the earliest
          time a retry can be admitted *)
  | Err of string
  | Sync_stream of { epoch : int; base : int; high : int }
  | Record of string
  | Digest_reply of { epoch : int; lo : int; hi : int; digest : string }
  | Fenced of int
  | Promoted of int
  | Hello_reply of int
  | Redirect of string

let zero_stats =
  {
    trees = 0; tau = 0; queries = 0; adds = 0; shed = 0; degraded = 0; errors = 0;
    quarantined = 0; inflight = 0; draining = false; journal_records = 0; epoch = 0;
    primary = false; dedup = 0; scrubbed = 0; crc_failures = 0; repaired = 0;
    expired = 0; accept_pauses = 0; reaped = 0; q_p50 = 0; q_p95 = 0; q_p99 = 0;
    k_p50 = 0; k_p95 = 0; k_p99 = 0; a_p50 = 0; a_p95 = 0; a_p99 = 0;
  }

(* The STATS reply as one [(key, read, write)] table, in wire order: the
   renderer and the parser both walk it, so a field is added in one
   place.  The first [stats_required] keys were in every STATS reply any
   server ever sent; a reply from an older server lacks the others, and
   they parse as 0. *)
let stats_fields =
  let b = Bool.to_int in
  [
    ("trees", (fun s -> s.trees), fun s v -> { s with trees = v });
    ("tau", (fun s -> s.tau), fun s v -> { s with tau = v });
    ("queries", (fun s -> s.queries), fun s v -> { s with queries = v });
    ("adds", (fun s -> s.adds), fun s v -> { s with adds = v });
    ("shed", (fun s -> s.shed), fun s v -> { s with shed = v });
    ("degraded", (fun s -> s.degraded), fun s v -> { s with degraded = v });
    ("errors", (fun s -> s.errors), fun s v -> { s with errors = v });
    ("quarantined", (fun s -> s.quarantined), fun s v -> { s with quarantined = v });
    ("inflight", (fun s -> s.inflight), fun s v -> { s with inflight = v });
    ("draining", (fun s -> b s.draining), fun s v -> { s with draining = v = 1 });
    ("journal", (fun s -> s.journal_records), fun s v -> { s with journal_records = v });
    ("epoch", (fun s -> s.epoch), fun s v -> { s with epoch = v });
    ("primary", (fun s -> b s.primary), fun s v -> { s with primary = v = 1 });
    ("dedup", (fun s -> s.dedup), fun s v -> { s with dedup = v });
    ("scrubbed", (fun s -> s.scrubbed), fun s v -> { s with scrubbed = v });
    ("crc_failures", (fun s -> s.crc_failures), fun s v -> { s with crc_failures = v });
    ("repaired", (fun s -> s.repaired), fun s v -> { s with repaired = v });
    ("expired", (fun s -> s.expired), fun s v -> { s with expired = v });
    ("accept_pauses", (fun s -> s.accept_pauses), fun s v -> { s with accept_pauses = v });
    ("reaped", (fun s -> s.reaped), fun s v -> { s with reaped = v });
    ("q_p50", (fun s -> s.q_p50), fun s v -> { s with q_p50 = v });
    ("q_p95", (fun s -> s.q_p95), fun s v -> { s with q_p95 = v });
    ("q_p99", (fun s -> s.q_p99), fun s v -> { s with q_p99 = v });
    ("k_p50", (fun s -> s.k_p50), fun s v -> { s with k_p50 = v });
    ("k_p95", (fun s -> s.k_p95), fun s v -> { s with k_p95 = v });
    ("k_p99", (fun s -> s.k_p99), fun s v -> { s with k_p99 = v });
    ("a_p50", (fun s -> s.a_p50), fun s v -> { s with a_p50 = v });
    ("a_p95", (fun s -> s.a_p95), fun s v -> { s with a_p95 = v });
    ("a_p99", (fun s -> s.a_p99), fun s v -> { s with a_p99 = v });
  ]

let stats_required = 13

(* Replies are single lines; strip any newline an error message smuggled
   in so the framing survives arbitrary reasons. *)
let one_line s =
  String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s

let render_response r =
  let b = Buffer.create 64 in
  let str = Buffer.add_string b and chr = Buffer.add_char b in
  let int n = str (string_of_int n) in
  let words ws = List.iteri (fun i n -> if i > 0 then chr ' '; int n) ws in
  (* HITS/ADDED carry one pair per hit: plain appends, no format
     interpretation per pair. *)
  let pair (i, d) = chr ' '; int i; chr ':'; int d in
  (match r with
  | Hits { degraded; hits; unverified } ->
    str "HITS ";
    words [ Bool.to_int degraded; List.length hits; List.length unverified ];
    List.iter pair hits;
    List.iter (fun (i, lo, hi) -> pair (i, lo); chr ':'; int hi) unverified
  | Added { id; partners } ->
    str "ADDED ";
    words [ id; List.length partners ];
    List.iter pair partners
  | Tree_reply { seq; tree } ->
    str "TREE ";
    int seq;
    chr ' ';
    Bracket.to_buffer b tree
  | Stats_reply s ->
    str "STATS";
    List.iter
      (fun (key, get, _) ->
        chr ' ';
        str key;
        chr '=';
        int (get s))
      stats_fields
  | Health_reply { draining } -> str (if draining then "OK draining" else "OK serving")
  | Drained -> str "OK drained"
  | Busy { retry_after_ms = None } -> str "BUSY"
  | Busy { retry_after_ms = Some ms } ->
    str "BUSY ";
    int (max 0 ms)
  | Err reason -> str ("ERR " ^ one_line reason)
  | Sync_stream { epoch; base; high } ->
    str "SYNC ";
    words [ epoch; base; high ]
  | Record line -> str ("RECORD " ^ one_line line)
  | Digest_reply { epoch; lo; hi; digest } ->
    str "DIGEST ";
    words [ epoch; lo; hi ];
    chr ' ';
    str digest
  | Fenced epoch ->
    str "FENCED ";
    int epoch
  | Promoted epoch ->
    str "PROMOTED ";
    int epoch
  | Hello_reply version ->
    str "HELLO BIN ";
    int version
  | Redirect addr -> str ("REDIRECT " ^ one_line addr));
  Buffer.contents b

let parse_pair s =
  match String.split_on_char ':' s with
  | [ i; d ] -> (
    match (int_of_string_opt i, int_of_string_opt d) with
    | Some i, Some d -> Some (i, d)
    | _ -> None)
  | _ -> None

let parse_triple s =
  match String.split_on_char ':' s with
  | [ i; lo; hi ] -> (
    match (int_of_string_opt i, int_of_string_opt lo, int_of_string_opt hi) with
    | Some i, Some lo, Some hi -> Some (i, lo, hi)
    | _ -> None)
  | _ -> None

let rec take_map f n = function
  | rest when n = 0 -> Some ([], rest)
  | [] -> None
  | x :: rest -> (
    match f x with
    | None -> None
    | Some y -> (
      match take_map f (n - 1) rest with
      | None -> None
      | Some (ys, rest) -> Some (y :: ys, rest)))

(* [s] is longer than [prefix] and starts with it, ignoring ASCII case
   ([prefix] is upper case) — checked in place, without copying [s]. *)
let has_prefix_ci s prefix =
  let n = String.length prefix in
  String.length s > n
  &&
  let i = ref 0 in
  while !i < n && Char.uppercase_ascii (String.unsafe_get s !i) = String.unsafe_get prefix !i do
    incr i
  done;
  !i = n

let parse_response line =
  let fail () = Error (Printf.sprintf "malformed reply %S" line) in
  let raw = String.trim line in
  (* RECORD carries a raw journal line whose spacing must survive the
     round trip, so it is split off before the word-based dispatch. *)
  if has_prefix_ci raw "RECORD " then
    Ok (Record (String.trim (String.sub raw 7 (String.length raw - 7))))
  else if has_prefix_ci raw "TREE " then begin
    (* Like RECORD, the payload is "<seq> <bracket-tree>" where the tree
       must keep its exact bytes — split it off before the word-based
       dispatch. *)
    let rest = String.trim (String.sub raw 5 (String.length raw - 5)) in
    match String.index_opt rest ' ' with
    | None -> fail ()
    | Some i -> (
      match
        ( int_of_string_opt (String.sub rest 0 i),
          Bracket.of_substring rest ~pos:(i + 1) ~len:(String.length rest - i - 1) )
      with
      | Some seq, Ok tree when seq >= 0 -> Ok (Tree_reply { seq; tree })
      | _ -> fail ())
  end
  else
  let words =
    List.filter (fun w -> w <> "") (String.split_on_char ' ' raw)
  in
  match words with
  | "HITS" :: deg :: nh :: nu :: rest -> (
    match (int_of_string_opt deg, int_of_string_opt nh, int_of_string_opt nu) with
    | Some deg, Some nh, Some nu when (deg = 0 || deg = 1) && nh >= 0 && nu >= 0 -> (
      match take_map parse_pair nh rest with
      | None -> fail ()
      | Some (hits, rest) -> (
        match take_map parse_triple nu rest with
        | Some (unverified, []) -> Ok (Hits { degraded = deg = 1; hits; unverified })
        | _ -> fail ()))
    | _ -> fail ())
  | "ADDED" :: id :: np :: rest -> (
    match (int_of_string_opt id, int_of_string_opt np) with
    | Some id, Some np when np >= 0 -> (
      match take_map parse_pair np rest with
      | Some (partners, []) -> Ok (Added { id; partners })
      | _ -> fail ())
    | _ -> fail ())
  | "STATS" :: fields -> (
    let tbl = Hashtbl.create 32 in
    let well_formed =
      List.for_all
        (fun f ->
          match String.index_opt f '=' with
          | None -> false
          | Some i -> (
            match int_of_string_opt (String.sub f (i + 1) (String.length f - i - 1)) with
            | None -> false
            | Some v ->
              Hashtbl.replace tbl (String.sub f 0 i) v;
              true))
        fields
    in
    let rec fill s i = function
      | [] -> Some s
      | (key, _, set) :: rest -> (
        match Hashtbl.find_opt tbl key with
        | Some v -> fill (set s v) (i + 1) rest
        | None when i < stats_required -> None
        | None -> fill s (i + 1) rest)
    in
    match fill zero_stats 0 stats_fields with
    | Some s when well_formed -> Ok (Stats_reply s)
    | _ -> fail ())
  | [ "OK"; "serving" ] -> Ok (Health_reply { draining = false })
  | [ "OK"; "draining" ] -> Ok (Health_reply { draining = true })
  | [ "OK"; "drained" ] -> Ok Drained
  | [ "BUSY" ] -> Ok (Busy { retry_after_ms = None })
  | [ "BUSY"; ms ] -> (
    match int_of_string_opt ms with
    | Some ms when ms >= 0 -> Ok (Busy { retry_after_ms = Some ms })
    | _ -> fail ())
  | [ "SYNC"; e; b ] -> (
    (* Pre-binary stream header without the high-water mark: treat the
       base as the only known bound so staleness stays conservative. *)
    match (int_of_string_opt e, int_of_string_opt b) with
    | Some epoch, Some base when epoch >= 0 && base >= 0 ->
      Ok (Sync_stream { epoch; base; high = base })
    | _ -> fail ())
  | [ "SYNC"; e; b; h ] -> (
    match (int_of_string_opt e, int_of_string_opt b, int_of_string_opt h) with
    | Some epoch, Some base, Some high when epoch >= 0 && base >= 0 && high >= 0 ->
      Ok (Sync_stream { epoch; base; high = max base high })
    | _ -> fail ())
  | [ "DIGEST"; e; lo; hi; d ] -> (
    match (int_of_string_opt e, int_of_string_opt lo, int_of_string_opt hi) with
    | Some epoch, Some lo, Some hi
      when epoch >= 0 && 0 <= lo && lo <= hi && String.length d = 16 ->
      Ok (Digest_reply { epoch; lo; hi; digest = d })
    | _ -> fail ())
  | [ "HELLO"; "BIN"; v ] -> (
    match int_of_string_opt v with
    | Some version when version >= 1 -> Ok (Hello_reply version)
    | _ -> fail ())
  | [ "REDIRECT"; a ] -> Ok (Redirect a)
  | [ "FENCED"; e ] -> (
    match int_of_string_opt e with
    | Some epoch when epoch >= 0 -> Ok (Fenced epoch)
    | _ -> fail ())
  | [ "PROMOTED"; e ] -> (
    match int_of_string_opt e with
    | Some epoch when epoch >= 0 -> Ok (Promoted epoch)
    | _ -> fail ())
  | "ERR" :: _ -> Ok (Err (String.trim (String.sub raw 3 (String.length raw - 3))))
  | _ -> fail ()

(* --- binary framing --- *)

module Binary = struct
  (* v3: every frame body is the text line of the same message. *)
  let version = 3

  let hello v = Printf.sprintf "HELLO BIN %d" v

  let parse_hello line =
    match List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.trim line)) with
    | [ h; b; v ]
      when String.uppercase_ascii h = "HELLO" && String.uppercase_ascii b = "BIN" -> (
      match int_of_string_opt v with Some v when v >= 1 -> Some v | _ -> None)
    | _ -> None

  let op_request = 0x01
  let op_reply = 0x81

  let get_u32 s pos = Int32.to_int (String.get_int32_be s pos) land 0xFFFF_FFFF

  let frame b ~id ~op body =
    Buffer.add_int32_be b (Int32.of_int (5 + String.length body));
    Buffer.add_int32_be b (Int32.of_int id);
    Buffer.add_char b (Char.chr op);
    Buffer.add_string b body

  let encode_request b ~id ?max_lag ?deadline_ms req =
    frame b ~id ~op:op_request (render_request_d ?max_lag ?deadline_ms req)

  let decode_request ~version:_ ~op ~body =
    if op = op_request then parse_request_d body
    else Error (Printf.sprintf "unknown opcode 0x%02x" op)

  let encode_response b ~id resp = frame b ~id ~op:op_reply (render_response resp)

  let decode_response ~op ~body =
    if op = op_reply then parse_response body
    else Error (Printf.sprintf "unknown response opcode 0x%02x" op)
end
