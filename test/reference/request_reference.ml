(* [Protocol.parse_request_d] as it was before it parsed the tree in
   place: each word split off by [String.trim] and [String.sub] copies,
   the tree parsed from its own copy by the reference bracket parser.
   Kept only as the reference for request parsing and its error texts. *)

open Tsj_server.Protocol

let split_first_word s =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
    (String.sub s 0 i, String.trim (String.sub s (i + 1) (String.length s - i - 1)))

let max_deadline_ms = Tsj_server.Admission.Deadline.max_ms

(* The optional tokens between a work verb's arguments and its tree:
   "~<n>", the staleness bound (QUERY/KNN), then "@<ms>", the remaining
   budget (QUERY/KNN/ADD).  A bracket tree starts with '{', so neither
   can be mistaken for one.  A malformed token is a hard parse error
   naming the verb and the token — never silently taken as part of the
   tree, which would only yield a confusing bracket diagnostic. *)
let take_token what ~sigil ~name ~unit ~cap raw =
  if String.length raw > 0 && raw.[0] = sigil then begin
    let arg, rest = split_first_word raw in
    match int_of_string_opt (String.sub arg 1 (String.length arg - 1)) with
    | Some n when n >= 0 -> Ok (Some (min n cap), rest)
    | _ ->
      Error
        (Printf.sprintf "%s: bad %s token %S (expected %c<%s>)" what name arg sigil unit)
  end
  else Ok (None, raw)

let take_deadline what =
  take_token what ~sigil:'@' ~name:"deadline" ~unit:"milliseconds" ~cap:max_deadline_ms

let take_tree what raw =
  if raw = "" then Error (what ^ ": missing tree")
  else Result.map_error (fun msg -> what ^ ": " ^ msg) (Bracket_reference.of_string raw)

(* A request whose integer argument fails to parse, whose tree is
   malformed (diagnosed by the located bracket parser) or whose verb is
   unknown yields [Error reason] — never an exception.  The server turns
   the reason into an [ERR] reply.  The result carries the staleness
   bound and the remaining-budget deadline, when present. *)
let parse_request_d line =
  let ( let* ) = Result.bind in
  let read what raw k =
    let arg, rest = split_first_word raw in
    match int_of_string_opt arg with
    | None -> Error (Printf.sprintf "%s: expected an integer, found %S" what arg)
    | Some n ->
      let* lag, rest =
        take_token what ~sigil:'~' ~name:"staleness" ~unit:"records" ~cap:max_int rest
      in
      let* deadline, rest = take_deadline what rest in
      let* tree = take_tree what rest in
      let* req = k n tree in
      Ok (req, lag, deadline)
  in
  let verb, rest = split_first_word line in
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
    let arg, after = split_first_word rest in
    let* seq, rest =
      match int_of_string_opt arg with
      | Some seq when seq < 0 -> Error "ADD: negative sequence number"
      | Some seq -> Ok (Some seq, after)
      | None -> Ok (None, rest)
    in
    let* deadline, rest = take_deadline "ADD" rest in
    let* tree = take_tree "ADD" rest in
    Ok (Add { seq; tree }, None, deadline)
  | "SYNC" -> (
    match String.split_on_char ' ' rest with
    | [ e; s ] -> (
      match (int_of_string_opt e, int_of_string_opt s) with
      | Some epoch, Some from_seq when epoch >= 0 && from_seq >= 0 ->
        Ok (Sync { epoch; from_seq }, None, None)
      | _ -> Error "SYNC: expected two non-negative integers")
    | _ -> Error "SYNC: expected <epoch> <from_seq>")
  | "ACKED" -> (
    match int_of_string_opt rest with
    | Some seq when seq >= 0 -> Ok (Ack seq, None, None)
    | _ -> Error "ACKED: expected a non-negative integer")
  | "GET" -> (
    match int_of_string_opt rest with
    | Some seq when seq >= 0 -> Ok (Get seq, None, None)
    | _ -> Error "GET: expected a non-negative sequence number")
  | "DIGEST" -> (
    match String.split_on_char ' ' rest with
    | [ e; lo; hi ] -> (
      match (int_of_string_opt e, int_of_string_opt lo, int_of_string_opt hi) with
      | Some epoch, Some lo, Some hi when epoch >= 0 && 0 <= lo && lo <= hi ->
        Ok (Digest { epoch; lo; hi }, None, None)
      | _ -> Error "DIGEST: expected <epoch> <lo> <hi> with 0 <= lo <= hi")
    | _ -> Error "DIGEST: expected <epoch> <lo> <hi>")
  | "STATS" when rest = "" -> Ok (Stats, None, None)
  | "HEALTH" when rest = "" -> Ok (Health, None, None)
  | "DRAIN" when rest = "" -> Ok (Drain, None, None)
  | "PROMOTE" when rest = "" -> Ok (Promote, None, None)
  | ("STATS" | "HEALTH" | "DRAIN" | "PROMOTE") as v ->
    Error (Printf.sprintf "%s takes no arguments" v)
  | "" -> Error "empty request"
  | other ->
    Error
      (Printf.sprintf
         "unknown command %S (expected QUERY, KNN, ADD, GET, DIGEST, STATS, HEALTH, \
          DRAIN, SYNC, ACKED or PROMOTE)"
         other)


let render_request_d ?max_lag ?deadline_ms req =
  let token sigil = function None -> "" | Some n -> Printf.sprintf "%c%d " sigil n in
  let lag = token '~' (Option.map (max 0) max_lag) in
  let d = token '@' (Option.map (fun ms -> max 0 (min ms max_deadline_ms)) deadline_ms) in
  match req with
  | Query { tau; tree } ->
    Printf.sprintf "QUERY %d %s%s%s" tau lag d (Bracket_reference.to_string tree)
  | Knn { k; tree } -> Printf.sprintf "KNN %d %s%s%s" k lag d (Bracket_reference.to_string tree)
  | Add { seq = None; tree } -> Printf.sprintf "ADD %s%s" d (Bracket_reference.to_string tree)
  | Add { seq = Some seq; tree } ->
    Printf.sprintf "ADD %d %s%s" seq d (Bracket_reference.to_string tree)
  | Stats -> "STATS"
  | Health -> "HEALTH"
  | Drain -> "DRAIN"
  | Sync { epoch; from_seq } -> Printf.sprintf "SYNC %d %d" epoch from_seq
  | Ack seq -> Printf.sprintf "ACKED %d" seq
  | Get seq -> Printf.sprintf "GET %d" seq
  | Digest { epoch; lo; hi } -> Printf.sprintf "DIGEST %d %d %d" epoch lo hi
  | Promote -> "PROMOTE"
