(* Random comparisons of the one-pass bracket codec and the request
   parser against their references ([Bracket_reference],
   [Request_reference]).  The tree suite, the server suite and the
   [bracket] fuzz mode draw from the same generators. *)

module Label = Tsj_tree.Label
module Tree = Tsj_tree.Tree
module Bracket = Tsj_tree.Bracket
module Prng = Tsj_util.Prng
module Protocol = Tsj_server.Protocol

(* The grammar's own bytes, every blank [String.trim] strips, the
   comment sign, NUL and bytes past 0x7f. *)
let hostile =
  [| '{'; '}'; '\\'; ' '; '#'; '\t'; '\n'; '\r'; '\012'; '\000'; 'a'; 'b'; '7'; '\x80'; '\xc3'; '\xff' |]

let random_label rng = String.init (1 + Prng.int rng 5) (fun _ -> Prng.choice rng hostile)

(* A tree of [n] nodes whose labels hold any of [hostile]. *)
let rec random_tree rng n =
  let label = Label.intern (random_label rng) in
  let rec kids left acc =
    if left = 0 then List.rev acc
    else
      let k = 1 + Prng.int rng left in
      kids (left - k) (random_tree rng k :: acc)
  in
  Tree.node label (kids (n - 1) [])

let separators = [| ""; " "; "\n"; "\r\n"; "\t"; "\n# note {x} \\\n"; " #}\n"; "\012" |]

(* Well-formed forests, their truncations, mutations of them, and byte
   soup. *)
let random_input rng =
  let sep () = Prng.choice rng separators in
  let forest () =
    let trees =
      List.init (1 + Prng.int rng 3) (fun _ ->
          Bracket.to_string (random_tree rng (1 + Prng.int rng 10)))
    in
    sep () ^ String.concat (sep ()) trees ^ sep ()
  in
  match Prng.int rng 4 with
  | 0 -> forest ()
  | 1 ->
    let s = forest () in
    String.sub s 0 (Prng.int rng (String.length s + 1))
  | 2 ->
    let b = Buffer.create 64 in
    let s = forest () in
    let edits = 1 + Prng.int rng 3 in
    String.iter
      (fun c ->
        if Prng.int rng (String.length s) < edits then
          match Prng.int rng 3 with
          | 0 -> ()
          | 1 -> Buffer.add_char b (Prng.choice rng hostile)
          | _ ->
            Buffer.add_char b c;
            Buffer.add_char b (Prng.choice rng hostile)
        else Buffer.add_char b c)
      s;
    Buffer.contents b
  | _ -> String.init (Prng.int rng 24) (fun _ -> Prng.choice rng hostile)

let show_tree = function Ok t -> "Ok " ^ Bracket.to_string t | Error e -> "Error " ^ e

let show_forest = function
  | Ok ts -> Printf.sprintf "Ok [%s]" (String.concat "; " (List.map Bracket.to_string ts))
  | Error e -> "Error " ^ e

let show_lenient (ts, errs) =
  Printf.sprintf "[%s] [%s]"
    (String.concat "; " (List.map Bracket.to_string ts))
    (String.concat "; " (List.map (fun (l, c, m) -> Printf.sprintf "%d:%d %s" l c m) errs))

let differ what s got want = Some (Printf.sprintf "%s on %S: got %s, reference %s" what s got want)

(* [None] when the one-pass parser returns exactly the reference's trees
   or error texts on [s], through every entry point; else the first
   difference.  [of_substring] reads [s] inside a line padded with
   [pad] on both sides. *)
let compare_parsers ?(pad = "") s =
  let same_tree = Result.equal ~ok:Tree.equal ~error:String.equal in
  let same_forest = Result.equal ~ok:(List.equal Tree.equal) ~error:String.equal in
  let one = Bracket.of_string s and one_ref = Bracket_reference.of_string s in
  let line = pad ^ s ^ pad in
  let sub = Bracket.of_substring line ~pos:(String.length pad) ~len:(String.length s) in
  let forest = Bracket.forest_of_string s and forest_ref = Bracket_reference.forest_of_string s in
  let trees, errs = Bracket.forest_of_string_lenient s in
  let trees_ref, errs_ref = Bracket_reference.forest_of_string_lenient s in
  if not (same_tree one one_ref) then differ "of_string" s (show_tree one) (show_tree one_ref)
  else if not (same_tree sub one_ref) then
    differ "of_substring" s (show_tree sub) (show_tree one_ref)
  else if not (same_forest forest forest_ref) then
    differ "forest_of_string" s (show_forest forest) (show_forest forest_ref)
  else if not (List.equal Tree.equal trees trees_ref && errs = errs_ref) then
    differ "forest_of_string_lenient" s
      (show_lenient (trees, errs))
      (show_lenient (trees_ref, errs_ref))
  else None

(* [None] when [t] survives print-then-parse and prints as the
   reference printer does. *)
let check_roundtrip t =
  let s = Bracket.to_string t in
  if s <> Bracket_reference.to_string t then
    Some (Printf.sprintf "to_string %S differs from the reference %S" s (Bracket_reference.to_string t))
  else
    match Bracket.of_string s with
    | Ok t' when Tree.equal t t' -> None
    | r -> Some (Printf.sprintf "of_string (to_string t) on %S: %s" s (show_tree r))

let blanks = [| " "; "  "; "\t"; " \012"; "\r "; "" |]

let verbs =
  [| "QUERY"; "query"; "KNN"; "ADD"; "Add"; "GET"; "SYNC"; "ACKED"; "DIGEST"; "STATS"; "NOPE"; "" |]

let args = [| "2"; "0"; "-1"; "x"; "0x1f"; "07"; ""; "3 4" |]
let tokens = [| ""; "~3 "; "~ "; "~x "; "@50 "; "@-1 "; "@ "; "~1 @2 "; "@9999999999 " |]

let show_request = function
  | Ok (req, lag, deadline) ->
    let opt = function None -> "-" | Some n -> string_of_int n in
    Printf.sprintf "Ok %S lag=%s deadline=%s"
      (Request_reference.render_request_d req)
      (opt lag) (opt deadline)
  | Error e -> "Error " ^ e

(* A request line around [tree_text]: a verb, an argument and tokens,
   joined and padded by the blanks a client might send. *)
let random_line rng tree_text =
  let blank () = Prng.choice rng blanks in
  String.concat ""
    [ blank (); Prng.choice rng verbs; " "; blank (); Prng.choice rng args; " ";
      Prng.choice rng tokens; tree_text; blank () ]

(* [None] when [Protocol.parse_request_d] returns the reference's request
   or error text on [line]. *)
let compare_requests line =
  let got = Protocol.parse_request_d line and want = Request_reference.parse_request_d line in
  if got = want then None else differ "parse_request_d" line (show_request got) (show_request want)

(* [None] when [Protocol.render_request_d] writes the reference's line. *)
let compare_render rng t =
  let opt () = if Prng.bool rng then None else Some (Prng.int_in rng (-5) 100_000_000) in
  let max_lag = opt () and deadline_ms = opt () in
  let req =
    match Prng.int rng 4 with
    | 0 -> Protocol.Query { tau = Prng.int_in rng (-2) 5; tree = t }
    | 1 -> Protocol.Knn { k = Prng.int rng 9; tree = t }
    | 2 -> Protocol.Add { seq = None; tree = t }
    | _ -> Protocol.Add { seq = Some (Prng.int rng 1000); tree = t }
  in
  let got = Protocol.render_request_d ?max_lag ?deadline_ms req in
  let want = Request_reference.render_request_d ?max_lag ?deadline_ms req in
  if got = want then None
  else Some (Printf.sprintf "render_request_d: got %S, reference %S" got want)

(* One round of every comparison on fresh random inputs. *)
let check rng =
  let ( >>? ) a b = match a with Some _ -> a | None -> b () in
  let t = random_tree rng (1 + Prng.int rng 12) in
  let s = random_input rng in
  check_roundtrip t
  >>? (fun () -> compare_parsers ~pad:(Prng.choice rng [| ""; " "; "QUERY 1 "; "{a}\n" |]) s)
  >>? (fun () -> compare_requests (random_line rng s))
  >>? fun () -> compare_render rng t
