(* The bracket parser as it was before the one-pass codec: a cursor with
   an [option] per peeked character and a [Buffer] per label.  Kept only
   as the reference the one-pass parser is compared against, trees and
   error texts alike. *)

module Label = Tsj_tree.Label
module Tree = Tsj_tree.Tree

let needs_escape c = c = '{' || c = '}' || c = '\\'

let escape_label s =
  if String.exists needs_escape s then begin
    let b = Buffer.create (String.length s + 4) in
    String.iter
      (fun c ->
        if needs_escape c then Buffer.add_char b '\\';
        Buffer.add_char b c)
      s;
    Buffer.contents b
  end
  else s

let to_string t =
  let b = Buffer.create 64 in
  let rec go (t : Tree.t) =
    Buffer.add_char b '{';
    Buffer.add_string b (escape_label (Label.name t.Tree.label));
    List.iter go t.Tree.children;
    Buffer.add_char b '}'
  in
  go t;
  Buffer.contents b


exception Parse_error of int * string

type cursor = { input : string; mutable pos : int }

let error cur msg = raise (Parse_error (cur.pos, msg))

let describe input pos msg =
  Printf.sprintf "%s: %s" (Tsj_util.Text.describe_pos input pos) msg

let peek cur =
  if cur.pos < String.length cur.input then Some cur.input.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let rec go () =
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      go ()
    | Some '#' ->
      (* comment until end of line *)
      let rec eat () =
        match peek cur with
        | Some '\n' | None -> ()
        | Some _ ->
          advance cur;
          eat ()
      in
      eat ();
      go ()
    | _ -> ()
  in
  go ()

let parse_label cur =
  let b = Buffer.create 8 in
  let rec go () =
    match peek cur with
    | Some '\\' ->
      advance cur;
      (match peek cur with
      | Some c ->
        Buffer.add_char b c;
        advance cur;
        go ()
      | None -> error cur "dangling escape character")
    | Some ('{' | '}') | None -> ()
    | Some c ->
      Buffer.add_char b c;
      advance cur;
      go ()
  in
  go ();
  let s = Buffer.contents b in
  if s = "" then error cur "empty label";
  Label.intern s

let rec parse_tree cur =
  (match peek cur with
  | Some '{' -> advance cur
  | Some c -> error cur (Printf.sprintf "expected '{', found %C" c)
  | None -> error cur "expected '{', found end of input");
  let label = parse_label cur in
  let children = ref [] in
  let rec kids () =
    match peek cur with
    | Some '{' ->
      children := parse_tree cur :: !children;
      kids ()
    | Some '}' -> advance cur
    | Some c -> error cur (Printf.sprintf "expected '{' or '}', found %C" c)
    | None -> error cur "unterminated tree: expected '}'"
  in
  kids ();
  Tree.node label (List.rev !children)

let of_string s =
  let cur = { input = s; pos = 0 } in
  match
    skip_ws cur;
    let t = parse_tree cur in
    skip_ws cur;
    if cur.pos < String.length s then error cur "trailing garbage after tree";
    t
  with
  | t -> Ok t
  | exception Parse_error (pos, msg) -> Error (describe s pos msg)

let forest_of_string s =
  let cur = { input = s; pos = 0 } in
  match
    let acc = ref [] in
    let rec go () =
      skip_ws cur;
      match peek cur with
      | None -> ()
      | Some _ ->
        acc := parse_tree cur :: !acc;
        go ()
    in
    go ();
    List.rev !acc
  with
  | ts -> Ok ts
  | exception Parse_error (pos, msg) -> Error (describe s pos msg)

(* Lenient forest parse: on a malformed record, report its 1-based
   line/column and resynchronize at the start of the next line.  Records
   spanning multiple lines lose the spilled lines too — acceptable for
   the record-per-line corpora this serves. *)
let forest_of_string_lenient s =
  let cur = { input = s; pos = 0 } in
  let trees = ref [] in
  let errors = ref [] in
  let resync_next_line from =
    let next =
      match String.index_from_opt s from '\n' with
      | Some nl -> nl + 1
      | None -> String.length s
    in
    (* Always make progress, even on an error at a line boundary. *)
    cur.pos <- max next (from + 1)
  in
  let rec go () =
    skip_ws cur;
    match peek cur with
    | None -> ()
    | Some _ -> (
      match parse_tree cur with
      | t ->
        trees := t :: !trees;
        go ()
      | exception Parse_error (pos, msg) ->
        let line, col = Tsj_util.Text.line_col s pos in
        errors := (line, col, msg) :: !errors;
        resync_next_line pos;
        if cur.pos < String.length s then go ())
  in
  go ();
  (List.rev !trees, List.rev !errors)

