let to_buffer b t =
  let rec go (t : Tree.t) =
    Buffer.add_char b '{';
    Buffer.add_string b (Label.escaped t.label);
    List.iter go t.children;
    Buffer.add_char b '}'
  in
  go t

let to_string t =
  let b = Buffer.create 256 in
  to_buffer b t;
  Buffer.contents b

(* One pass over [s.[pos .. stop - 1]] at an int position.  Parse errors
   carry the byte offset of the offending character; the public entry
   points format it as a 1-based line/column relative to the start of
   the parsed text, so callers can point the user at the record, not a
   raw byte offset. *)
exception Parse_error of int * string

type cursor = {
  s : string;
  stop : int;
  mutable pos : int;
  mutable scratch : Buffer.t option; (* unescapes labels holding a '\' *)
}

let fail c msg = raise (Parse_error (c.pos, msg))

(* Whitespace, and '#' comments up to the end of their line. *)
let skip_ws c =
  let s = c.s and stop = c.stop in
  let rec go i =
    if i >= stop then i
    else
      match String.unsafe_get s i with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | '#' -> comment (i + 1)
      | _ -> i
  and comment i = if i >= stop || String.unsafe_get s i = '\n' then go i else comment (i + 1) in
  c.pos <- go c.pos

(* The label from [c.pos] to the next unescaped brace.  Without a '\' it
   is interned straight from its slice of the input; with one, it is
   unescaped through the cursor's scratch buffer. *)
let label c =
  let s = c.s and stop = c.stop and start = c.pos in
  let rec plain i =
    if i >= stop then i
    else match String.unsafe_get s i with '{' | '}' | '\\' -> i | _ -> plain (i + 1)
  in
  let i = plain start in
  if i < stop && String.unsafe_get s i = '\\' then begin
    let b =
      match c.scratch with
      | Some b -> Buffer.clear b; b
      | None ->
        let b = Buffer.create 32 in
        c.scratch <- Some b;
        b
    in
    Buffer.add_substring b s start (i - start);
    let rec unescape i =
      if i >= stop then i
      else
        match String.unsafe_get s i with
        | '\\' ->
          if i + 1 >= stop then begin
            c.pos <- i + 1;
            fail c "dangling escape character"
          end;
          Buffer.add_char b (String.unsafe_get s (i + 1));
          unescape (i + 2)
        | '{' | '}' -> i
        | ch ->
          Buffer.add_char b ch;
          unescape (i + 1)
    in
    c.pos <- unescape i;
    Label.intern (Buffer.contents b)
  end
  else begin
    c.pos <- i;
    if i = start then fail c "empty label";
    Label.intern_sub s start (i - start)
  end

let rec tree c =
  if c.pos >= c.stop then fail c "expected '{', found end of input";
  (match String.unsafe_get c.s c.pos with
  | '{' -> c.pos <- c.pos + 1
  | ch -> fail c (Printf.sprintf "expected '{', found %C" ch));
  let label = label c in
  Tree.node label (children c)

and children c =
  if c.pos >= c.stop then fail c "unterminated tree: expected '}'";
  match String.unsafe_get c.s c.pos with
  | '{' ->
    let t = tree c in
    t :: children c
  | '}' ->
    c.pos <- c.pos + 1;
    []
  | ch -> fail c (Printf.sprintf "expected '{' or '}', found %C" ch)

let cursor s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Bracket.of_substring";
  { s; stop = pos + len; pos; scratch = None }

let describe s ~pos ~len at msg =
  let text = if pos = 0 && len = String.length s then s else String.sub s pos len in
  Printf.sprintf "%s: %s" (Tsj_util.Text.describe_pos text (at - pos)) msg

let of_substring s ~pos ~len =
  let c = cursor s ~pos ~len in
  match
    skip_ws c;
    let t = tree c in
    skip_ws c;
    if c.pos < c.stop then fail c "trailing garbage after tree";
    t
  with
  | t -> Ok t
  | exception Parse_error (at, msg) -> Error (describe s ~pos ~len at msg)

let of_string s = of_substring s ~pos:0 ~len:(String.length s)

let of_string_exn s =
  match of_string s with
  | Ok t -> t
  | Error msg -> invalid_arg ("Bracket.of_string_exn: " ^ msg)

let forest_of_string s =
  let len = String.length s in
  let c = cursor s ~pos:0 ~len in
  let rec go acc =
    skip_ws c;
    if c.pos >= len then List.rev acc else go (tree c :: acc)
  in
  match go [] with
  | ts -> Ok ts
  | exception Parse_error (at, msg) -> Error (describe s ~pos:0 ~len at msg)

(* Lenient forest parse: on a malformed record, report its 1-based
   line/column and resynchronize at the start of the next line.  Records
   spanning multiple lines lose the spilled lines too — acceptable for
   the record-per-line corpora this serves. *)
let forest_of_string_lenient s =
  let len = String.length s in
  let c = cursor s ~pos:0 ~len in
  let rec go trees errors =
    skip_ws c;
    if c.pos >= len then (List.rev trees, List.rev errors)
    else
      match tree c with
      | t -> go (t :: trees) errors
      | exception Parse_error (at, msg) ->
        let line, col = Tsj_util.Text.line_col s at in
        let next =
          match String.index_from_opt s at '\n' with Some nl -> nl + 1 | None -> len
        in
        (* Always make progress, even on an error at a line boundary. *)
        c.pos <- max next (at + 1);
        let errors = (line, col, msg) :: errors in
        if c.pos < len then go trees errors else (List.rev trees, List.rev errors)
  in
  go [] []

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> forest_of_string contents
  | exception Sys_error msg -> Error msg

let load_file_lenient path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> Ok (forest_of_string_lenient contents)
  | exception Sys_error msg -> Error msg

let save_file path trees =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun t ->
          Out_channel.output_string oc (to_string t);
          Out_channel.output_char oc '\n')
        trees)
