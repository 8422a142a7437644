type t = int

let epsilon = 0

(* The intern table.  Ids are dense and given out in first-seen order;
   id 0 is epsilon, names start at 1.  [names], [escaped] and [breaks]
   are indexed by id, [slots] is an open-addressed table of ids (0 =
   empty), probed linearly from the hash of the name's bytes and never
   more than half full: a slice of a larger string is looked up without
   copying it.  A table is never resized in place.  Growth builds the
   whole bigger table, then publishes it in one [Atomic.set], so a
   reader still walking the old one sees a consistent, older table. *)
type table = {
  slots : int array; (* 2 * capacity, a power of two *)
  names : string array; (* capacity *)
  escaped : string array; (* the name as bracket notation writes it *)
  breaks : bool array; (* the name holds '\n' or '\r' *)
}

let make capacity =
  {
    slots = Array.make (2 * capacity) 0;
    names = Array.make capacity "";
    escaped = Array.make capacity "";
    breaks = Array.make capacity false;
  }

let table = Atomic.make (make 64)
let next = Atomic.make 1 (* ids given out, epsilon included *)
let writer = Mutex.create ()

let needs_escape c = c = '{' || c = '}' || c = '\\'

let escape s =
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

(* FNV-1a over [s.[pos .. pos + len - 1]], its high bits folded into
   the low ones the slot index reads. *)
let hash s pos len =
  let h = ref 0x811C9DC5 in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001B3
  done;
  !h lxor (!h lsr 31)

let equal_slice name s pos len =
  String.length name = len
  &&
  let i = ref 0 in
  while !i < len && String.unsafe_get name !i = String.unsafe_get s (pos + !i) do
    incr i
  done;
  !i = len

(* The slot of [tbl] that holds the slice's id, or the empty slot where
   it goes.  A reader racing an insert may see a slot's id before its
   name: the name then reads "" and, a label never being empty, does
   not match, so the lookup falls through to the locked path. *)
let slot_of tbl s pos len h =
  let mask = Array.length tbl.slots - 1 in
  let i = ref (h land mask) in
  while
    let id = tbl.slots.(!i) in
    id <> 0 && not (equal_slice tbl.names.(id) s pos len)
  do
    i := (!i + 1) land mask
  done;
  !i

let grow tbl n =
  let bigger = make (2 * Array.length tbl.names) in
  Array.blit tbl.names 0 bigger.names 0 n;
  Array.blit tbl.escaped 0 bigger.escaped 0 n;
  Array.blit tbl.breaks 0 bigger.breaks 0 n;
  for id = 1 to n - 1 do
    let name = bigger.names.(id) in
    let len = String.length name in
    bigger.slots.(slot_of bigger name 0 len (hash name 0 len)) <- id
  done;
  bigger

(* Inserts run one at a time and look again under the lock: two threads
   missing the same name must get one id. *)
let add s pos len h =
  Mutex.protect writer (fun () ->
      let tbl = Atomic.get table in
      match tbl.slots.(slot_of tbl s pos len h) with
      | 0 ->
        let id = Atomic.get next in
        let tbl =
          if id < Array.length tbl.names then tbl
          else begin
            let bigger = grow tbl id in
            Atomic.set table bigger;
            bigger
          end
        in
        let name = String.sub s pos len in
        tbl.names.(id) <- name;
        tbl.escaped.(id) <- escape name;
        tbl.breaks.(id) <- String.exists (fun c -> c = '\n' || c = '\r') name;
        Atomic.set next (id + 1);
        tbl.slots.(slot_of tbl s pos len h) <- id;
        id
      | id -> id)

let intern_sub s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Label.intern_sub";
  if len = 0 then invalid_arg "Label.intern: empty string is reserved for epsilon";
  let h = hash s pos len in
  let tbl = Atomic.get table in
  match tbl.slots.(slot_of tbl s pos len h) with
  | 0 -> add s pos len h
  | id -> id

let intern s = intern_sub s 0 (String.length s)

let check id = if id < 0 || id >= Atomic.get next then invalid_arg "Label.name: unregistered label"

let name id =
  check id;
  (Atomic.get table).names.(id)

let escaped id =
  check id;
  (Atomic.get table).escaped.(id)

let has_line_break id =
  check id;
  (Atomic.get table).breaks.(id)

let mem s =
  let len = String.length s in
  len > 0
  &&
  let tbl = Atomic.get table in
  tbl.slots.(slot_of tbl s 0 len (hash s 0 len)) <> 0

let count () = Atomic.get next - 1

let pp fmt id = Format.pp_print_string fmt (name id)
