module Bracket = Tsj_tree.Bracket
module Incremental = Tsj_core.Incremental
module Durable = Tsj_util.Durable
module Fault = Tsj_util.Fault_inject
module Text = Tsj_util.Text

type t = {
  dir : string option;
  tau : int;
  dedup : bool;
  mutable inc : Incremental.t;
  mutable journal : out_channel option;
  mutable journal_records : int;
  mutable fsyncs : int;
  mutable dedups : int;
  mutable epoch : int;
  mutable epoch_base : int;
  merkle : Integrity.Merkle.t;
      (* leaf [seq] = hash of the canonical record line for [seq],
         maintained incrementally on every add/apply/truncate so DIGEST
         requests and anti-entropy never rescan the history *)
  mutable scrubbed : int;  (* records re-verified against disk *)
  mutable crc_failures : int;  (* corruptions detected (scrub + open) *)
  mutable repaired : int;  (* surfaces/ranges rewritten clean *)
  quarantined : int;  (* records moved aside as unrepairable at open *)
  mutable scrub_cursor : int;  (* next journal position to verify *)
}

let snapshot_path dir = Filename.concat dir "snapshot"

let journal_path dir = Filename.concat dir "journal"

(* The snapshot format: a two-line header (format line, τ), then one
   bracket tree per line in id order.  The header keeps the name of the
   search-index files this format began as, so existing store
   directories still open. *)
let format_line = "# tsj-search-index v1"

(* Publication is atomic (tmp + rename, directory fsynced so the rename
   survives a machine crash): a crash mid-save leaves either the
   previous complete file or a stray .tmp, never a torn collection. *)
let save_collection ~tau trees path =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc ->
      Printf.fprintf oc "%s\n# tau %d\n" format_line tau;
      Array.iter
        (fun tree ->
          Out_channel.output_string oc (Bracket.to_string tree);
          Out_channel.output_char oc '\n')
        trees);
  Durable.rename tmp path

(* Parsed line by line so every diagnostic carries the 1-based file line
   (the header occupies lines 1-2), in the lenient bracket parser's
   ["line L, column C"] convention.  Comment lines ([#]) may appear in
   the body; a blank interior line is an empty record.  Duplicate
   records are kept: clients may insert the same tree twice. *)
let collection_of_string contents =
  match String.split_on_char '\n' contents with
  | header :: tau_line :: body when header = format_line -> (
    let located line msg = Error (Printf.sprintf "line %d: %s" line msg) in
    match String.split_on_char ' ' tau_line with
    | [ "#"; "tau"; tau_s ] -> (
      match int_of_string_opt tau_s with
      | None -> located 2 (Printf.sprintf "corrupt tau header %S" tau_s)
      | Some tau when tau < 0 ->
        located 2 (Printf.sprintf "negative threshold tau = %d in header" tau)
      | Some tau ->
        let n_body = List.length body in
        let rec records k acc = function
          | [] -> Ok (tau, Array.of_list (List.rev acc))
          | line :: rest -> (
            let lineno = k + 3 in
            let trimmed = String.trim line in
            if trimmed = "" then
              if k = n_body - 1 then
                (* the virtual segment after the final newline *)
                records (k + 1) acc rest
              else located lineno "empty record"
            else if trimmed.[0] = '#' then records (k + 1) acc rest
            else
              match Bracket.of_string line with
              | Ok tree -> records (k + 1) (tree :: acc) rest
              | Error msg ->
                (* [of_string] saw a single line, so its location prefix
                   is always "line 1, "; splice in the file line. *)
                let prefix = "line 1, " in
                let n = String.length prefix in
                if String.length msg >= n && String.sub msg 0 n = prefix then
                  Error
                    (Printf.sprintf "line %d, %s" lineno
                       (String.sub msg n (String.length msg - n)))
                else located lineno msg)
        in
        records 0 [] body)
    | _ -> located 2 "corrupt tau header")
  | _ -> Error "not a tsj search index file"

(* One WAL record per acknowledged ADD:

     add <seq> <bracket-tree> <fnv1a64-of-the-rest>

   [seq] is the tree id the record creates, which makes replay
   idempotent across the snapshot boundary: a crash between the snapshot
   rename and the journal reset leaves both holding the same adds, and
   replay skips every record whose seq is already covered by the
   snapshot.  The checksum covers the whole payload, so a torn tail
   (partial final write) is detected and dropped — exactly the adds
   that were never acknowledged. *)
let record_line ~seq tree =
  let payload = Printf.sprintf "add %d %s" seq (Bracket.to_string tree) in
  payload ^ " " ^ Text.fnv1a64_hex payload

let parse_record line =
  match String.rindex_opt line ' ' with
  | None -> None
  | Some i ->
    let payload = String.sub line 0 i in
    let crc = String.sub line (i + 1) (String.length line - i - 1) in
    if Text.fnv1a64_hex payload <> crc then None
    else if not (String.length payload > 4 && String.sub payload 0 4 = "add ") then None
    else begin
      let rest = String.sub payload 4 (String.length payload - 4) in
      match String.index_opt rest ' ' with
      | None -> None
      | Some j -> (
        match int_of_string_opt (String.sub rest 0 j) with
        | None -> None
        | Some seq when seq < 0 -> None
        | Some seq -> (
          match Bracket.of_substring rest ~pos:(j + 1) ~len:(String.length rest - j - 1) with
          | Error _ -> None
          | Ok tree -> Some (seq, tree)))
    end

(* The journal's first line is the replication epoch header:

     epoch <e> <base> <fnv1a64-of-the-rest>

   [e] is the monotonic failover epoch and [base] the first sequence
   number of that epoch (the promotion point).  The header is only ever
   (re)written by an atomic whole-file rename, so it cannot be torn by
   an append crash; journals from before replication have no header and
   read as epoch 0, base 0. *)
let epoch_line ~epoch ~base =
  let payload = Printf.sprintf "epoch %d %d" epoch base in
  payload ^ " " ^ Text.fnv1a64_hex payload

let parse_epoch_line line =
  match String.rindex_opt line ' ' with
  | None -> None
  | Some i ->
    let payload = String.sub line 0 i in
    let crc = String.sub line (i + 1) (String.length line - i - 1) in
    if Text.fnv1a64_hex payload <> crc then None
    else
      match String.split_on_char ' ' payload with
      | [ "epoch"; e; b ] -> (
        match (int_of_string_opt e, int_of_string_opt b) with
        | Some epoch, Some base when epoch >= 0 && base >= 0 -> Some (epoch, base)
        | _ -> None)
      | _ -> None

let reopen_journal_for_append dir =
  open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 (journal_path dir)

(* After a failed (possibly short) journal append the file may end
   mid-line: appending more would glue the next record onto the torn
   prefix and turn a recoverable torn tail into mid-file corruption.
   Rewrite the journal to its true contents — the epoch header plus the
   records it held before the failed batch, regenerated from the
   in-memory index (which the failed batch never reached) — with the
   same atomic whole-file rename as {!reset_journal}.  The caller must
   have restored [journal_records] to its pre-fault value first.
   @raise Durable.Disk_fault if the rewrite itself fails; the journal
   channel is then left closed and every later write is refused. *)
let repair_journal t =
  match t.dir with
  | None -> ()
  | Some dir ->
    (match t.journal with Some oc -> close_out_noerr oc | None -> ());
    t.journal <- None;
    let path = journal_path dir in
    let tmp = path ^ ".tmp" in
    let n = Incremental.n_trees t.inc in
    Out_channel.with_open_text tmp (fun oc ->
        output_string oc (epoch_line ~epoch:t.epoch ~base:t.epoch_base);
        output_char oc '\n';
        for seq = n - t.journal_records to n - 1 do
          output_string oc (record_line ~seq (Incremental.tree t.inc seq));
          output_char oc '\n'
        done);
    Durable.rename tmp path;
    Integrity.write_seal path;
    t.journal <- Some (reopen_journal_for_append dir)

(* What journal replay had to do beyond applying the valid records:
   corruptions detected, records healed from a quorum fetch, lines
   quarantined as unrepairable. *)
type replay_stats = {
  rp_crc_failures : int;
  rp_healed : int;
  rp_quarantined : int;
}

let no_replay_stats = { rp_crc_failures = 0; rp_healed = 0; rp_quarantined = 0 }

(* Replay the journal against [inc].  The valid prefix is applied; a
   torn tail (first undecodable record with nothing valid after it) is
   discarded and the file rewritten to the prefix, so appends continue
   from a clean line boundary.  An undecodable record in the *middle* is
   real corruption: [heal] (when given) is asked for the canonical
   record line of the missing seq — the quorum-refetch path — and a
   healed record is spliced in as if it had never rotted.  An unhealable
   record ends the replayable prefix: with [quarantine] the rest of the
   file is moved aside to [journal.quarantine] (counted, served
   degraded), without it the open fails as before.  Returns the epoch
   header (if the journal has one), the number of surviving records and
   the replay stats. *)
let replay_journal ?heal ?(quarantine = false) inc dir =
  let path = journal_path dir in
  if not (Sys.file_exists path) then Ok (None, 0, no_replay_stats)
  else
    match Durable.read_file path with
    | exception Durable.Disk_fault f -> Error (Durable.fault_to_string f)
    | contents ->
      let lines = String.split_on_char '\n' contents in
      let lines = List.filteri (fun _ l -> String.trim l <> "") lines in
      let header, lines =
        match lines with
        | first :: rest when String.length first >= 6 && String.sub first 0 6 = "epoch " -> (
          match parse_epoch_line first with
          | Some hdr -> (Ok (Some hdr), rest)
          | None -> (Error "journal epoch header is corrupt", rest))
        | _ -> (Ok None, lines)
      in
      (match header with
      | Error _ as e -> e
      | Ok header -> (
        let parsed = List.map (fun l -> (l, parse_record l)) lines in
        (* Walk the lines keeping the surviving records.  [prev] is the
           seq of the last surviving record, the anchor for inferring a
           corrupt line's seq (records are appended in contiguous seq
           order). *)
        let try_heal ~prev rest =
          let expected =
            match prev with
            | Some p -> Some (p + 1)
            | None -> (
              (* corrupt first record: anchor on the next valid one *)
              match
                List.find_opt (fun (_, r) -> r <> None) rest
              with
              | Some (_, Some (q, _)) -> Some (q - 1)
              | _ -> None)
          in
          match (expected, heal) with
          | Some seq, Some fetch when seq >= 0 -> (
            match fetch seq with
            | Some line -> (
              match parse_record line with
              | Some (s, tree) when s = seq -> Some (seq, tree)
              | _ -> None)
            | None -> None)
          | _ -> None
        in
        let rec walk acc prev stats = function
          | [] -> Ok (List.rev acc, false, stats, [])
          | (_, Some ((seq, _) as r)) :: rest ->
            walk (r :: acc) (Some seq) stats rest
          | (bad, None) :: rest ->
            let stats = { stats with rp_crc_failures = stats.rp_crc_failures + 1 } in
            if not (List.exists (fun (_, r) -> r <> None) rest) then
              (* torn tail: the bad bytes were never acknowledged *)
              Ok (List.rev acc, true, stats, [])
            else (
              match try_heal ~prev rest with
              | Some ((seq, _) as r) ->
                walk (r :: acc) (Some seq)
                  { stats with rp_healed = stats.rp_healed + 1 }
                  rest
              | None ->
                if quarantine then begin
                  let dropped = bad :: List.map fst rest in
                  Ok
                    ( List.rev acc,
                      true,
                      { stats with rp_quarantined = List.length dropped },
                      dropped )
                end
                else
                  Error
                    (Printf.sprintf "journal record %d is corrupt (not at the tail)"
                       (List.length acc + 1)))
        in
        match walk [] None no_replay_stats parsed with
        | Error _ as e -> e
        | Ok (records, rewrite, stats, dropped) -> (
          let apply () =
            List.fold_left
              (fun r (seq, tree) ->
                match r with
                | Error _ as e -> e
                | Ok n ->
                  let count = Incremental.n_trees inc in
                  if seq < count then Ok n (* already covered by the snapshot *)
                  else if seq = count then begin
                    Incremental.insert inc tree;
                    Ok (n + 1)
                  end
                  else
                    Error
                      (Printf.sprintf
                         "journal gap: record seq %d but only %d trees known" seq count))
              (Ok 0) records
          in
          match apply () with
          | Error _ as e -> e
          | Ok applied ->
            if dropped <> [] then begin
              (* Dead-letter the unrepairable lines: moved aside, never
                 deleted — an operator (or a later fsck with a healthier
                 quorum) can still recover them. *)
              let q = journal_path dir ^ ".quarantine" in
              Out_channel.with_open_gen
                [ Open_append; Open_creat; Open_wronly ] 0o644 q (fun oc ->
                  List.iter
                    (fun l ->
                      output_string oc l;
                      output_char oc '\n')
                    dropped)
            end;
            if rewrite || stats.rp_healed > 0 then begin
              (* Rewrite atomically so the next append starts on a clean
                 line; the torn bytes belonged to an unacknowledged add.
                 The directory fsync in [Durable.rename] makes the
                 rewrite survive a machine crash too. *)
              let tmp = path ^ ".tmp" in
              Out_channel.with_open_text tmp (fun oc ->
                  (match header with
                  | Some (epoch, base) ->
                    output_string oc (epoch_line ~epoch ~base);
                    output_char oc '\n'
                  | None -> ());
                  List.iter
                    (fun (seq, tree) ->
                      output_string oc (record_line ~seq tree);
                      output_char oc '\n')
                    records);
              Durable.rename tmp path;
              Integrity.write_seal path
            end;
            ignore applied;
            Ok (header, List.length records, stats))))

(* Atomically replace the journal with a header-only file carrying the
   store's current epoch.  Always a whole-file rename (never an
   in-place truncate) so the header's presence is crash-atomic. *)
let reset_journal t dir =
  (match t.journal with Some oc -> close_out_noerr oc | None -> ());
  let path = journal_path dir in
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc ->
      output_string oc (epoch_line ~epoch:t.epoch ~base:t.epoch_base);
      output_char oc '\n');
  Durable.rename tmp path;
  Integrity.write_seal path;
  t.journal <- Some (reopen_journal_for_append dir);
  t.journal_records <- 0

let build_merkle inc =
  let m = Integrity.Merkle.create () in
  for seq = 0 to Incremental.n_trees inc - 1 do
    Integrity.Merkle.push m (record_line ~seq (Incremental.tree inc seq))
  done;
  m

let open_ ?dir ?(dedup = false) ?heal ?(quarantine = false) ~tau () =
  if tau < 0 then Error "Store.open_: negative threshold"
  else
    match dir with
    | None ->
      Ok
        {
          dir = None;
          tau;
          dedup;
          inc = Incremental.create ~tau ();
          journal = None;
          journal_records = 0;
          fsyncs = 0;
          dedups = 0;
          epoch = 0;
          epoch_base = 0;
          merkle = Integrity.Merkle.create ();
          scrubbed = 0;
          crc_failures = 0;
          repaired = 0;
          quarantined = 0;
          scrub_cursor = 0;
        }
    | Some dir -> (
      match
        if Sys.file_exists dir then if Sys.is_directory dir then Ok () else Error (dir ^ " is not a directory")
        else (
          Unix.mkdir dir 0o755;
          Ok ())
      with
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | Error _ as e -> e
      | Ok () -> (
        (* A snapshot's τ wins over the requested one: restart must
           reproduce the pre-crash index exactly, and the partitioning
           grain δ = 2τ + 1 is baked into it. *)
        let snapshot = snapshot_path dir in
        let snap_quarantined = ref 0 in
        let loaded =
          if not (Sys.file_exists snapshot) then Ok (tau, [||])
          else begin
            (* The snapshot's records carry no per-line checksums — the
               seal is its integrity cover, checked before parsing.  A
               bad snapshot is either quarantined (moved aside; a
               replica refills from the quorum by syncing from 0) or,
               without [quarantine], refuses the open. *)
            let sealed =
              match Integrity.check_seal snapshot with
              | r -> r
              | exception Durable.Disk_fault f -> Error (Durable.fault_to_string f)
            in
            match sealed with
            | Error detail when quarantine ->
              incr snap_quarantined;
              Durable.rename snapshot (snapshot ^ ".quarantine");
              Integrity.drop_seal snapshot;
              ignore detail;
              Ok (tau, [||])
            | Error detail -> Error ("integrity: " ^ detail)
            | Ok _ -> (
              match Durable.read_file snapshot with
              | exception Durable.Disk_fault f -> Error (Durable.fault_to_string f)
              | contents -> collection_of_string contents)
          end
        in
        match loaded with
        | Error msg -> Error ("snapshot: " ^ msg)
        | Ok (tau, trees) -> (
          let inc = Incremental.create ~tau () in
          Array.iter (Incremental.insert inc) trees;
          let fresh = not (Sys.file_exists (journal_path dir)) in
          match replay_journal ?heal ~quarantine inc dir with
          | Error msg -> Error ("journal: " ^ msg)
          | Ok (header, journal_records, rp) ->
            let epoch, epoch_base =
              match header with Some h -> h | None -> (0, 0)
            in
            let t =
              {
                dir = Some dir;
                tau;
                dedup;
                inc;
                journal = None;
                journal_records;
                fsyncs = 0;
                dedups = 0;
                epoch;
                epoch_base;
                merkle = build_merkle inc;
                scrubbed = 0;
                crc_failures = rp.rp_crc_failures + !snap_quarantined;
                repaired = rp.rp_healed;
                quarantined = rp.rp_quarantined + !snap_quarantined;
                scrub_cursor = 0;
              }
            in
            if fresh then reset_journal t dir
            else t.journal <- Some (reopen_journal_for_append dir);
            Ok t)))

let tau t = t.tau

let n_trees t = Incremental.n_trees t.inc

let journal_records t = t.journal_records

let fsyncs t = t.fsyncs

let dedups t = t.dedups

let epoch t = t.epoch

let epoch_base t = t.epoch_base

let scrub_counters t = (t.scrubbed, t.crc_failures, t.repaired, t.quarantined)

let note_repaired t n = t.repaired <- t.repaired + n

let digest t ~lo ~hi = Integrity.Merkle.range t.merkle ~lo ~hi

let merkle_root t = Integrity.Merkle.root t.merkle

let tree t id = Incremental.tree t.inc id

let record_for t seq = record_line ~seq (Incremental.tree t.inc seq)

(* The canonical record line for a tree that is not (or not yet) in any
   store — the heal path regenerates a rotted journal record from a
   tree fetched off a quorum peer via [GET]. *)
let render_record ~seq tree = record_line ~seq tree

(* Partners of the tree at [seq] as {!Incremental.add} originally
   returned them: every earlier tree within τ, sorted by id.  Recomputed
   from an unbudgeted (fully verified) query, so an idempotent ADD
   replay answers bit-identically to the original acknowledgement. *)
let partners_of t seq tree =
  let r = Incremental.query t.inc tree in
  r.Incremental.hits
  |> List.filter (fun (id, _) -> id < seq)
  |> List.sort (fun (i1, _) (i2, _) -> compare i1 i2)

(* Group commit, in three phases so a caller can drop its read lock for
   the slow one: {!stage_batch} classifies the whole batch against a
   simulated running sequence count (so the result array is exactly what
   applying the items one at a time would have produced) without
   touching disk or index; {!journal_staged} appends every fresh record
   and forces durability with ONE flush for the whole batch — that is
   the point of batching ({!fsyncs} counts these forces) and the only
   phase that blocks on the filesystem; {!index_staged} makes the batch
   visible.  Durability before visibility still holds batch-wide:
   nothing enters the index until the batch's records are on disk, and
   the [server.journal] hit point (payload = the first fresh seq of the
   batch) fires before the first byte is written, modelling a crash that
   loses the entire — wholly unacknowledged — batch.  The phases carry
   staged sequence numbers, so between stage and index no other writer
   may touch the store (the server serializes writers on a dedicated
   commit lock); readers are unaffected. *)
type staged = {
  st_cls :
    [ `Fresh of int * Tsj_tree.Tree.t
    | `Replay of int * Tsj_tree.Tree.t
    | `Dedup of int * Tsj_tree.Tree.t
    | `Bad of string ]
    array;
  st_first_fresh : int option;
}

(* Journal records, snapshots and the replication stream are lines, so
   a label holding a line break could be acknowledged but never read
   back: such a tree is refused, never journaled.  Whether a label holds
   one is decided once per label id, when it is interned. *)
let rec has_line_break (tree : Tsj_tree.Tree.t) =
  Tsj_tree.Label.has_line_break tree.label || List.exists has_line_break tree.children

let stage_batch t items =
  let n = Array.length items in
  let n0 = Incremental.n_trees t.inc in
  let count = ref n0 in
  (* seq -> tree for items fresh in this batch, so a pipelined replay of
     a not-yet-indexed seq still validates against the right tree *)
  let fresh_trees = Hashtbl.create (max 8 n) in
  (* bracket string -> staged seq, for dedup against trees fresh in this
     same batch (not yet in the index's exact-match hash) *)
  let fresh_brackets = Hashtbl.create (max 8 n) in
  let cls =
    Array.map
      (fun (seq_opt, tree) ->
        let fresh () =
          (* Whole-tree dedup (opt-in): a seq-less ADD of a tree the
             store already holds is answered as the original sequence
             number with the original partner list, and never journaled.
             Explicit-seq adds are exempt — their seq binding is part of
             the retry contract. *)
          let equal_existing () =
            if not t.dedup then None
            else
              match Incremental.find_equal t.inc tree with
              | Some s -> Some s
              | None -> Hashtbl.find_opt fresh_brackets (Bracket.to_string tree)
          in
          match (seq_opt, equal_existing ()) with
          | None, Some s -> `Dedup (s, tree)
          | _ ->
            let s = !count in
            incr count;
            Hashtbl.replace fresh_trees s tree;
            if t.dedup then
              (let key = Bracket.to_string tree in
               if not (Hashtbl.mem fresh_brackets key) then
                 Hashtbl.add fresh_brackets key s);
            `Fresh (s, tree)
        in
        match seq_opt with
        | _ when has_line_break tree -> `Bad "a label with a line break cannot be journaled"
        | None -> fresh ()
        | Some s when s = !count -> fresh ()
        | Some s when s > !count ->
          `Bad (Printf.sprintf "seq gap: ADD seq %d but only %d trees known" s !count)
        | Some s ->
          let same =
            if s < n0 then Incremental.same_tree t.inc s tree
            else Tsj_tree.Tree.equal (Hashtbl.find fresh_trees s) tree
          in
          if not same then
            `Bad (Printf.sprintf "seq %d is already bound to a different tree" s)
          else `Replay (s, tree))
      items
  in
  let first_fresh =
    Array.fold_left
      (fun acc c ->
        match (acc, c) with None, `Fresh (s, _) -> Some s | _ -> acc)
      None cls
  in
  { st_cls = cls; st_first_fresh = first_fresh }

let journal_staged t staged =
  match (t.dir, t.journal, staged.st_first_fresh) with
  | None, _, _ | _, _, None -> Ok ()
  | Some _, None, Some _ ->
    (* a previous repair failed and closed the channel: refuse rather
       than silently acknowledge unjournaled writes *)
    Error "journal unavailable after a disk fault"
  | Some dir, Some oc, Some s0 -> (
    Fault.hit "server.journal" s0;
    let path = journal_path dir in
    let before = t.journal_records in
    match
      Array.iter
        (function
          | `Fresh (s, tree) ->
            Durable.append_line ~path oc (record_line ~seq:s tree);
            t.journal_records <- t.journal_records + 1
          | _ -> ())
        staged.st_cls;
      Durable.flush_channel ~path oc
    with
    | () ->
      t.fsyncs <- t.fsyncs + 1;
      Ok ()
    | exception Durable.Disk_fault f ->
      (* Nothing of the batch is durable or visible.  Restore the record
         count and rewrite the journal to its valid prefix so the next
         append starts on a clean line boundary. *)
      t.journal_records <- before;
      repair_journal t;
      Error (Durable.fault_to_string f))

let index_staged t staged =
  let cls = staged.st_cls in
  let results = Array.make (Array.length cls) (Error "unprocessed") in
  (* Index fresh trees in seq order first, then answer replays: a replay
     of a seq fresh in this same batch needs it indexed to recompute the
     original partner list. *)
  Array.iteri
    (fun i c ->
      match c with
      | `Fresh (s, tree) ->
        results.(i) <- Ok (s, Incremental.add t.inc tree);
        Integrity.Merkle.push t.merkle (record_line ~seq:s tree)
      | _ -> ())
    cls;
  Array.iteri
    (fun i c ->
      match c with
      | `Replay (s, tree) -> results.(i) <- Ok (s, partners_of t s tree)
      | `Dedup (s, tree) ->
        (* Answered exactly like an idempotent replay of the original
           ADD: its seq and its partner list.  Nothing was journaled, so
           replicas see nothing — the answer is derived state. *)
        t.dedups <- t.dedups + 1;
        results.(i) <- Ok (s, partners_of t s tree)
      | `Bad msg -> results.(i) <- Error msg
      | `Fresh _ -> ())
    cls;
  results

let add_batch t items =
  let staged = stage_batch t items in
  match journal_staged t staged with
  | Ok () -> index_staged t staged
  | Error reason ->
    (* The batch never reached the disk: answer every item with the
       typed disk-fault error (a replay that could have been re-answered
       from the index alone is refused too — the caller cannot tell the
       classes apart, and a uniform refusal is the conservative one). *)
    Array.map (fun _ -> Error reason) items

let add_seq t ?seq tree = (add_batch t [| (seq, tree) |]).(0)

let add t tree =
  match (add_batch t [| (None, tree) |]).(0) with
  | Ok r -> r
  | Error msg -> failwith msg (* unreachable: a seq-less add cannot conflict *)

(* Apply one raw journal record pushed over a replication stream.  The
   checksum is re-verified here — a flipped bit in transit must not
   reach the journal.  Durability before ack: the record is appended
   and flushed before it enters the index, exactly as {!add}. *)
let apply_record t line =
  match parse_record line with
  | None -> Error "record is corrupt (bad checksum or syntax)"
  | Some (seq, tree) ->
    let n = Incremental.n_trees t.inc in
    if seq < n then Ok n (* idempotent skip: already applied *)
    else if seq > n then
      Error (Printf.sprintf "record gap: seq %d but only %d trees known" seq n)
    else begin
      let journaled =
        match (t.dir, t.journal) with
        | None, _ -> Ok ()
        | Some _, None -> Error "journal unavailable after a disk fault"
        | Some dir, Some oc -> (
          let path = journal_path dir in
          let before = t.journal_records in
          match
            Durable.append_line ~path oc line;
            Durable.flush_channel ~path oc
          with
          | () ->
            t.fsyncs <- t.fsyncs + 1;
            t.journal_records <- before + 1;
            Ok ()
          | exception Durable.Disk_fault f ->
            t.journal_records <- before;
            repair_journal t;
            Error (Durable.fault_to_string f))
      in
      match journaled with
      | Error _ as e -> e
      | Ok () ->
        Incremental.insert t.inc tree;
        Integrity.Merkle.push t.merkle (record_line ~seq tree);
        Ok (n + 1)
    end

let query ?budget ?tau t q = Incremental.query ?budget ?tau t.inc q

let nearest ~k t q = Incremental.nearest ~k t.inc q

(* Snapshot, then reset the journal.  Both steps are individually
   crash-safe: the snapshot rename is atomic (and the directory fsynced,
   so the rename itself survives a machine crash), and a crash between
   it and the reset only leaves redundant journal records that replay
   skips by seq. *)
let flush t =
  match t.dir with
  | None -> ()
  | Some dir ->
    let trees = Array.init (Incremental.n_trees t.inc) (Incremental.tree t.inc) in
    save_collection ~tau:t.tau trees (snapshot_path dir);
    Integrity.write_seal (snapshot_path dir);
    reset_journal t dir

let set_epoch t ~epoch ~base =
  t.epoch <- epoch;
  t.epoch_base <- base;
  (* Snapshot first, then publish the new header: a crash between the
     two leaves the old epoch and no data loss — the caller's promotion
     or adoption simply did not happen. *)
  flush t

let truncate_to t n =
  let cur = Incremental.n_trees t.inc in
  if n < 0 then invalid_arg "Store.truncate_to: negative length"
  else if n < cur then begin
    let trees = Array.init n (Incremental.tree t.inc) in
    let inc = Incremental.create ~tau:t.tau () in
    Array.iter (Incremental.insert inc) trees;
    t.inc <- inc;
    Integrity.Merkle.truncate t.merkle n;
    flush t
  end

(* --- background scrub --- *)

type scrub_report = {
  sc_verified : int;  (** journal records re-read and re-verified *)
  sc_findings : Integrity.corrupt list;  (** corruptions detected this pass *)
  sc_repaired : int;  (** surfaces rewritten clean from memory *)
}

(* One budgeted scrub pass: re-read up to [budget] journal records from
   disk (resuming at a rotating cursor) and verify each against the
   canonical record regenerated from the in-memory index — strictly
   stronger than a CRC check — plus, when the cursor wraps, the journal
   epoch header and the snapshot seal.  Any finding is repaired by
   rewriting the offending surface from memory (the index is
   authoritative: every record in it passed its checksum when it was
   applied).  Read-side disk faults surface as findings too, but skip
   the repair — rewriting over a flaky read would be guessing. *)
let scrub_step ?(budget = 128) t =
  let clean = { sc_verified = 0; sc_findings = []; sc_repaired = 0 } in
  match t.dir with
  | None -> clean
  | Some dir ->
    let jpath = journal_path dir in
    let n = Incremental.n_trees t.inc in
    let findings = ref [] in
    let repairable = ref false in
    let note ?seq surface path detail =
      findings :=
        { Integrity.c_surface = surface; c_path = path; c_seq = seq; c_detail = detail }
        :: !findings
    in
    let verified = ref 0 in
    (match Durable.read_file jpath with
    | exception Durable.Disk_fault f ->
      note Integrity.Journal jpath (Durable.fault_to_string f)
    | contents ->
      let lines =
        List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' contents)
      in
      let header, records =
        match lines with
        | first :: rest when String.length first >= 6 && String.sub first 0 6 = "epoch " ->
          (Some first, rest)
        | _ -> (None, lines)
      in
      let records = Array.of_list records in
      let on_disk = Array.length records in
      (* The disk journal holds the records since the last flush, in seq
         order: position i is seq (n - journal_records + i). *)
      let base = n - t.journal_records in
      if on_disk <> t.journal_records then begin
        note Integrity.Journal jpath
          (Printf.sprintf "journal holds %d records, expected %d" on_disk
             t.journal_records);
        repairable := true
      end
      else begin
        let start = if t.scrub_cursor >= on_disk then 0 else t.scrub_cursor in
        if start = 0 then begin
          (* cursor wrapped: also re-check the header and the seal *)
          (match header with
          | Some h when parse_epoch_line h <> None -> ()
          | Some _ ->
            note Integrity.Journal jpath "epoch header checksum mismatch";
            repairable := true
          | None ->
            if t.epoch > 0 || t.epoch_base > 0 then begin
              note Integrity.Journal jpath "epoch header missing";
              repairable := true
            end);
          match Integrity.check_seal jpath with
          | Ok _ -> ()
          | Error detail ->
            note Integrity.Journal jpath detail;
            repairable := true
          | exception Durable.Disk_fault f ->
            note Integrity.Journal jpath (Durable.fault_to_string f)
        end;
        let stop = min on_disk (start + budget) in
        for i = start to stop - 1 do
          incr verified;
          let seq = base + i in
          if records.(i) <> record_line ~seq (Incremental.tree t.inc seq) then begin
            note ~seq Integrity.Journal jpath "record differs from the indexed tree";
            repairable := true
          end
        done;
        t.scrub_cursor <- (if stop >= on_disk then 0 else stop)
      end);
    (* The snapshot: cheap (one seal line + one digest of the file), so
       verify it whenever the journal cursor is at the top. *)
    if t.scrub_cursor = 0 && Sys.file_exists (snapshot_path dir) then begin
      match Integrity.check_seal (snapshot_path dir) with
      | Ok _ -> ()
      | Error detail ->
        note Integrity.Snapshot (snapshot_path dir) detail;
        repairable := true
      | exception Durable.Disk_fault f ->
        note Integrity.Snapshot (snapshot_path dir) (Durable.fault_to_string f)
    end;
    let repaired = ref 0 in
    if !repairable then begin
      (* Converge the disk to the in-memory truth: re-snapshot and
         rewrite the journal (both atomic), then reseal.  One repair
         covers every finding of the pass. *)
      flush t;
      incr repaired
    end;
    t.scrubbed <- t.scrubbed + !verified;
    t.crc_failures <- t.crc_failures + List.length !findings;
    t.repaired <- t.repaired + !repaired;
    {
      sc_verified = !verified;
      sc_findings = List.rev !findings;
      sc_repaired = !repaired;
    }

let close t =
  flush t;
  (match t.journal with Some oc -> close_out_noerr oc | None -> ());
  t.journal <- None
