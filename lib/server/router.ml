module Tree = Tsj_tree.Tree
module Prng = Tsj_util.Prng
module Durable = Tsj_util.Durable
module Text = Tsj_util.Text
module Timer = Tsj_util.Timer
module Vec_int = Tsj_util.Vec_int

type answer = {
  a_degraded : bool;
  a_hits : (int * int) list;
  a_unverified : (int * int * int) list;
}

(* --- the pure merge --- *)

module Merge = struct
  type shard_answer =
    | Answer of {
        degraded : bool;
        hits : (int * int) list;
        unverified : (int * int * int) list;
      }
    | Unreachable

  let rec take k = function
    | [] -> []
    | _ when k <= 0 -> []
    | x :: tl -> x :: take (k - 1) tl

  (* Conflicting sandwich claims for the same gid widen to the union:
     under garbage input nothing is trustworthy, and the union is the
     only combination that stays sound whenever either claim was. *)
  let widen tbl gid lo hi =
    match Hashtbl.find_opt tbl gid with
    | None -> Hashtbl.replace tbl gid (lo, hi)
    | Some (lo', hi') -> Hashtbl.replace tbl gid (min lo lo', max hi hi')

  (* Gather phase shared by query and knn: exact distances keyed by gid
     (duplicates keep the smallest claim), sandwiches keyed by gid, and
     the degraded flag.  Every shard-local id goes through [to_gid];
     anything unmappable or out of the [0, tau] distance range is
     dropped and degrades the answer — a malformed or byzantine reply
     can remove precision but never invent a result. *)
  let collect ~query_size ~tau ~to_gid ~resident answers =
    let degraded = ref false in
    let exact = Hashtbl.create 64 in
    let sand = Hashtbl.create 16 in
    List.iter
      (fun (shard, a) ->
        match a with
        | Unreachable ->
          degraded := true;
          List.iter
            (fun (gid, size) ->
              if abs (size - query_size) <= tau then begin
                let lo, hi = Shard.sandwich ~query_size size in
                widen sand gid lo hi
              end)
            (resident ~shard)
        | Answer { degraded = d; hits; unverified } ->
          if d then degraded := true;
          List.iter
            (fun (lid, dist) ->
              match to_gid ~shard lid with
              | Some gid when 0 <= dist && dist <= tau -> (
                match Hashtbl.find_opt exact gid with
                | Some d' when d' <= dist -> ()
                | _ -> Hashtbl.replace exact gid dist)
              | _ -> degraded := true)
            hits;
          List.iter
            (fun (lid, lo, hi) ->
              match to_gid ~shard lid with
              | Some gid when 0 <= lo && lo <= hi -> widen sand gid lo hi
              | _ -> degraded := true)
            unverified)
      answers;
    (degraded, exact, sand)

  let finish ?cap ~tau (degraded, exact, sand) =
    let hits =
      Hashtbl.fold (fun gid d acc -> (gid, d) :: acc) exact []
      |> List.sort (fun (i1, d1) (i2, d2) -> compare (d1, i1) (d2, i2))
    in
    let hits = match cap with None -> hits | Some k -> take k hits in
    let unverified =
      Hashtbl.fold
        (fun gid (lo, hi) acc ->
          if Hashtbl.mem exact gid || lo > tau then acc else (gid, lo, hi) :: acc)
        sand []
      |> List.sort (fun (i1, _, _) (i2, _, _) -> compare i1 i2)
    in
    {
      a_degraded = !degraded || unverified <> [];
      a_hits = hits;
      a_unverified = unverified;
    }

  let query ~query_size ~tau ~to_gid ~resident answers =
    finish ~tau (collect ~query_size ~tau ~to_gid ~resident answers)

  let knn ~k ~query_size ~tau ~to_gid ~resident answers =
    finish ~cap:k ~tau (collect ~query_size ~tau ~to_gid ~resident answers)
end

(* --- router state --- *)

type config = {
  map : Shard.map;
  tau : int;
  groups : Protocol.addr list array;
  timeout_s : float;
  attempts : int;
  ledger : string option;
  seed : int;
  hedge_s : float option;
  margin_ms : int;
}

type group = {
  mutable g_addrs : Protocol.addr list;
  g_lock : Mutex.t;  (* held across a shard write; migration pauses here *)
  g_gids : Vec_int.t;  (* lseq -> gid *)
}

type t = {
  r_map : Shard.map;
  r_tau : int;
  r_timeout_s : float;
  r_attempts : int;
  r_seed : int;
  r_hedge_s : float option;
  r_margin_ms : int;
  r_groups : group array;
  (* the ledger: gid -> (shard, lseq, size) *)
  r_shard : Vec_int.t;
  r_lseq : Vec_int.t;
  r_size : Vec_int.t;
  mutable r_ledger : (string * out_channel) option;
  r_ledger_mutex : Mutex.t;  (* guards the vectors, g_gids and the channel *)
  r_add_mutex : Mutex.t;  (* serialises gid assignment end to end *)
  r_counter : int Atomic.t;  (* per-call PRNG substreams *)
  r_queries : int Atomic.t;
  r_adds : int Atomic.t;
  r_degraded : int Atomic.t;
  r_errors : int Atomic.t;
  (* integrity telemetry, as the store's [scrub_counters] *)
  r_scrubbed : int Atomic.t;
  r_crc_failures : int Atomic.t;
  r_repaired : int Atomic.t;
  r_quarantined : int Atomic.t;
  (* hedged-read telemetry: legs fired past the latency threshold, and
     how many of those supplied the winning answer *)
  r_hedges : int Atomic.t;
  r_hedge_wins : int Atomic.t;
}

let failover t addrs =
  let n = Atomic.fetch_and_add t.r_counter 1 in
  let rng = Prng.create (t.r_seed + (7919 * (n + 1))) in
  Client.Failover.create ~attempts:t.r_attempts ~base_delay_s:0.01 ~max_delay_s:0.1
    ~deadline_s:t.r_timeout_s ~timeout_s:t.r_timeout_s ~rng addrs

(* --- ledger --- *)

let ledger_line ~gid ~shard ~lseq ~size =
  let payload = Printf.sprintf "map %d %d %d %d" gid shard lseq size in
  payload ^ " " ^ Text.fnv1a64_hex payload

let parse_ledger_line line =
  match String.rindex_opt line ' ' with
  | None -> None
  | Some i ->
    let payload = String.sub line 0 i in
    let crc = String.sub line (i + 1) (String.length line - i - 1) in
    if Text.fnv1a64_hex payload <> crc then None
    else (
      match String.split_on_char ' ' payload with
      | [ "map"; g; s; l; z ] -> (
        match
          (int_of_string_opt g, int_of_string_opt s, int_of_string_opt l, int_of_string_opt z)
        with
        | Some g, Some s, Some l, Some z -> Some (g, s, l, z)
        | _ -> None)
      | _ -> None)

(* Rewrite the ledger file from memory — the recovery for both a torn
   tail found at load and a mid-append disk fault (the same move the
   store's journal makes: an atomic whole-file replacement regenerated
   from the authoritative in-memory state). *)
let rewrite_ledger_locked t path =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      let n = Vec_int.length t.r_shard in
      for gid = 0 to n - 1 do
        output_string oc
          (ledger_line ~gid ~shard:(Vec_int.get t.r_shard gid)
             ~lseq:(Vec_int.get t.r_lseq gid) ~size:(Vec_int.get t.r_size gid));
        output_char oc '\n'
      done);
  Durable.rename tmp path;
  Integrity.write_seal path;
  open_out_gen [ Open_append; Open_creat ] 0o644 path

(* Called with [r_ledger_mutex] held after a [Disk_fault] mid-append:
   drop the (possibly torn) channel and rebuild the file.  If even the
   rewrite fails the router degrades to ledgerless operation — adds
   keep committing, recovery falls back to shard reconciliation. *)
let repair_ledger_locked t =
  match t.r_ledger with
  | None -> ()
  | Some (path, oc) ->
    close_out_noerr oc;
    t.r_ledger <- None;
    (try t.r_ledger <- Some (path, rewrite_ledger_locked t path)
     with Durable.Disk_fault _ | Sys_error _ -> ())

(* Bind the next gid.  Caller holds [r_ledger_mutex]; the ledger append
   is durable before the in-memory maps change, so an acked gid is
   always recoverable.  @raise Durable.Disk_fault after repairing. *)
let bind_locked t ~shard ~lseq ~size =
  let gid = Vec_int.length t.r_shard in
  (match t.r_ledger with
  | None -> ()
  | Some (path, oc) -> (
    try
      Durable.append_line ~path oc (ledger_line ~gid ~shard ~lseq ~size);
      Durable.flush_channel ~path oc
    with Durable.Disk_fault _ as f ->
      repair_ledger_locked t;
      raise f));
  Vec_int.push t.r_shard shard;
  Vec_int.push t.r_lseq lseq;
  Vec_int.push t.r_size size;
  Vec_int.push t.r_groups.(shard).g_gids gid;
  gid

(* --- accessors --- *)

let n_trees t = Mutex.protect t.r_ledger_mutex (fun () -> Vec_int.length t.r_shard)

let map t = t.r_map

let tau t = t.r_tau

let locate t gid =
  Mutex.protect t.r_ledger_mutex (fun () ->
      if gid >= 0 && gid < Vec_int.length t.r_shard then
        Some (Vec_int.get t.r_shard gid, Vec_int.get t.r_lseq gid, Vec_int.get t.r_size gid)
      else None)

let group_addrs t s = Mutex.protect t.r_groups.(s).g_lock (fun () -> t.r_groups.(s).g_addrs)

let set_group_addrs t s addrs =
  if addrs = [] then invalid_arg "Router.set_group_addrs: empty group";
  Mutex.protect t.r_groups.(s).g_lock (fun () -> t.r_groups.(s).g_addrs <- addrs)

let to_gid t ~shard lid =
  Mutex.protect t.r_ledger_mutex (fun () ->
      let g = t.r_groups.(shard).g_gids in
      if lid >= 0 && lid < Vec_int.length g then Some (Vec_int.get g lid) else None)

let resident t ~shard =
  Mutex.protect t.r_ledger_mutex (fun () ->
      let g = t.r_groups.(shard).g_gids in
      let acc = ref [] in
      for i = Vec_int.length g - 1 downto 0 do
        let gid = Vec_int.get g i in
        acc := (gid, Vec_int.get t.r_size gid) :: !acc
      done;
      !acc)

(* --- orphan adoption / reconciliation --- *)

(* Adopt shard-acked trees the ledger does not know, in lseq order, by
   fetching each via GET.  Caller holds the shard's [g_lock] (and the
   add mutex when racing writers matter).  Best effort: stops at the
   first fetch or ledger failure — the remainder is adopted by a later
   pass. *)
let adopt_locked t s fo ~upto =
  let g = t.r_groups.(s) in
  let n = ref 0 in
  (try
     while Vec_int.length g.g_gids < upto do
       let lseq = Vec_int.length g.g_gids in
       match Client.Failover.request fo (Protocol.Get lseq) with
       | Ok (Protocol.Tree_reply { tree; _ }) ->
         Mutex.protect t.r_ledger_mutex (fun () ->
             ignore (bind_locked t ~shard:s ~lseq ~size:(Tree.size tree)));
         incr n
       | _ -> raise Exit
     done
   with Exit | Durable.Disk_fault _ -> ());
  !n

let reconcile t =
  let adopted = ref 0 in
  Mutex.protect t.r_add_mutex (fun () ->
      Array.iteri
        (fun s g ->
          Mutex.protect g.g_lock (fun () ->
              let fo = failover t g.g_addrs in
              match Client.Failover.request fo Protocol.Stats with
              | Ok (Protocol.Stats_reply st) ->
                adopted := !adopted + adopt_locked t s fo ~upto:st.trees
              | _ -> ()))
        t.r_groups);
  !adopted

(* --- create / close --- *)

let read_lines path =
  let ic = open_in path in
  let acc = ref [] in
  (try
     while true do
       acc := input_line ic :: !acc
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !acc

(* Replay one checksummed ledger entry into the in-memory maps.  The
   checks are structural: gids and per-shard lseqs must arrive dense
   and in order, exactly as the append path writes them. *)
let replay_entry t (gid, shard, lseq, size) =
  if gid <> Vec_int.length t.r_shard then
    Error (Printf.sprintf "gid %d out of order (expected %d)" gid (Vec_int.length t.r_shard))
  else if shard < 0 || shard >= Array.length t.r_groups then
    Error (Printf.sprintf "gid %d names shard %d of %d" gid shard (Array.length t.r_groups))
  else if lseq <> Vec_int.length t.r_groups.(shard).g_gids then
    Error
      (Printf.sprintf "gid %d: shard %d lseq %d out of order (expected %d)" gid shard lseq
         (Vec_int.length t.r_groups.(shard).g_gids))
  else if size < 1 then Error (Printf.sprintf "gid %d: tree size %d" gid size)
  else begin
    Vec_int.push t.r_shard shard;
    Vec_int.push t.r_lseq lseq;
    Vec_int.push t.r_size size;
    Vec_int.push t.r_groups.(shard).g_gids gid;
    Ok ()
  end

(* Dead-letter a ledger line (or a whole suffix): appended to
   [<path>.quarantine], counted, never deleted — an operator can audit
   what was given up on. *)
let quarantine_ledger_lines path lines =
  if lines <> [] then begin
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 (path ^ ".quarantine") in
    List.iter
      (fun l ->
        output_string oc l;
        output_char oc '\n')
      lines;
    close_out_noerr oc
  end

(* Reconstruct the entry a corrupt mid-ledger line must have bound,
   from the structural invariants plus shard-acked state: its gid is
   the next dense gid; the shard it named is the one whose first
   subsequent entry skips exactly one lseq; and the tree size — gone
   from the ledger — is re-measured by fetching the tree from that
   shard via [GET] (the shard acked the add, so it has it).  Returns
   [None] when the suffix does not pin the entry down (the shard never
   appears again, a second corrupt line intervenes, or the fetch
   fails). *)
let heal_ledger_entry t rest =
  let gid = Vec_int.length t.r_shard in
  let expected = Array.map (fun g -> Vec_int.length g.g_gids) t.r_groups in
  let ruled_out = Array.make (Array.length t.r_groups) false in
  let rec find = function
    | [] -> None
    | line :: more -> (
      match parse_ledger_line line with
      | None -> None
      | Some (_, s, l, _) ->
        if s < 0 || s >= Array.length t.r_groups then None
        else if ruled_out.(s) then find more
        else if l = expected.(s) + 1 then Some s
        else if l = expected.(s) then begin
          ruled_out.(s) <- true;
          find more
        end
        else None)
  in
  match find rest with
  | None -> None
  | Some shard -> (
    let lseq = expected.(shard) in
    let fo = failover t t.r_groups.(shard).g_addrs in
    match Client.Failover.request fo (Protocol.Get lseq) with
    | Ok (Protocol.Tree_reply { tree; _ }) -> Some (gid, shard, lseq, Tree.size tree)
    | _ -> None)

let load_ledger t path =
  let lines = if Sys.file_exists path then read_lines path else [] in
  (* A line that fails its checksum at the very end is a torn tail
     (dropped — nothing beyond it was acked, appends are flushed in
     order).  Mid-file it is bit rot over acked state: the entry is
     healed from shard-acked state when the suffix pins it down
     ({!heal_ledger_entry}), else the line and the suffix behind it are
     quarantined and a later {!reconcile} re-adopts those trees under
     fresh gids.  A line that passes its checksum but violates the
     structural invariants is not bit rot (the checksum covers the
     payload) and still refuses to load. *)
  let torn = ref 0 and healed = ref 0 and quarantined = ref 0 in
  let rec replay = function
    | [] -> Ok ()
    | line :: rest -> (
      match parse_ledger_line line with
      | Some entry -> (
        match replay_entry t entry with
        | Error e -> Error e
        | Ok () -> replay rest)
      | None when rest = [] ->
        incr torn;
        Ok ()
      | None -> (
        match heal_ledger_entry t rest with
        | Some entry -> (
          match replay_entry t entry with
          | Error e -> Error e
          | Ok () ->
            incr healed;
            quarantine_ledger_lines path [ line ];
            replay rest)
        | None ->
          quarantined := 1 + List.length rest;
          quarantine_ledger_lines path (line :: rest);
          Ok ()))
  in
  match replay lines with
  | Error e -> Error e
  | Ok () ->
    let seal_bad =
      match Integrity.check_seal path with
      | Ok _ -> false
      | Error _ -> true
      | exception Durable.Disk_fault _ -> false
    in
    let findings = !torn + !healed + !quarantined + Bool.to_int seal_bad in
    Atomic.set t.r_crc_failures (Atomic.get t.r_crc_failures + findings);
    Atomic.set t.r_repaired (Atomic.get t.r_repaired + !healed);
    Atomic.set t.r_quarantined (Atomic.get t.r_quarantined + !quarantined);
    (try
       let oc =
         if findings > 0 then rewrite_ledger_locked t path
         else open_out_gen [ Open_append; Open_creat ] 0o644 path
       in
       t.r_ledger <- Some (path, oc);
       Ok ()
     with
    | Durable.Disk_fault f -> Error (Durable.fault_to_string f)
    | Sys_error m -> Error m)

let create (config : config) =
  let shards = config.map.Shard.shards in
  if Array.length config.groups <> shards then
    Error
      (Printf.sprintf "router: %d groups for %d shards" (Array.length config.groups) shards)
  else if Array.exists (fun l -> l = []) config.groups then
    Error "router: every shard needs at least one address"
  else if config.timeout_s <= 0.0 then Error "router: per-shard deadline must be positive"
  else if config.attempts < 1 then Error "router: attempts must be >= 1"
  else if config.tau < 0 then Error "router: negative threshold"
  else if (match config.hedge_s with Some h -> h <= 0.0 | None -> false) then
    Error "router: hedge threshold must be positive"
  else if config.margin_ms < 0 then Error "router: negative response margin"
  else begin
    let t =
      {
        r_map = config.map;
        r_tau = config.tau;
        r_timeout_s = config.timeout_s;
        r_attempts = config.attempts;
        r_seed = config.seed;
        r_hedge_s = config.hedge_s;
        r_margin_ms = config.margin_ms;
        r_groups =
          Array.map
            (fun addrs ->
              { g_addrs = addrs; g_lock = Mutex.create (); g_gids = Vec_int.create () })
            config.groups;
        r_shard = Vec_int.create ();
        r_lseq = Vec_int.create ();
        r_size = Vec_int.create ();
        r_ledger = None;
        r_ledger_mutex = Mutex.create ();
        r_add_mutex = Mutex.create ();
        r_counter = Atomic.make 0;
        r_queries = Atomic.make 0;
        r_adds = Atomic.make 0;
        r_degraded = Atomic.make 0;
        r_errors = Atomic.make 0;
        r_scrubbed = Atomic.make 0;
        r_crc_failures = Atomic.make 0;
        r_repaired = Atomic.make 0;
        r_quarantined = Atomic.make 0;
        r_hedges = Atomic.make 0;
        r_hedge_wins = Atomic.make 0;
      }
    in
    match config.ledger with
    | Some path -> (
      match load_ledger t path with
      | Error e -> Error ("router ledger: " ^ e)
      | Ok () ->
        ignore (reconcile t);
        Ok t)
    | None ->
      ignore (reconcile t);
      Ok t
  end

let close t =
  Mutex.protect t.r_ledger_mutex (fun () ->
      match t.r_ledger with
      | None -> ()
      | Some (_, oc) ->
        close_out_noerr oc;
        t.r_ledger <- None)

(* --- scrub --- *)

(* One ledger scrub pass: re-read the file and verify every line
   against the canonical line regenerated from the in-memory maps
   (authoritative — each entry passed its checksum when applied), plus
   the seal.  Disk-level rot is repaired by converging disk to memory
   (an atomic rewrite + reseal); a read fault is a finding but nothing
   to repair over.  Returns [(lines_verified, findings)]. *)
let scrub_ledger t =
  Mutex.protect t.r_ledger_mutex (fun () ->
      match t.r_ledger with
      | None -> (0, [])
      | Some (path, _) -> (
        match Durable.read_file path with
        | exception Durable.Disk_fault f ->
          let findings =
            [ { Integrity.c_surface = Ledger; c_path = path; c_seq = None;
                c_detail = Durable.fault_to_string f } ]
          in
          Atomic.incr t.r_crc_failures;
          (0, findings)
        | contents ->
          let lines =
            List.filter (fun l -> l <> "") (String.split_on_char '\n' contents)
          in
          let n = Vec_int.length t.r_shard in
          let findings = ref [] in
          let finding gid detail =
            findings :=
              { Integrity.c_surface = Ledger; c_path = path; c_seq = gid;
                c_detail = detail }
              :: !findings
          in
          let verified = ref 0 in
          List.iteri
            (fun gid line ->
              if gid < n then begin
                incr verified;
                let want =
                  ledger_line ~gid ~shard:(Vec_int.get t.r_shard gid)
                    ~lseq:(Vec_int.get t.r_lseq gid) ~size:(Vec_int.get t.r_size gid)
                in
                if not (String.equal line want) then
                  finding (Some gid) "entry diverges from the in-memory ledger"
              end)
            lines;
          if List.length lines <> n then
            finding None
              (Printf.sprintf "%d entries on disk, %d in memory" (List.length lines) n);
          (match Integrity.check_seal path with
          | Ok _ -> ()
          | Error d -> finding None d
          | exception Durable.Disk_fault f ->
            finding None (Durable.fault_to_string f));
          let findings = List.rev !findings in
          Atomic.set t.r_scrubbed (Atomic.get t.r_scrubbed + !verified);
          Atomic.set t.r_crc_failures
            (Atomic.get t.r_crc_failures + List.length findings);
          if findings <> [] then begin
            (match t.r_ledger with
            | Some (p, oc) -> (
              close_out_noerr oc;
              t.r_ledger <- None;
              try
                t.r_ledger <- Some (p, rewrite_ledger_locked t p);
                Atomic.incr t.r_repaired
              with Durable.Disk_fault _ | Sys_error _ -> ())
            | None -> ())
          end;
          (!verified, findings)))

(* --- writes --- *)

let add ?expect t tree =
  Atomic.incr t.r_adds;
  let size = Tree.size tree in
  let s = Shard.shard_of_size t.r_map size in
  let g = t.r_groups.(s) in
  let fail e =
    Atomic.incr t.r_errors;
    Error e
  in
  Mutex.protect t.r_add_mutex (fun () ->
      Mutex.protect g.g_lock (fun () ->
          match expect with
          | Some e when e <> Vec_int.length t.r_shard ->
            fail (Printf.sprintf "seq gap: next sequence is %d" (Vec_int.length t.r_shard))
          | _ -> (
            let fo = failover t g.g_addrs in
            match Client.Failover.add fo tree with
            | Error e -> fail e
            | Ok (Protocol.Added { id = lseq; partners }) ->
              let translate partners =
                List.filter_map
                  (fun (lid, d) ->
                    if lid >= 0 && lid < Vec_int.length g.g_gids then
                      Some (Vec_int.get g.g_gids lid, d)
                    else None)
                  partners
              in
              if lseq < Vec_int.length g.g_gids then
                (* The shard already held this tree (its dedup layer, or
                   a replayed ack): answer the existing binding. *)
                Ok (Vec_int.get g.g_gids lseq, translate partners)
              else begin
                if lseq > Vec_int.length g.g_gids then
                  (* shard-acked orphans from a previous router life
                     come first — gid order must follow lseq order *)
                  ignore (adopt_locked t s fo ~upto:lseq);
                if lseq <> Vec_int.length g.g_gids then
                  fail (Printf.sprintf "shard %d: cannot adopt orphans below lseq %d" s lseq)
                else
                  match
                    Mutex.protect t.r_ledger_mutex (fun () ->
                        bind_locked t ~shard:s ~lseq ~size)
                  with
                  | exception Durable.Disk_fault f -> fail (Durable.fault_to_string f)
                  | gid -> (
                    match expect with
                    | Some e when e <> gid ->
                      (* orphan adoption shifted the gid: the tree is
                         committed, but not at the requested binding *)
                      fail (Printf.sprintf "seq gap: bound at %d" gid)
                    | _ -> Ok (gid, translate partners))
              end
            | Ok (Protocol.Fenced e) -> fail (Printf.sprintf "shard %d fenced at epoch %d" s e)
            | Ok (Protocol.Busy _) -> fail (Printf.sprintf "shard %d busy" s)
            | Ok (Protocol.Err r) -> fail r
            | Ok _ -> fail "unexpected reply to ADD")))

(* --- scatter-gather reads --- *)

(* One shard's read, optionally hedged: leg 0 fails over across the
   group's addresses as before; if no leg has answered after [hedge_s],
   a second leg races it on the {e rotated} address list (a slow
   primary races a replica).  The first {e well-formed} [HITS] wins —
   replies are deterministic (same lseq-ordered store on every
   replica), so the race can change latency but never the answer.  The
   losing leg is abandoned, bounded by its own socket timeout. *)
let scatter_one t ?deadline_ms s request =
  let addrs = group_addrs t s in
  let to_answer = function
    | Ok (Protocol.Hits { degraded; hits; unverified }) ->
      Some (Merge.Answer { degraded; hits; unverified })
    | _ -> None
  in
  match t.r_hedge_s with
  | None ->
    let fo = failover t addrs in
    to_answer (Client.Failover.request fo ?deadline_ms request)
  | Some hedge_s ->
    let lock = Mutex.create () in
    let first = ref None in
    let finished = ref 0 in
    let legs = ref 0 in
    let spawn leg addr_list =
      incr legs;
      ignore
        (Thread.create
           (fun () ->
             let fo = failover t addr_list in
             let r = Client.Failover.request fo ?deadline_ms request in
             Mutex.protect lock (fun () ->
                 incr finished;
                 match to_answer r with
                 | Some a when !first = None -> first := Some (leg, a)
                 | _ -> ()))
           ())
    in
    spawn 0 addrs;
    let hedge_at = Timer.now () +. hedge_s in
    let hedged = ref false in
    (* OCaml's [Condition] has no timed wait, so the race is settled by
       a short polling loop; both legs are bounded by the per-shard
       failover deadline, so this terminates. *)
    let rec await () =
      let state =
        Mutex.protect lock (fun () ->
            match !first with
            | Some (leg, a) -> `Won (leg, a)
            | None -> if !finished >= !legs then `Lost else `Racing)
      in
      match state with
      | `Won (leg, a) ->
        if leg > 0 then Atomic.incr t.r_hedge_wins;
        Some a
      | `Lost -> None
      | `Racing ->
        if (not !hedged) && Timer.now () >= hedge_at then begin
          hedged := true;
          Atomic.incr t.r_hedges;
          let rotated = match addrs with [] | [ _ ] -> addrs | a :: tl -> tl @ [ a ] in
          spawn 1 rotated
        end;
        Thread.delay 0.002;
        await ()
    in
    await ()

let scatter t ?deadline_ms shards request =
  let results = Array.of_list (List.map (fun s -> (s, Merge.Unreachable)) shards) in
  let threads =
    List.mapi
      (fun i s ->
        Thread.create
          (fun () ->
            match scatter_one t ?deadline_ms s request with
            | Some a -> results.(i) <- (s, a)
            | None -> ())
          ())
      shards
  in
  List.iter Thread.join threads;
  Array.to_list results

(* The budget announced to the shards: the caller's remainder minus the
   router's response margin, so the router can still merge and answer
   within what the caller is willing to wait for. *)
let shard_deadline t deadline_ms =
  match deadline_ms with
  | None -> None
  | Some ms ->
    Some (Admission.Deadline.after_hop ~margin_ms:t.r_margin_ms ~elapsed_ms:0 ms)

let query t ?deadline_ms ~tau:tau' tree =
  if tau' < 0 then invalid_arg "Router.query: negative threshold";
  if tau' > t.r_tau then invalid_arg "Router.query: threshold above the index threshold";
  Atomic.incr t.r_queries;
  let query_size = Tree.size tree in
  let shards = Shard.shards_for t.r_map ~tau:tau' query_size in
  let answers =
    scatter t
      ?deadline_ms:(shard_deadline t deadline_ms)
      shards
      (Protocol.Query { tau = tau'; tree })
  in
  let a =
    Merge.query ~query_size ~tau:tau' ~to_gid:(to_gid t) ~resident:(resident t) answers
  in
  if a.a_degraded then Atomic.incr t.r_degraded;
  a

let knn t ?deadline_ms ~k tree =
  if k < 0 then invalid_arg "Router.knn: negative k";
  Atomic.incr t.r_queries;
  let query_size = Tree.size tree in
  let shards = Shard.shards_for t.r_map ~tau:t.r_tau query_size in
  let answers =
    scatter t
      ?deadline_ms:(shard_deadline t deadline_ms)
      shards
      (Protocol.Knn { k; tree })
  in
  let a =
    Merge.knn ~k ~query_size ~tau:t.r_tau ~to_gid:(to_gid t) ~resident:(resident t) answers
  in
  if a.a_degraded then Atomic.incr t.r_degraded;
  a

let hedges t = (Atomic.get t.r_hedges, Atomic.get t.r_hedge_wins)

(* --- migration --- *)

let migrate ?(deadline_s = 30.0) t ~shard ~target =
  if shard < 0 || shard >= Array.length t.r_groups then invalid_arg "Router.migrate: bad shard";
  if target = [] then invalid_arg "Router.migrate: empty target group";
  let g = t.r_groups.(shard) in
  Mutex.protect g.g_lock (fun () ->
      (* writes to this shard are paused for the whole cutover *)
      let fo_src = failover t g.g_addrs in
      match Client.Failover.request fo_src Protocol.Stats with
      | Ok (Protocol.Stats_reply st) -> (
        let want = st.Protocol.trees in
        let fo_tgt = failover t target in
        let deadline = Timer.now () +. deadline_s in
        let rec catchup () =
          match Client.Failover.request fo_tgt Protocol.Stats with
          | Ok (Protocol.Stats_reply st') when st'.Protocol.trees >= want -> Ok ()
          | Ok (Protocol.Stats_reply st') ->
            if Timer.now () < deadline then begin
              Thread.delay 0.02;
              catchup ()
            end
            else
              Error
                (Printf.sprintf "migration: target stuck at %d/%d trees" st'.Protocol.trees
                   want)
          | Ok _ -> Error "migration: unexpected reply to STATS"
          | Error e -> Error ("migration: target unreachable: " ^ e)
        in
        match catchup () with
        | Error _ as e -> e
        | Ok () -> (
          (* the epoch bump fences the source: a partitioned old
             primary can never accept another write for this shard *)
          match Client.Failover.request fo_tgt Protocol.Promote with
          | Ok (Protocol.Promoted _) ->
            g.g_addrs <- target;
            Ok ()
          | Ok (Protocol.Fenced e) ->
            Error (Printf.sprintf "migration: target fenced at epoch %d" e)
          | Ok _ -> Error "migration: unexpected reply to PROMOTE"
          | Error e -> Error ("migration: promote failed: " ^ e)))
      | Ok _ -> Error "migration: unexpected reply to STATS"
      | Error e -> Error ("migration: source unreachable: " ^ e))

(* --- stats --- *)

let stats t =
  let n = n_trees t in
  let ledgered = Mutex.protect t.r_ledger_mutex (fun () -> t.r_ledger <> None) in
  (* The replication fields and dedup are per-node and stay zero in the
     aggregate view; the serving front ({!Server.create_router}) fills
     in its own overload telemetry and drain flag. *)
  {
    Protocol.zero_stats with
    trees = n;
    tau = t.r_tau;
    queries = Atomic.get t.r_queries;
    adds = Atomic.get t.r_adds;
    degraded = Atomic.get t.r_degraded;
    errors = Atomic.get t.r_errors;
    quarantined = Atomic.get t.r_quarantined;
    journal_records = (if ledgered then n else 0);
    primary = true;
    scrubbed = Atomic.get t.r_scrubbed;
    crc_failures = Atomic.get t.r_crc_failures;
    repaired = Atomic.get t.r_repaired;
  }

(* --- the request handler --- *)

let answer_to_hits a =
  Protocol.Hits { degraded = a.a_degraded; hits = a.a_hits; unverified = a.a_unverified }

let handle_add t seq tree =
  match seq with
  | None -> (
    match add t tree with
    | Ok (gid, partners) -> Protocol.Added { id = gid; partners }
    | Error e -> Protocol.Err e)
  | Some seq ->
    let n = n_trees t in
    if seq >= n then (
      match add ~expect:seq t tree with
      | Ok (gid, partners) -> Protocol.Added { id = gid; partners }
      | Error e -> Protocol.Err e)
    else (
      (* replay of an already-bound gid: forward to the owning shard,
         whose idempotency check verifies the tree is the same one *)
      match locate t seq with
      | None -> Protocol.Err (Printf.sprintf "seq gap: %d unbound" seq)
      | Some (shard, lseq, _) -> (
        let fo = failover t (group_addrs t shard) in
        match Client.Failover.request fo (Protocol.Add { seq = Some lseq; tree }) with
        | Ok (Protocol.Added { id = _; partners }) ->
          let partners =
            List.filter_map
              (fun (lid, d) ->
                match to_gid t ~shard lid with Some g -> Some (g, d) | None -> None)
              partners
          in
          Protocol.Added { id = seq; partners }
        | Ok (Protocol.Err r) -> Protocol.Err r
        | Ok (Protocol.Fenced e) -> Protocol.Fenced e
        | Ok _ -> Protocol.Err "unexpected reply from shard"
        | Error e -> Protocol.Err e))

let handle t ?deadline_ms req =
  match req with
  | Protocol.Query { tau = tau'; tree } ->
    if tau' < 0 || tau' > t.r_tau then
      Protocol.Err (Printf.sprintf "tau %d out of range (index tau %d)" tau' t.r_tau)
    else answer_to_hits (query t ?deadline_ms ~tau:tau' tree)
  | Protocol.Knn { k; tree } ->
    if k < 0 then Protocol.Err "negative k"
    else answer_to_hits (knn t ?deadline_ms ~k tree)
  | Protocol.Add { seq; tree } -> handle_add t seq tree
  | Protocol.Get gid -> (
    match locate t gid with
    | None -> Protocol.Err (Printf.sprintf "GET %d: unbound sequence" gid)
    | Some (shard, lseq, _) -> (
      let fo = failover t (group_addrs t shard) in
      match Client.Failover.request fo (Protocol.Get lseq) with
      | Ok (Protocol.Tree_reply { tree; _ }) -> Protocol.Tree_reply { seq = gid; tree }
      | Ok (Protocol.Err r) -> Protocol.Err r
      | Ok _ -> Protocol.Err "unexpected reply from shard"
      | Error e -> Protocol.Err e))
  | Protocol.Stats -> Protocol.Stats_reply (stats t)
  | Protocol.Health | Protocol.Drain -> Protocol.Err "HEALTH and DRAIN are the serving front's"
  | Protocol.Sync _ | Protocol.Ack _ | Protocol.Digest _ ->
    Protocol.Err "replication verbs are shard-internal; the router does not stream"
  | Protocol.Promote -> Protocol.Err "PROMOTE is shard-internal; use migration"
