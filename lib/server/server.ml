module Fault = Tsj_util.Fault_inject
module Budget = Tsj_join.Budget
module Types = Tsj_join.Types
module Netbuf = Tsj_util.Netbuf

type config = {
  addr : Protocol.addr;
  tau : int;
  dir : string option;  (** journal/snapshot directory; [None] = ephemeral *)
  max_inflight : int;  (** admission watermark; beyond it, [BUSY] *)
  deadline_s : float option;  (** per-request deadline *)
  drain_budget_s : float;  (** how long drain waits for inflight work *)
  max_line_bytes : int;  (** request lines longer than this are rejected *)
  handle_sigterm : bool;  (** install a SIGTERM -> drain handler *)
  quorum : int;  (** durable copies (incl. own journal) before ADDED *)
  sync_from : Protocol.addr list;  (** peers to stream from when not primary *)
  primary : bool;  (** start with the write mandate *)
  peer_timeout_s : float;  (** replica-stream socket timeout on the primary *)
  max_batch : int;  (** largest number of ADDs in one group commit *)
  dedup : bool;  (** suppress duplicate seq-less ADDs (see {!Store.open_}) *)
  scrub_interval_s : float option;  (** background scrub period; [None] = off *)
  scrub_budget : int;  (** records re-verified per scrub step *)
  quarantine : bool;  (** open degraded on unrepairable corruption *)
  rate : float option;  (** per-connection admitted work requests/s; [None] = no bucket *)
  burst : int;  (** per-connection token-bucket capacity *)
  idle_timeout_s : float option;  (** reap connections idle this long; [None] = never *)
  max_out_bytes : int;  (** disconnect a peer whose output backlog exceeds this *)
  max_conns : int option;  (** hard cap on live connections; [None] = unbounded *)
}

let default_config addr ~tau =
  {
    addr;
    tau;
    dir = None;
    max_inflight = 64;
    deadline_s = None;
    drain_budget_s = 5.0;
    max_line_bytes = 1 lsl 20;
    handle_sigterm = false;
    quorum = 1;
    sync_from = [];
    primary = true;
    peer_timeout_s = 5.0;
    max_batch = 64;
    dedup = false;
    scrub_interval_s = None;
    scrub_budget = 128;
    quarantine = false;
    rate = None;
    burst = 32;
    idle_timeout_s = None;
    max_out_bytes = 1 lsl 23;
    max_conns = None;
  }

type counters = {
  queries : int Atomic.t;
  adds : int Atomic.t;
  shed : int Atomic.t;
  degraded : int Atomic.t;
  errors : int Atomic.t;
  inflight : int Atomic.t;
  expired : int Atomic.t;  (* deadline-expired work dropped, pre/post compute *)
  accept_pauses : int Atomic.t;  (* EMFILE/ENFILE accept back-offs *)
  reaped : int Atomic.t;  (* hygiene closes: idle, overflow, max-conns *)
}

(* --- connections --- *)

type mode = Text | Binary

type conn_state =
  | Live
  | Handoff  (* upgraded to a replication stream; the cluster owns the fd *)
  | Dead

(* One per accepted socket.  [c_in]/[c_reqno]/[c_discard]/[c_skip]/
   [c_closing]/[c_eof]/[c_yielded]/[c_state] belong to the event-loop thread;
   [c_out]/[c_async] are shared with the worker threads under
   [io_mutex]. *)
type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  mutable c_mode : mode;
  c_in : Netbuf.t;
  c_out : Netbuf.t;
  mutable c_reqno : int;  (* per-connection request ordinal (fault point) *)
  mutable c_async : int;  (* requests handed to a worker, reply pending *)
  mutable c_discard : bool;  (* text: dropping an over-long line *)
  mutable c_skip : int;  (* binary: body bytes of an oversized frame left to drop *)
  mutable c_closing : bool;  (* close once replies are flushed *)
  mutable c_eof : bool;  (* peer closed its write side *)
  mutable c_yielded : bool;  (* this tick's turn is over; the rest of [c_in] waits *)
  mutable c_state : conn_state;
  mutable c_last_active : float;  (* last byte read from the peer *)
  c_bucket : Admission.Token_bucket.t option;  (* per-client fair admission *)
}

type add_job = {
  a_conn : conn;
  a_rid : int option;
  a_seq : int option;
  a_tree : Tsj_tree.Tree.t;
  a_expire : float;  (* absolute client deadline; infinity when none *)
  a_t0 : float;  (* admission time, for the latency histogram *)
}

(* The node handler's state: the store and everything that writes it. *)
type node = {
  store : Store.t;
  replica : Replica.t;
  cluster : Cluster.t;
  store_mutex : Mutex.t;
  (* Serializes store *writers* (committer batches, replica record
     application, promotion, drain teardown).  Lock order: commit_mutex
     before store_mutex, never the reverse.  Writers hold commit_mutex
     for their whole stage → journal → index sequence but take
     store_mutex only around the index-touching phases, so the journal
     flush — the one step with unbounded filesystem latency — never
     blocks the read path. *)
  commit_mutex : Mutex.t;
  (* the budget of the read the event loop is computing, if any;
     cancelled when the drain deadline passes so a stuck read cannot
     outlive the drain window *)
  read_budget : Budget.t option Atomic.t;
  addq : add_job Queue.t;  (* pending writes, drained in group commits *)
  addq_mutex : Mutex.t;
  addq_cond : Condition.t;
  mutable committer_thread : Thread.t option;
  mutable follower_thread : Thread.t option;
  mutable follower_fd : Unix.file_descr option;
  mutable sync_threads : Thread.t list;
  sync_mutex : Mutex.t;
  mutable scrubber : Scrub.t option;
  h_query : Admission.Histogram.t;  (* per-verb service latency, µs *)
  h_knn : Admission.Histogram.t;
  h_add : Admission.Histogram.t;
}

(* What the connection layer hands a parsed request to: a node answers
   from its own store, a router fans out to its shard groups. *)
type handler = Node of node | Router of Router.t

(* The connection layer: listener, connections, admission counters,
   wake pipe and drain state, shared by both handlers. *)
type t = {
  config : config;
  handler : handler;
  listener : Unix.file_descr;
  counters : counters;
  draining : bool Atomic.t;
  drained : bool Atomic.t;
  aborted : bool Atomic.t;
  quarantined : Types.quarantined list Atomic.t;
  io_mutex : Mutex.t;  (* guards every [c_out]/[c_async] *)
  conns : (int, conn) Hashtbl.t;
  conns_mutex : Mutex.t;
  wake_r : Unix.file_descr;  (* self-pipe: worker threads nudge the event loop *)
  wake_w : Unix.file_descr;
  wake_flag : bool Atomic.t;
  (* Exactly-once listener close, shared between the event loop's drain
     path and [abort]: closing the fd twice would free the descriptor
     number twice, and in between it may have been handed to a freshly
     accepted connection — of THIS server or (in-process, as the test
     harnesses run whole clusters in one process) of another one —
     which the second close would silently sever. *)
  listener_closed : bool Atomic.t;
  drain_force_at : float Atomic.t;  (* past this, drain force-closes conns *)
  mutable loop_thread : Thread.t option;
  mutable next_conn : int;
  (* event-loop thread only: while in the future, the listener is left
     out of the select read set (EMFILE back-off) *)
  mutable accept_pause_until : float;
  (* event-loop thread only: when the connection being served ends its
     turn — a read finishing later makes it yield (see [c_yielded]) *)
  mutable turn_ends : float;
}

let quarantine t ~conn_id reason =
  let record = { Types.q_i = conn_id; q_j = None; q_reason = reason } in
  let rec loop () =
    let old = Atomic.get t.quarantined in
    if not (Atomic.compare_and_set t.quarantined old (record :: old)) then loop ()
  in
  loop ()

(* The handler's own view, overlaid with the connection layer's
   overload telemetry, drain flag and faults. *)
let stats t =
  let base =
    match t.handler with
    | Router r -> Router.stats r
    | Node n ->
      let scrubbed, crc_failures, repaired, store_quarantined =
        Store.scrub_counters n.store
      in
      {
        Protocol.zero_stats with
        trees = Store.n_trees n.store;
        tau = Store.tau n.store;
        queries = Atomic.get t.counters.queries;
        adds = Atomic.get t.counters.adds;
        degraded = Atomic.get t.counters.degraded;
        (* store records/snapshots moved aside as unrepairable: "kept,
           not trusted", like the quarantined connections added below *)
        quarantined = store_quarantined;
        journal_records = Store.journal_records n.store;
        epoch = Store.epoch n.store;
        primary = Replica.is_primary n.replica;
        dedup = Store.dedups n.store;
        scrubbed;
        crc_failures;
        repaired;
        q_p50 = Admission.Histogram.quantile_us n.h_query 0.5;
        q_p95 = Admission.Histogram.quantile_us n.h_query 0.95;
        q_p99 = Admission.Histogram.quantile_us n.h_query 0.99;
        k_p50 = Admission.Histogram.quantile_us n.h_knn 0.5;
        k_p95 = Admission.Histogram.quantile_us n.h_knn 0.95;
        k_p99 = Admission.Histogram.quantile_us n.h_knn 0.99;
        a_p50 = Admission.Histogram.quantile_us n.h_add 0.5;
        a_p95 = Admission.Histogram.quantile_us n.h_add 0.95;
        a_p99 = Admission.Histogram.quantile_us n.h_add 0.99;
      }
  in
  {
    base with
    Protocol.shed = Atomic.get t.counters.shed;
    errors = base.errors + Atomic.get t.counters.errors;
    quarantined = base.quarantined + List.length (Atomic.get t.quarantined);
    inflight = Atomic.get t.counters.inflight;
    draining = Atomic.get t.draining;
    expired = Atomic.get t.counters.expired;
    accept_pauses = Atomic.get t.counters.accept_pauses;
    reaped = Atomic.get t.counters.reaped;
  }

(* --- event-loop plumbing --- *)

(* Nudge the event loop out of [select]: one pipe byte per quiet->busy
   transition (the CAS keeps a flood of commit completions from filling
   the pipe). *)
let wake t =
  if Atomic.compare_and_set t.wake_flag false true then
    try ignore (Unix.write t.wake_w (Bytes.make 1 '\000') 0 1)
    with Unix.Unix_error _ -> ()

(* Append one rendered response to a connection's output buffer.  Caller
   holds [io_mutex].  On a binary connection a reply without a request id
   (protocol-level, e.g. the HELLO reply queued just before the mode
   flips) still renders as text. *)
let append_response c ~rid resp =
  match (c.c_mode, rid) with
  | Binary, Some id ->
    let b = Buffer.create 64 in
    Protocol.Binary.encode_response b ~id resp;
    Netbuf.add_string c.c_out (Buffer.contents b)
  | _ ->
    Netbuf.add_string c.c_out (Protocol.render_response resp);
    Netbuf.add_char c.c_out '\n'

(* From the event-loop thread: queue a reply; the same tick flushes it. *)
let respond t c ~rid resp =
  Mutex.protect t.io_mutex (fun () ->
      if c.c_state = Live then append_response c ~rid resp)

(* From a worker thread (the committer, a router call): queue a reply,
   retire the async slot, wake the loop to flush. *)
let deliver t c ~rid resp =
  Mutex.protect t.io_mutex (fun () ->
      if c.c_state = Live then append_response c ~rid resp;
      c.c_async <- c.c_async - 1);
  wake t

(* Close for good (event-loop thread only).  A best-effort final write
   keeps already-queued replies from being lost when the close is not
   the client's fault. *)
let close_conn t c =
  let was =
    Mutex.protect t.io_mutex (fun () ->
        let s = c.c_state in
        c.c_state <- Dead;
        s)
  in
  if was = Live then begin
    (if not (Netbuf.is_empty c.c_out) then
       let buf, pos, len = Netbuf.peek c.c_out in
       try ignore (Unix.write c.c_fd buf pos len)
       with Unix.Unix_error _ | Sys_error _ -> ());
    Mutex.protect t.conns_mutex (fun () -> Hashtbl.remove t.conns c.c_id);
    try Unix.close c.c_fd with Unix.Unix_error _ -> ()
  end

let kill_conn t c reason =
  quarantine t ~conn_id:c.c_id reason;
  close_conn t c

(* --- blocking line IO (replication streams only) --- *)

(* Read one line with a hard byte cap so a peer streaming an endless
   line cannot exhaust memory. *)
let read_line_bounded ic ~max_bytes =
  let b = Buffer.create 256 in
  let rec loop overflow =
    match input_char ic with
    | exception End_of_file ->
      if Buffer.length b = 0 && not overflow then None else Some (Buffer.contents b, overflow)
    | '\n' -> Some (Buffer.contents b, overflow)
    | c ->
      if Buffer.length b >= max_bytes then loop true
      else begin
        Buffer.add_char b c;
        loop overflow
      end
  in
  loop false

let trim_cr s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

(* --- admission and staleness --- *)

(* Absolute expiry of a request: the client's remaining budget anchored
   at arrival; [infinity] when the request carried no deadline. *)
let expire_at ~now deadline_ms =
  match deadline_ms with
  | None -> infinity
  | Some ms -> now +. (float_of_int (max 0 ms) /. 1000.0)

(* BUSY retry-after hint for a watermark shed: proportional to the
   backlog, floored so a retrying client never spins on a zero hint. *)
let backlog_hint t = Some (max 5 (min 1000 (Atomic.get t.counters.inflight)))

(* Work admission, shared by both handlers: an exhausted client budget
   means nobody is waiting, so the request is dropped before any other
   work; then the connection's token bucket (a greedy connection
   exhausts only its own tokens, never another client's admission);
   then the inflight watermark, bumped optimistically: over it the
   newcomer is shed with an explicit [BUSY] carrying a retry-after hint
   — deterministic, never a silent drop.  [true] when admitted; a
   refused request has had its reply queued. *)
let admit_work t c ~rid ~deadline_ms ~now =
  let refusal =
    if (match deadline_ms with Some ms -> ms <= 0 | None -> false) then begin
      ignore (Atomic.fetch_and_add t.counters.expired 1);
      Some (Protocol.Err "deadline expired")
    end
    else
      match c.c_bucket with
      | Some b when not (Admission.Token_bucket.take b ~now) ->
        ignore (Atomic.fetch_and_add t.counters.shed 1);
        let after = Admission.Token_bucket.retry_after_s b ~now in
        Some
          (Protocol.Busy
             { retry_after_ms = Some (max 1 (Admission.Deadline.of_span_s after)) })
      | _ ->
        if Atomic.get t.draining then Some (Protocol.Err "draining: not accepting new work")
        else if Atomic.fetch_and_add t.counters.inflight 1 < t.config.max_inflight then None
        else begin
          ignore (Atomic.fetch_and_add t.counters.inflight (-1));
          ignore (Atomic.fetch_and_add t.counters.shed 1);
          Some (Protocol.Busy { retry_after_ms = backlog_hint t })
        end
  in
  match refusal with
  | None -> true
  | Some resp ->
    respond t c ~rid resp;
    false

(* Bounded-staleness admission for reads carrying a [max_lag] bound: the
   primary always qualifies; a replica answers only when its known lag
   is within the bound, otherwise the client is redirected upstream. *)
let staleness_denied t n lag_bound =
  match lag_bound with
  | None -> None
  | Some max_lag ->
    if Replica.is_primary n.replica then None
    else begin
      match Replica.lag n.replica with
      | Some l when l <= max_lag -> None
      | _ -> (
        match Replica.upstream n.replica with
        | Some addr -> Some (Protocol.Redirect addr)
        | None ->
          ignore (Atomic.fetch_and_add t.counters.errors 1);
          Some (Protocol.Err "stale replica: no known primary"))
    end

(* --- read path (inline on the event loop) --- *)

(* The compute budget of a read is the tighter of the server default
   and the client's remaining budget less a response margin (50 ms, or
   half of a shorter budget), so a long query degrades within what the
   caller will actually wait for: an expired budget still finishes the
   verify chunk in flight and sandwiches the candidates left over, and
   that degraded answer must go out before the client's deadline, or
   the post-compute check would throw it away. *)
let read_budget_s t deadline_ms =
  let client =
    Option.map (fun ms -> float_of_int (ms - min (ms / 2) 50) /. 1000.0) deadline_ms
  in
  match (t.config.deadline_s, client) with
  | Some a, Some b -> Some (Float.min a b)
  | (Some _ as s), None | None, (Some _ as s) -> s
  | None, None -> None

(* Answer one admitted QUERY or KNN on the event-loop thread.  The
   compute holds the loop, so its budget is published in [read_budget]
   for the drain to cancel, and an expired budget degrades the answer
   instead of stalling every other connection.  A KNN is the first [k]
   hits of the same probe at the index threshold (the rule of
   {!Tsj_core.Incremental.nearest}), so both verbs share one budgeted
   path and one degraded form. *)
let run_query t n c ~rid ~deadline_ms ~expire ~t0 request =
  let budget = Budget.create ?time_budget_s:(read_budget_s t deadline_ms) () in
  (* Publish before the draining re-check: a drain that begins after
     the check finds this budget in the slot when its window closes. *)
  Atomic.set n.read_budget (Some budget);
  let response =
    if Atomic.get t.draining then `Draining
    else if Tsj_util.Timer.now () > expire then `Expired
    else
      try
        let tree, tau, k =
          match request with
          | Protocol.Query { tau; tree } -> (tree, tau, None)
          | Protocol.Knn { k; tree } -> (tree, Store.tau n.store, Some k)
          | _ -> invalid_arg "internal: non-read request on the query path"
        in
        if tau > Store.tau n.store then
          `Failed
            (Printf.sprintf "QUERY: tau %d exceeds the index threshold %d" tau
               (Store.tau n.store))
        else begin
          let r =
            Mutex.protect n.store_mutex (fun () -> Store.query ~budget ~tau n.store tree)
          in
          ignore (Atomic.fetch_and_add t.counters.queries 1);
          if r.Tsj_core.Incremental.degraded then
            ignore (Atomic.fetch_and_add t.counters.degraded 1);
          let hits =
            match k with None -> r.hits | Some k -> List.filteri (fun i _ -> i < k) r.hits
          in
          `Answer (Protocol.Hits { degraded = r.degraded; hits; unverified = r.unverified })
        end
      with e -> `Failed (Printexc.to_string e)
  in
  Atomic.set n.read_budget None;
  ignore (Atomic.fetch_and_add t.counters.inflight (-1));
  let finished = Tsj_util.Timer.now () in
  (* A read that ends past the connection's turn ends it: the loop
     serves every other connection before this one's next buffered
     request. *)
  if finished >= t.turn_ends then c.c_yielded <- true;
  let resp =
    match response with
    | `Draining -> Protocol.Err "draining: not accepting new work"
    | `Expired ->
      (* Past the client deadline before any compute: nobody is
         waiting for the answer. *)
      ignore (Atomic.fetch_and_add t.counters.expired 1);
      Protocol.Err "deadline expired"
    | `Answer _ when finished > expire ->
      (* The compute outran the client's budget: delivering the answer
         now would hand an expired result to a caller that has moved
         on (and may already have retried elsewhere). *)
      ignore (Atomic.fetch_and_add t.counters.expired 1);
      Protocol.Err "deadline expired"
    | `Answer r ->
      let h = match request with Protocol.Knn _ -> n.h_knn | _ -> n.h_query in
      Admission.Histogram.record h ~seconds:(finished -. t0);
      r
    | `Failed reason ->
      ignore (Atomic.fetch_and_add t.counters.errors 1);
      Protocol.Err reason
  in
  respond t c ~rid resp

(* --- write path (committer: group commit) --- *)

let quorum_error n copies =
  Printf.sprintf "%s: %d/%d durable copies"
    (if Cluster.sealed n.cluster then "draining: quorum abandoned"
     else "quorum not reached")
    copies (Cluster.quorum n.cluster)

(* Commit a batch of ADDs as one unit: one journal append + flush
   ({!Store.add_batch}), one lock-step quorum round up to the batch's
   high sequence number, then one reply per item.  Per-item semantics
   are identical to committing them one by one. *)
let commit_batch t n (jobs : add_job array) =
  let count = Array.length jobs in
  let responses =
    if not (Replica.is_primary n.replica) then
      Array.make count (Protocol.Fenced (Store.epoch n.store))
    else
      try
        Cluster.with_write n.cluster (fun () ->
            let items = Array.map (fun j -> (j.a_seq, j.a_tree)) jobs in
            let results =
              Mutex.protect n.commit_mutex (fun () ->
                  (* Stage under the store lock (reads the index), flush
                     the journal with the store lock DROPPED (queries
                     keep flowing while the disk syncs — an ext4 flush
                     can stall for tens of ms under writeback), then
                     index under the store lock again.  commit_mutex
                     keeps the staged seqs valid: no other writer can
                     slip between the phases. *)
                  let staged =
                    Mutex.protect n.store_mutex (fun () -> Store.stage_batch n.store items)
                  in
                  match Store.journal_staged n.store staged with
                  | Ok () ->
                    Mutex.protect n.store_mutex (fun () -> Store.index_staged n.store staged)
                  | Error reason ->
                    (* disk fault: the journal refused the batch (and was
                       repaired to its valid prefix); nothing is visible,
                       every item fails with the typed error *)
                    Array.map (fun _ -> Error reason) items)
            in
            let high =
              Array.fold_left
                (fun acc r -> match r with Ok (id, _) -> max acc id | Error _ -> acc)
                (-1) results
            in
            let outcome =
              if high < 0 || high + 1 <= Cluster.acked_high n.cluster then `Acked
              else begin
                let record_for i =
                  Mutex.protect n.store_mutex (fun () -> Store.record_for n.store i)
                in
                match Cluster.replicate n.cluster ~record_for ~seq:high with
                | Cluster.Acks _ -> `Acked
                | Cluster.No_quorum copies -> `No_quorum copies
                | Cluster.Fenced_off epoch ->
                  Replica.demote n.replica;
                  `Fenced epoch
              end
            in
            let acked = Cluster.acked_high n.cluster in
            Array.map
              (fun r ->
                match r with
                | Error reason ->
                  ignore (Atomic.fetch_and_add t.counters.errors 1);
                  Protocol.Err reason
                | Ok (id, partners) -> (
                  if id + 1 <= acked then begin
                    ignore (Atomic.fetch_and_add t.counters.adds 1);
                    Protocol.Added { id; partners }
                  end
                  else
                    match outcome with
                    | `Fenced epoch -> Protocol.Fenced epoch
                    | `No_quorum copies ->
                      ignore (Atomic.fetch_and_add t.counters.errors 1);
                      Protocol.Err (quorum_error n copies)
                    | `Acked ->
                      ignore (Atomic.fetch_and_add t.counters.errors 1);
                      Protocol.Err "internal: add past the acked high-water mark"))
              results)
      with e ->
        ignore (Atomic.fetch_and_add t.counters.errors count);
        Array.make count (Protocol.Err (Printexc.to_string e))
  in
  let done_at = Tsj_util.Timer.now () in
  Array.iteri
    (fun i job ->
      (match responses.(i) with
      | Protocol.Added _ ->
        Admission.Histogram.record n.h_add ~seconds:(done_at -. job.a_t0)
      | _ -> ());
      Mutex.protect t.io_mutex (fun () ->
          if job.a_conn.c_state = Live then
            append_response job.a_conn ~rid:job.a_rid responses.(i);
          job.a_conn.c_async <- job.a_conn.c_async - 1);
      ignore (Atomic.fetch_and_add t.counters.inflight (-1)))
    jobs;
  wake t

let committer_loop t n =
  let batch_no = ref 0 in
  let rec loop () =
    let have_work =
      Mutex.protect n.addq_mutex (fun () ->
          let rec wait_nonempty () =
            if not (Queue.is_empty n.addq) then true
            else if Atomic.get t.draining then false
            else begin
              Condition.wait n.addq_cond n.addq_mutex;
              wait_nonempty ()
            end
          in
          wait_nonempty ())
    in
    if have_work then begin
      (* The batch-boundary fault point fires outside the queue lock so
         an armed action can stall the committer while pipelined ADDs
         pile into one group commit; an [Injected] raise is swallowed
         (the batch itself must still commit). *)
      (try Fault.hit "server.batch" !batch_no with Fault.Injected _ -> ());
      incr batch_no;
      let batch =
        Mutex.protect n.addq_mutex (fun () ->
            let count = min t.config.max_batch (Queue.length n.addq) in
            Array.init count (fun _ -> Queue.pop n.addq))
      in
      (* Drop writes whose client deadline passed while they queued —
         BEFORE the journal touch, so an expired ADD is never made
         durable behind the client's back. *)
      let now = Tsj_util.Timer.now () in
      let batch =
        if Array.for_all (fun j -> j.a_expire >= now) batch then batch
        else
          Array.of_list
            (List.filter
               (fun j ->
                 if j.a_expire < now then begin
                   ignore (Atomic.fetch_and_add t.counters.expired 1);
                   deliver t j.a_conn ~rid:j.a_rid
                     (Protocol.Err "deadline expired");
                   ignore (Atomic.fetch_and_add t.counters.inflight (-1));
                   false
                 end
                 else true)
               (Array.to_list batch))
      in
      if Array.length batch > 0 then begin
        if Atomic.get t.aborted then begin
          (* kill -9 fidelity: an aborted server writes nothing more. *)
          Array.iter
            (fun job ->
              Mutex.protect t.io_mutex (fun () ->
                  job.a_conn.c_async <- job.a_conn.c_async - 1);
              ignore (Atomic.fetch_and_add t.counters.inflight (-1)))
            batch;
          wake t
        end
        else commit_batch t n batch
      end;
      loop ()
    end
  in
  loop ()

(* --- drain --- *)

(* Yield until no admitted work is left or [until] passes. *)
let await_idle t ~until =
  while Atomic.get t.counters.inflight > 0 && Tsj_util.Timer.now () < until do
    Thread.yield ()
  done

(* Stop the scrubber and cut the replication stream in.  The scrubber
   must be gone before a final flush or a test's re-open of the same
   directory: its repair path writes the same files. *)
let stop_node_workers n =
  (match n.scrubber with
  | Some s ->
    Scrub.stop s;
    n.scrubber <- None
  | None -> ());
  match n.follower_fd with
  | Some fd -> ( try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
  | None -> ()

(* The node's part of a drain, once the drain budget is spent: shed
   the rest, stop its workers and flush the store. *)
let drain_node t n ~deadline =
  (* Cancel the live read's budget so it degrades and returns instead
     of running past the drain. *)
  Option.iter Budget.cancel (Atomic.get n.read_budget);
  await_idle t ~until:(deadline +. 1.0);
  stop_node_workers n;
  (* Seal replication: waits out any quorum write still in flight (by
     taking the write lock) and makes later ones fail with an explicit
     ERR instead of being half-replicated under a closing server. *)
  Cluster.seal n.cluster;
  (* Flush: snapshot + header-only journal, so a cold start is clean.
     A primary first discards any suffix that never reached quorum —
     the snapshot must not contain adds no client was acknowledged —
     and bumps the epoch so a replica still holding that suffix
     re-syncs by truncation instead of diverging. *)
  Mutex.protect n.commit_mutex (fun () ->
      Mutex.protect n.store_mutex (fun () ->
          let acked = Cluster.acked_high n.cluster in
          if Replica.is_primary n.replica && acked < Store.n_trees n.store then begin
            Store.truncate_to n.store acked;
            Store.set_epoch n.store ~epoch:(Store.epoch n.store + 1) ~base:acked
          end;
          Store.close n.store))

let do_drain t =
  (* Idempotent: the first caller wins; later calls (second DRAIN,
     SIGTERM after DRAIN) are no-ops. *)
  if not (Atomic.exchange t.draining true) then begin
    Atomic.set t.drain_force_at
      (Tsj_util.Timer.now () +. t.config.drain_budget_s +. 1.0);
    (* Wake every loop: the event loop closes the listener, the
       committer re-checks its exit condition. *)
    (match t.handler with
    | Node n -> Mutex.protect n.addq_mutex (fun () -> Condition.broadcast n.addq_cond)
    | Router _ -> ());
    wake t;
    (* Let inflight work (reads, queued ADDs, a router's shard calls)
       finish within the drain budget. *)
    let deadline = Tsj_util.Timer.now () +. t.config.drain_budget_s in
    await_idle t ~until:deadline;
    (match t.handler with Node n -> drain_node t n ~deadline | Router _ -> ());
    Atomic.set t.drained true
  end

(* --- incremental framing --- *)

(* Pull the next complete text line out of the input buffer.  Discard
   mode swallows the remainder of a line already answered with the
   oversize [ERR]. *)
let rec next_text_line t c ~eof =
  if c.c_discard then begin
    match Netbuf.index c.c_in '\n' with
    | Some i ->
      Netbuf.consume c.c_in (i + 1);
      c.c_discard <- false;
      next_text_line t c ~eof
    | None ->
      Netbuf.clear c.c_in;
      `None
  end
  else
    match Netbuf.index c.c_in '\n' with
    | Some i when i > t.config.max_line_bytes ->
      Netbuf.consume c.c_in (i + 1);
      `Oversized
    | Some i ->
      let line = Netbuf.sub_string c.c_in ~pos:0 ~len:i in
      Netbuf.consume c.c_in (i + 1);
      `Line (trim_cr line)
    | None ->
      if Netbuf.length c.c_in > t.config.max_line_bytes then begin
        Netbuf.clear c.c_in;
        c.c_discard <- true;
        `Oversized
      end
      else if eof && Netbuf.length c.c_in > 0 then begin
        let line = Netbuf.sub_string c.c_in ~pos:0 ~len:(Netbuf.length c.c_in) in
        Netbuf.clear c.c_in;
        `Line (trim_cr line)
      end
      else `None

let frame_cap t = t.config.max_line_bytes + 5

(* Pull the next complete binary frame.  An oversized frame is rejected
   by id and its body skipped without buffering it; a length below the
   header minimum means the stream is unrecoverable. *)
let rec next_frame t c =
  if c.c_skip > 0 then begin
    let n = min c.c_skip (Netbuf.length c.c_in) in
    Netbuf.consume c.c_in n;
    c.c_skip <- c.c_skip - n;
    if c.c_skip > 0 then `None else next_frame t c
  end
  else if Netbuf.length c.c_in < 4 then `None
  else begin
    let flen = Netbuf.u32_be c.c_in 0 in
    if flen < 5 then `Broken
    else if flen > frame_cap t then begin
      if Netbuf.length c.c_in < 8 then `None
      else begin
        let rid = Netbuf.u32_be c.c_in 4 in
        Netbuf.consume c.c_in 8;
        c.c_skip <- flen - 4;
        `Oversized rid
      end
    end
    else if Netbuf.length c.c_in < 4 + flen then `None
    else begin
      let rid = Netbuf.u32_be c.c_in 4 in
      let op = Char.code (Netbuf.get c.c_in 8) in
      let body = Netbuf.sub_string c.c_in ~pos:9 ~len:(flen - 5) in
      Netbuf.consume c.c_in (4 + flen);
      `Frame (rid, op, body)
    end
  end

(* --- the connection layer's own verbs --- *)

(* STATS, HEALTH and DRAIN answer from the connection layer's state,
   whichever handler serves the rest. *)
let serve_front t c ~rid (request : Protocol.request) =
  match request with
  | Protocol.Stats -> respond t c ~rid (Protocol.Stats_reply (stats t))
  | Protocol.Drain ->
    respond t c ~rid Protocol.Drained;
    c.c_closing <- true;
    ignore (Thread.create (fun () -> do_drain t) ())
  | _ (* HEALTH *) ->
    respond t c ~rid (Protocol.Health_reply { draining = Atomic.get t.draining })

(* --- the node handler --- *)

(* Upgrade a connection into a replication stream: hand the fd to a
   dedicated thread running the blocking lock-step sync protocol, and
   carry over any bytes the event loop already buffered.  A hung
   replica must not hang the primary's write path: the stream socket
   gets a receive timeout, and a timed-out peer is dropped (it
   re-syncs). *)
let sync_stream t n c ~f_epoch ~leftover_in ~leftover_out =
  try
    let fd = c.c_fd in
    (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.peer_timeout_s
     with Unix.Unix_error _ | Invalid_argument _ -> ());
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    if leftover_out <> "" then begin
      output_string oc leftover_out;
      flush oc
    end;
    let pending = ref leftover_in in
    let send line =
      output_string oc line;
      output_char oc '\n';
      flush oc
    in
    let read_socket_line () =
      match read_line_bounded ic ~max_bytes:t.config.max_line_bytes with
      | Some (line, false) -> line
      | Some (_, true) | None -> raise End_of_file
    in
    let recv () =
      (* serve bytes the event loop buffered before the handoff first *)
      match String.index_opt !pending '\n' with
      | Some i ->
        let line = String.sub !pending 0 i in
        pending := String.sub !pending (i + 1) (String.length !pending - i - 1);
        trim_cr line
      | None ->
        let head = !pending in
        pending := "";
        trim_cr (head ^ read_socket_line ())
    in
    let close_fd () = try Unix.close fd with Unix.Unix_error _ -> () in
    let reply r = try send (Protocol.render_response r) with _ -> () in
    let locked f = Mutex.protect n.store_mutex f in
    match
      Cluster.serve_sync n.cluster
        ~epoch:(fun () -> locked (fun () -> Store.epoch n.store))
        ~base:(fun () -> locked (fun () -> Store.epoch_base n.store))
        ~n_trees:(fun () -> locked (fun () -> Store.n_trees n.store))
        ~record_for:(fun i -> locked (fun () -> Store.record_for n.store i))
        ~primary:(fun () -> Replica.is_primary n.replica)
        ~peer_id:(Printf.sprintf "conn-%d" c.c_id)
        ~f_epoch ~send ~recv ~close:close_fd
    with
    | `Streaming -> () (* the fd now belongs to the cluster (seal/drop closes it) *)
    | `Fenced epoch ->
      (* The requester holds a higher epoch than ours: we lost the write
         mandate somewhere along the way. *)
      Replica.demote n.replica;
      reply (Protocol.Fenced epoch);
      close_fd ()
    | `Refused reason ->
      ignore (Atomic.fetch_and_add t.counters.errors 1);
      reply (Protocol.Err ("sync refused: " ^ reason));
      close_fd ()
  with _ -> ( try Unix.close c.c_fd with Unix.Unix_error _ -> ())

let start_sync t n c ~f_epoch =
  c.c_state <- Handoff;
  Mutex.protect t.conns_mutex (fun () -> Hashtbl.remove t.conns c.c_id);
  let leftover_in = Netbuf.sub_string c.c_in ~pos:0 ~len:(Netbuf.length c.c_in) in
  Netbuf.clear c.c_in;
  let leftover_out =
    Mutex.protect t.io_mutex (fun () ->
        let s = Netbuf.sub_string c.c_out ~pos:0 ~len:(Netbuf.length c.c_out) in
        Netbuf.clear c.c_out;
        s)
  in
  let th =
    Thread.create (fun () -> sync_stream t n c ~f_epoch ~leftover_in ~leftover_out) ()
  in
  Mutex.protect n.sync_mutex (fun () -> n.sync_threads <- th :: n.sync_threads)

(* Reads are answered inline, ADDs go to the committer, and only a text
   line ([rid = None]) can become a replication stream. *)
let serve_node t n c ~rid ~lag ~deadline_ms (request : Protocol.request) =
  match request with
  | Protocol.Sync { epoch = f_epoch; from_seq = _ } when rid = None ->
    start_sync t n c ~f_epoch
  | Protocol.Sync _ -> respond t c ~rid (Protocol.Err "SYNC is text-only: send it as a plain line")
  | Protocol.Ack _ -> respond t c ~rid (Protocol.Err "ACKED outside a sync stream")
  | Protocol.Get seq ->
    (* Ledger recovery / migration verification: answered inline — a
       point read of an immutable binding, no admission or staleness
       machinery involved. *)
    let tree =
      Mutex.protect n.store_mutex (fun () ->
          if seq >= 0 && seq < Store.n_trees n.store then Some (Store.tree n.store seq)
          else None)
    in
    (match tree with
    | Some tree -> respond t c ~rid (Protocol.Tree_reply { seq; tree })
    | None -> respond t c ~rid (Protocol.Err (Printf.sprintf "GET %d: unbound sequence" seq)))
  | Protocol.Digest { epoch; lo; hi } ->
    (* Anti-entropy probe: a Merkle digest over canonical records is
       only comparable between stores at the same epoch — a different
       epoch means a different history and the peer must fail over
       first, exactly as a SYNC would be fenced. *)
    let reply =
      Mutex.protect n.store_mutex (fun () ->
          if epoch <> Store.epoch n.store then
            Protocol.Fenced (Store.epoch n.store)
          else if hi > Store.n_trees n.store then
            Protocol.Err
              (Printf.sprintf "DIGEST [%d,%d): only %d records" lo hi
                 (Store.n_trees n.store))
          else Protocol.Digest_reply { epoch; lo; hi; digest = Store.digest n.store ~lo ~hi })
    in
    respond t c ~rid reply
  | Protocol.Promote ->
    (* Persist the bumped epoch (journal header) before the mandate
       flips, then treat the promoted node's whole state as acked: it
       was chosen as the most advanced surviving replica. *)
    let epoch, trees =
      Mutex.protect n.commit_mutex (fun () ->
          Mutex.protect n.store_mutex (fun () ->
              (Replica.promote n.replica, Store.n_trees n.store)))
    in
    Cluster.set_acked_high n.cluster trees;
    respond t c ~rid (Protocol.Promoted epoch)
  | Protocol.Add _ when not (Replica.is_primary n.replica) ->
    (* A node without the write mandate never accepts a write: the
       client fails over.  Split-brain is refused structurally, before
       any journal touch. *)
    respond t c ~rid (Protocol.Fenced (Store.epoch n.store))
  | Protocol.Query _ | Protocol.Knn _ | Protocol.Add _ -> (
    let denied =
      match request with Protocol.Add _ -> None | _ -> staleness_denied t n lag
    in
    match denied with
    | Some resp -> respond t c ~rid resp
    | None ->
      let now = Tsj_util.Timer.now () in
      if admit_work t c ~rid ~deadline_ms ~now then begin
        let expire = expire_at ~now deadline_ms in
        match request with
        | Protocol.Add { seq; tree } ->
          (* The draining re-check under the queue mutex pairs with the
             committer's exit check: a job is either seen by the
             committer or shed here, never stranded. *)
          let pushed =
            Mutex.protect n.addq_mutex (fun () ->
                if Atomic.get t.draining then false
                else begin
                  Queue.push
                    { a_conn = c; a_rid = rid; a_seq = seq; a_tree = tree;
                      a_expire = expire; a_t0 = now }
                    n.addq;
                  Mutex.protect t.io_mutex (fun () -> c.c_async <- c.c_async + 1);
                  Condition.signal n.addq_cond;
                  true
                end)
          in
          if not pushed then begin
            ignore (Atomic.fetch_and_add t.counters.inflight (-1));
            respond t c ~rid (Protocol.Err "draining: not accepting new work")
          end
        | _ -> run_query t n c ~rid ~deadline_ms ~expire ~t0:now request
      end)
  | Protocol.Stats | Protocol.Health | Protocol.Drain -> serve_front t c ~rid request

(* --- the router handler --- *)

(* A router's QUERY/KNN/ADD/GET blocks on shard I/O, so each admitted
   one runs {!Router.handle} on its own thread and replies through
   [deliver], as the committer does; the inflight watermark bounds
   these threads.  Shard reads may land on any replica of a group, so
   the router cannot honour a staleness bound: it refuses one rather
   than dropping it. *)
let route t r c ~rid ~lag ~deadline_ms (request : Protocol.request) =
  match request with
  | _ when lag <> None ->
    ignore (Atomic.fetch_and_add t.counters.errors 1);
    respond t c ~rid
      (Protocol.Err "the router does not bound staleness: send ~<n> reads to a node")
  | Protocol.Query _ | Protocol.Knn _ | Protocol.Add _ | Protocol.Get _ ->
    if admit_work t c ~rid ~deadline_ms ~now:(Tsj_util.Timer.now ()) then begin
      Mutex.protect t.io_mutex (fun () -> c.c_async <- c.c_async + 1);
      let work () =
        let resp =
          try Router.handle r ?deadline_ms request
          with e -> Protocol.Err (Printexc.to_string e)
        in
        (* retire the slot before the reply leaves, so a client that
           reads it and sends again is not shed by its own request *)
        ignore (Atomic.fetch_and_add t.counters.inflight (-1));
        deliver t c ~rid resp
      in
      ignore (Thread.create work ())
    end
  | Protocol.Stats | Protocol.Health | Protocol.Drain -> serve_front t c ~rid request
  | _ -> respond t c ~rid (Router.handle r request)

(* --- request dispatch (event-loop thread) --- *)

(* One parsed request line, from a text line ([rid = None]) or a frame.
   Malformed input is this client's problem only: answer [ERR] and keep
   the connection. *)
let handle_request t c ~rid = function
  | Error reason ->
    ignore (Atomic.fetch_and_add t.counters.errors 1);
    respond t c ~rid (Protocol.Err reason)
  | Ok (request, lag, deadline_ms) -> (
    match t.handler with
    | Node n -> serve_node t n c ~rid ~lag ~deadline_ms request
    | Router r -> route t r c ~rid ~lag ~deadline_ms request)

(* One text line: blank lines are ignored, a HELLO switches to frames,
   anything else dispatches. *)
let handle_text_line t c line =
  if String.trim line = "" then ()
  else
    match Protocol.Binary.parse_hello line with
    | Some v when v >= Protocol.Binary.version ->
      Mutex.protect t.io_mutex (fun () ->
          if c.c_state = Live then begin
            (* The reply renders as text (the mode flips after it). *)
            append_response c ~rid:None (Protocol.Hello_reply Protocol.Binary.version);
            c.c_mode <- Binary
          end)
    | Some v ->
      ignore (Atomic.fetch_and_add t.counters.errors 1);
      respond t c ~rid:None
        (Protocol.Err
           (Printf.sprintf "HELLO BIN %d: frame versions below %d are retired" v
              Protocol.Binary.version))
    | None -> handle_request t c ~rid:None (Protocol.parse_request_d line)

(* Consume as much buffered input as the connection's mode and ordering
   rules allow, stopping after the read that ends its turn (see
   [c_yielded]): a client pipelining slow reads holds the loop for one
   read per tick, not for its whole backlog.  The per-request fault
   point fires once per unit — line, frame, oversize, broken — before
   any reply; an [Injected]
   raise propagates to the caller, which quarantines the connection
   without answering the victim request. *)
let rec pump t c ~eof =
  if c.c_state = Live && not (c.c_closing || c.c_yielded) then
    match c.c_mode with
    | Text ->
      (* The newline protocol is strictly one-reply-per-request in
         order: buffered pipelined lines wait until the outstanding
         request retires. *)
      if Mutex.protect t.io_mutex (fun () -> c.c_async) > 0 then ()
      else begin
        match next_text_line t c ~eof with
        | `None -> ()
        | `Oversized ->
          Fault.hit "server.request" c.c_reqno;
          c.c_reqno <- c.c_reqno + 1;
          ignore (Atomic.fetch_and_add t.counters.errors 1);
          respond t c ~rid:None
            (Protocol.Err
               (Printf.sprintf "request line exceeds %d bytes" t.config.max_line_bytes));
          pump t c ~eof
        | `Line line ->
          Fault.hit "server.request" c.c_reqno;
          c.c_reqno <- c.c_reqno + 1;
          handle_text_line t c line;
          pump t c ~eof
      end
    | Binary -> (
      match next_frame t c with
      | `None -> ()
      | `Broken ->
        Fault.hit "server.request" c.c_reqno;
        c.c_reqno <- c.c_reqno + 1;
        ignore (Atomic.fetch_and_add t.counters.errors 1);
        respond t c ~rid:(Some 0) (Protocol.Err "malformed frame: length below minimum");
        c.c_closing <- true
      | `Oversized rid ->
        Fault.hit "server.request" c.c_reqno;
        c.c_reqno <- c.c_reqno + 1;
        ignore (Atomic.fetch_and_add t.counters.errors 1);
        respond t c ~rid:(Some rid)
          (Protocol.Err (Printf.sprintf "frame exceeds %d bytes" (frame_cap t)));
        pump t c ~eof
      | `Frame (rid, op, body) ->
        Fault.hit "server.request" c.c_reqno;
        c.c_reqno <- c.c_reqno + 1;
        handle_request t c ~rid:(Some rid)
          (Protocol.Binary.decode_request ~version:Protocol.Binary.version ~op ~body);
        pump t c ~eof)

(* --- the event loop --- *)

let read_chunk c scratch =
  match Unix.read c.c_fd scratch 0 (Bytes.length scratch) with
  | 0 -> `Eof
  | n ->
    Netbuf.add_subbytes c.c_in scratch 0 n;
    `Data
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    `Again
  | exception Unix.Unix_error _ -> `Lost
  | exception Sys_error _ -> `Lost

(* Push buffered output; [EAGAIN] leaves the rest for the next tick
   (the fd joins the select write set while [c_out] is nonempty). *)
let flush_conn t c =
  let res =
    Mutex.protect t.io_mutex (fun () ->
        if Netbuf.is_empty c.c_out then `Done
        else begin
          let buf, pos, len = Netbuf.peek c.c_out in
          match Unix.write c.c_fd buf pos len with
          | n ->
            Netbuf.consume c.c_out n;
            `Done
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            `Done
          | exception Unix.Unix_error _ -> `Lost
          | exception Sys_error _ -> `Lost
        end)
  in
  match res with
  | `Lost -> kill_conn t c (Types.Preprocess_failed "connection lost")
  | `Done -> ()

(* A connection's turn per tick: its cheap pipelined reads are served
   in one go, and the first read to end past the turn yields. *)
let read_turn_s = 0.001

let service_conn t c scratch ~readable =
  if c.c_state = Live then begin
    (if readable then
       match read_chunk c scratch with
       | `Data ->
         c.c_last_active <- Tsj_util.Timer.now ()
       | `Again -> ()
       | `Eof -> c.c_eof <- true
       | `Lost -> kill_conn t c (Types.Preprocess_failed "connection lost"));
    if c.c_state = Live then begin
      c.c_yielded <- false;
      t.turn_ends <- Tsj_util.Timer.now () +. read_turn_s;
      (match pump t c ~eof:c.c_eof with
      | () -> ()
      | exception Fault.Injected msg ->
        (* An injected handler fault crashes only this connection; the
           victim request gets no reply. *)
        kill_conn t c (Types.Verify_failed ("server.request: " ^ msg))
      | exception e -> kill_conn t c (Types.Verify_failed (Printexc.to_string e)));
      if
        c.c_state = Live
        && not (Mutex.protect t.io_mutex (fun () -> Netbuf.is_empty c.c_out))
      then flush_conn t c
    end
  end

(* A connection closes once it owes nothing: no ADD reply pending, no
   unflushed output, no input left behind by a yield, and either the
   client is done (EOF, DRAIN) or the server is draining.  Past the drain deadline it closes regardless.
   At EOF a binary connection closes even with leftover input: after
   [pump] the leftover is a truncated frame that can never complete
   (text mode consumes its final unterminated line instead). *)
let should_close t c ~now =
  (Atomic.get t.draining && now >= Atomic.get t.drain_force_at)
  || (not c.c_yielded)
     && Mutex.protect t.io_mutex (fun () ->
         c.c_async = 0
         && Netbuf.is_empty c.c_out
         && (c.c_closing
            || Atomic.get t.draining
            || (c.c_eof && (Netbuf.is_empty c.c_in || c.c_mode = Binary))))

let accept_new t =
  let rec loop () =
    (* The "server.emfile" fault point sits inside the try scope so an
       armed action can raise the real [EMFILE] and exercise the
       back-off path end to end. *)
    match
      Fault.hit "server.emfile" t.next_conn;
      Unix.accept t.listener
    with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
      (* fd exhaustion: the listener would stay hot-readable forever, so
         dropping the error on the floor turns the event loop into a
         busy spin.  Back off briefly (the listener leaves the select
         read set until the pause passes) and make the stall visible. *)
      ignore (Atomic.fetch_and_add t.counters.accept_pauses 1);
      t.accept_pause_until <- Tsj_util.Timer.now () +. 0.05
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
      let over_cap =
        match t.config.max_conns with
        | Some cap -> Mutex.protect t.conns_mutex (fun () -> Hashtbl.length t.conns) >= cap
        | None -> false
      in
      if over_cap then begin
        (* Accept-then-close: leaving the connection in the backlog
           would keep the listener readable and spin the loop. *)
        ignore (Atomic.fetch_and_add t.counters.reaped 1);
        (try Unix.close fd with Unix.Unix_error _ -> ());
        loop ()
      end
      else begin
        let conn_id = t.next_conn in
        t.next_conn <- conn_id + 1;
        (match Fault.hit "server.accept" conn_id with
        | exception Fault.Injected msg ->
          (* An injected accept-path fault drops this connection only. *)
          quarantine t ~conn_id (Types.Preprocess_failed ("server.accept: " ^ msg));
          (try Unix.close fd with Unix.Unix_error _ -> ())
        | () ->
          Unix.set_nonblock fd;
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ | Invalid_argument _ -> ());
          let now = Tsj_util.Timer.now () in
          let c =
            {
              c_id = conn_id;
              c_fd = fd;
              c_mode = Text;
              c_in = Netbuf.create ();
              c_out = Netbuf.create ();
              c_reqno = 0;
              c_async = 0;
              c_discard = false;
              c_skip = 0;
              c_closing = false;
              c_eof = false;
              c_yielded = false;
              c_state = Live;
              c_last_active = now;
              c_bucket =
                (match t.config.rate with
                | Some rate ->
                  Some
                    (Admission.Token_bucket.create ~rate ~burst:t.config.burst
                       ~now)
                | None -> None);
            }
          in
          Mutex.protect t.conns_mutex (fun () -> Hashtbl.replace t.conns conn_id c));
        loop ()
      end
  in
  loop ()

let close_listener t =
  if not (Atomic.exchange t.listener_closed true) then begin
    (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    match t.config.addr with
    | Protocol.Unix_path p -> ( try Sys.remove p with Sys_error _ -> ())
    | Protocol.Tcp _ -> ()
  end

(* Single-poll core: one [select] over the listener, the wake pipe and
   every connection; level-triggered, so each tick re-services every
   connection whose buffers still hold work.  A connection that yielded
   after a read still holds buffered requests the select cannot see, so
   the next select only polls. *)
let event_loop t =
  let scratch = Bytes.create 65536 in
  let pipe_scratch = Bytes.create 64 in
  let rec tick ~timeout =
    let draining = Atomic.get t.draining in
    if draining then close_listener t;
    let conns =
      Mutex.protect t.conns_mutex (fun () ->
          Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [])
    in
    if not (draining && conns = []) then begin
      (* While an EMFILE back-off is pending the listener stays out of
         the read set — select would otherwise report it readable every
         tick and spin the loop hot with nothing to accept into.  A
         connection that yielded is not read either until its buffered
         requests are served: its further pipelined reads wait in the
         socket, not in [c_in]. *)
      let accepting =
        (not draining) && Tsj_util.Timer.now () >= t.accept_pause_until
      in
      let reads =
        (t.wake_r :: (if accepting then [ t.listener ] else []))
        @ List.filter_map
            (fun c ->
              if c.c_state = Live && not (c.c_closing || c.c_eof || c.c_yielded) then
                Some c.c_fd
              else None)
            conns
      in
      let writes =
        List.filter_map
          (fun c ->
            if
              c.c_state = Live
              && not (Mutex.protect t.io_mutex (fun () -> Netbuf.is_empty c.c_out))
            then Some c.c_fd
            else None)
          conns
      in
      let rset =
        match Unix.select reads writes [] timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error _ ->
          Thread.delay 0.002;
          []
      in
      if List.mem t.wake_r rset then begin
        let rec drain_pipe () =
          match Unix.read t.wake_r pipe_scratch 0 (Bytes.length pipe_scratch) with
          | n -> if n = Bytes.length pipe_scratch then drain_pipe ()
          | exception Unix.Unix_error _ -> ()
        in
        drain_pipe ();
        (* Reset strictly AFTER the drain.  Resetting first opens a
           race: a committer [wake] lands between the reset and the
           drain — its CAS succeeds, its byte is eaten by the drain —
           leaving the flag true over an empty pipe.  Every later
           [wake] then CAS-fails, no byte is ever written again, and
           each reply waits out the full select timeout (a permanent
           tick-bound server).  With drain-then-reset a byte written
           after the reset cannot be consumed by this tick's drain,
           and a CAS that fails before the reset belongs to a reply
           already buffered, which this tick's service pass flushes. *)
        Atomic.set t.wake_flag false
      end;
      if accepting && List.mem t.listener rset then accept_new t;
      let now = Tsj_util.Timer.now () in
      List.iter
        (fun c ->
          if c.c_state = Live then begin
            service_conn t c scratch ~readable:(List.mem c.c_fd rset);
            (* Connection hygiene.  A peer that will not drain its
               socket must not hold an unbounded output buffer; an idle
               peer must not hold an fd forever.  Both closes are normal
               operation (counted as [reaped]), not quarantine-worthy
               faults. *)
            if c.c_state = Live then begin
              let out_len, busy =
                Mutex.protect t.io_mutex (fun () ->
                    (Netbuf.length c.c_out, c.c_async > 0))
              in
              if out_len > t.config.max_out_bytes then begin
                ignore (Atomic.fetch_and_add t.counters.reaped 1);
                close_conn t c
              end
              else
                match t.config.idle_timeout_s with
                | Some idle
                  when (not (busy || c.c_yielded)) && out_len = 0
                       && now -. c.c_last_active > idle ->
                  ignore (Atomic.fetch_and_add t.counters.reaped 1);
                  close_conn t c
                | _ -> ()
            end;
            if c.c_state = Live && should_close t c ~now then close_conn t c
          end)
        conns;
      tick ~timeout:(if List.exists (fun c -> c.c_yielded) conns then 0.0 else 0.05)
    end
  in
  tick ~timeout:0.05

(* --- follower side --- *)

(* While this node lacks the write mandate, keep a stream open from
   whichever peer in [sync_from] currently is the primary: send the
   SYNC hello, then feed every pushed line to the replica state machine
   under the store mutex.  A refused/broken stream rotates to the next
   address with a capped backoff; promotion or drain ends the loop. *)
let follower_loop t n =
  let delay = ref 0.02 in
  let stream_from addr =
    match Client.connect addr with
    | Error _ -> ()
    | Ok conn ->
      let ic, oc = Client.channels conn in
      n.follower_fd <- Some (Client.fd conn);
      let send line =
        output_string oc line;
        output_char oc '\n';
        flush oc
      in
      Mutex.protect n.store_mutex (fun () ->
          Replica.stream_started n.replica (Protocol.addr_to_string addr));
      (try
         send (Mutex.protect n.store_mutex (fun () -> Replica.hello n.replica));
         let rec go () =
           let line = input_line ic in
           if not (Atomic.get t.draining) then begin
             match
               Mutex.protect n.commit_mutex (fun () ->
                   Mutex.protect n.store_mutex (fun () -> Replica.feed n.replica line))
             with
             | Replica.Reply r ->
               send r;
               delay := 0.02;
               go ()
             | Replica.Final r -> send r
             | Replica.Stop _ -> ()
           end
         in
         go ()
       with
      | End_of_file | Sys_error _ | Unix.Unix_error _ -> ()
      | Fault.Injected _ -> ());
      Mutex.protect n.store_mutex (fun () -> Replica.stream_lost n.replica);
      n.follower_fd <- None;
      Client.close conn
  in
  let rec loop () =
    if not (Atomic.get t.draining || Replica.is_primary n.replica) then begin
      List.iter
        (fun addr ->
          if not (Atomic.get t.draining || Replica.is_primary n.replica) then
            stream_from addr)
        t.config.sync_from;
      if not (Atomic.get t.draining || Replica.is_primary n.replica) then begin
        Thread.delay !delay;
        delay := Float.min 0.5 (!delay *. 2.0)
      end;
      loop ()
    end
  in
  loop ()

(* --- lifecycle --- *)

(* A reply written to a connection the client just closed must surface
   as EPIPE (quarantining that connection) — never as a process-killing
   SIGPIPE.  Not available on Windows, hence the guard. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let bind_listener addr =
  match addr with
  | Protocol.Unix_path path ->
    if Sys.file_exists path then Sys.remove path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | Protocol.Tcp (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (inet, port));
    Unix.listen fd 64;
    fd

let validate config =
  if config.tau < 0 then Error "negative threshold"
  else if config.max_inflight < 0 then Error "max_inflight must be >= 0"
  else if config.drain_budget_s < 0.0 then Error "negative drain budget"
  else if config.quorum < 1 then Error "quorum must be >= 1"
  else if config.max_batch < 1 then Error "max_batch must be >= 1"
  else if (match config.rate with Some r -> r <= 0.0 | None -> false) then
    Error "rate must be > 0"
  else if config.burst < 1 then Error "burst must be >= 1"
  else if (match config.idle_timeout_s with Some s -> s <= 0.0 | None -> false)
  then Error "idle timeout must be > 0"
  else if config.max_out_bytes < 1 then Error "max_out_bytes must be >= 1"
  else if (match config.max_conns with Some m -> m < 1 | None -> false) then
    Error "max_conns must be >= 1"
  else Ok ()

(* Bind the listener and build the connection layer around [handler]. *)
let open_front config handler =
  match bind_listener config.addr with
  | exception Unix.Unix_error (e, _, arg) ->
    Error
      (Printf.sprintf "bind %s: %s (%s)"
         (Protocol.addr_to_string config.addr)
         (Unix.error_message e) arg)
  | listener ->
    Unix.set_nonblock listener;
    let wake_r, wake_w = Unix.pipe () in
    Unix.set_nonblock wake_r;
    Unix.set_nonblock wake_w;
    Ok
      {
        config;
        handler;
        listener;
        listener_closed = Atomic.make false;
        counters =
          {
            queries = Atomic.make 0;
            adds = Atomic.make 0;
            shed = Atomic.make 0;
            degraded = Atomic.make 0;
            errors = Atomic.make 0;
            inflight = Atomic.make 0;
            expired = Atomic.make 0;
            accept_pauses = Atomic.make 0;
            reaped = Atomic.make 0;
          };
        draining = Atomic.make false;
        drained = Atomic.make false;
        aborted = Atomic.make false;
        quarantined = Atomic.make [];
        io_mutex = Mutex.create ();
        conns = Hashtbl.create 16;
        conns_mutex = Mutex.create ();
        wake_r;
        wake_w;
        wake_flag = Atomic.make false;
        drain_force_at = Atomic.make infinity;
        loop_thread = None;
        next_conn = 0;
        accept_pause_until = 0.0;
        turn_ends = 0.0;
      }

let create config =
  match validate config with
  | Error _ as e -> e
  | Ok () -> (
    (* Self-healing open: a journal record that rotted on disk is
       refetched from a quorum peer (the [--replica-of] list) as a
       tree via [GET] and re-rendered into its canonical line. *)
    let heal =
      match config.sync_from with
      | [] -> None
      | peers ->
        Some
          (fun seq ->
            List.find_map
              (fun addr ->
                let rng = Tsj_util.Prng.create (0x4EA1 + seq) in
                match
                  Client.request_with_retries ~attempts:2 ~timeout_s:2.0 ~rng addr
                    (Protocol.Get seq)
                with
                | Ok (Protocol.Tree_reply { tree; _ }) ->
                  Some (Store.render_record ~seq tree)
                | _ -> None)
              peers)
    in
    match
      Store.open_ ?dir:config.dir ~dedup:config.dedup
        ?heal ~quarantine:config.quarantine ~tau:config.tau ()
    with
    | Error m -> Error m
    | Ok store ->
      let cluster = Cluster.create ~quorum:config.quorum () in
      (* Everything restored from disk was acknowledged (or became
         canon through promotion) in a previous life. *)
      Cluster.set_acked_high cluster (Store.n_trees store);
      open_front config
        (Node
           {
             store;
             replica = Replica.create ~primary:config.primary store;
             cluster;
             store_mutex = Mutex.create ();
             commit_mutex = Mutex.create ();
             read_budget = Atomic.make None;
             addq = Queue.create ();
             addq_mutex = Mutex.create ();
             addq_cond = Condition.create ();
             committer_thread = None;
             follower_thread = None;
             follower_fd = None;
             sync_threads = [];
             sync_mutex = Mutex.create ();
             scrubber = None;
             h_query = Admission.Histogram.create ();
             h_knn = Admission.Histogram.create ();
             h_add = Admission.Histogram.create ();
           }))

let create_router config router =
  match validate config with
  | Error _ as e -> e
  | Ok () -> open_front config (Router router)

let start t =
  ignore_sigpipe ();
  if t.config.handle_sigterm then
    Sys.set_signal Sys.sigterm
      (Sys.Signal_handle (fun _ -> ignore (Thread.create (fun () -> do_drain t) ())));
  t.loop_thread <- Some (Thread.create (fun () -> event_loop t) ());
  match t.handler with
  | Router _ -> ()
  | Node n -> (
    n.committer_thread <- Some (Thread.create (fun () -> committer_loop t n) ());
    if t.config.sync_from <> [] && not (Replica.is_primary n.replica) then
      n.follower_thread <- Some (Thread.create (fun () -> follower_loop t n) ());
    match t.config.scrub_interval_s with
    | None -> ()
    | Some interval_s ->
      (* A scrub step holds the write lock (then the store lock): a
         repair is a flush, and flushing concurrently with a group
         commit's unlocked journal phase would corrupt the journal it is
         trying to heal.  The IO budget keeps the stall per tick small. *)
      n.scrubber <-
        Some
          (Scrub.start ~interval_s (fun () ->
               if not (Atomic.get t.draining) then
                 ignore
                   (Mutex.protect n.commit_mutex (fun () ->
                        Mutex.protect n.store_mutex (fun () ->
                            Store.scrub_step ~budget:t.config.scrub_budget n.store))))))

let drain t = do_drain t

let drained t = Atomic.get t.drained

(* Test hook modelling [kill -9] in-process: sever every fd and stop
   every loop without flushing, truncating or snapshotting anything —
   recovery must come from the journal alone. *)
let abort t =
  Atomic.set t.aborted true;
  Atomic.set t.drain_force_at 0.0;
  Atomic.set t.draining true;
  (match t.handler with
  | Router _ -> ()
  | Node n ->
    (* Scrub steps already no-op once draining is set, so the join is
       prompt. *)
    stop_node_workers n;
    Cluster.seal n.cluster;
    Mutex.protect n.addq_mutex (fun () -> Condition.broadcast n.addq_cond));
  close_listener t;
  Mutex.protect t.conns_mutex (fun () ->
      Hashtbl.iter
        (fun _ c ->
          try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        t.conns);
  wake t

let wait t =
  (match t.loop_thread with Some th -> Thread.join th | None -> ());
  (match t.handler with
  | Router _ -> ()
  | Node n ->
    (match n.committer_thread with Some th -> Thread.join th | None -> ());
    (match n.follower_thread with Some th -> Thread.join th | None -> ());
    List.iter Thread.join (Mutex.protect n.sync_mutex (fun () -> n.sync_threads)));
  (* A graceful drain is complete only once the store is flushed; an
     abort leaves the store as-is by design. *)
  if Atomic.get t.draining && not (Atomic.get t.aborted) then
    while not (Atomic.get t.drained) do
      Thread.yield ()
    done

let node t =
  match t.handler with
  | Node n -> n
  | Router _ -> invalid_arg "Server: a router front has no store"

let store t = (node t).store

let replica t = (node t).replica

let quarantined t = List.rev (Atomic.get t.quarantined)
