module Fault = Tsj_util.Fault_inject

exception Fenced_exn of int

type peer = {
  id : string;
  send : string -> unit;
  recv : unit -> string;
  close : unit -> unit;
  mutable pos : int;  (* next sequence number this peer needs *)
  mutable alive : bool;
}

type t = {
  quorum : int;
  lock : Mutex.t;  (* the write lock: serializes adds, registration, seal *)
  mutable peers : peer list;
  mutable acked_high : int;
  mutable sealed : bool;
}

let create ?(quorum = 1) () =
  if quorum < 1 then invalid_arg "Cluster.create: quorum must be >= 1";
  { quorum; lock = Mutex.create (); peers = []; acked_high = 0; sealed = false }

let quorum t = t.quorum

let acked_high t = t.acked_high

let set_acked_high t n =
  Mutex.protect t.lock (fun () -> t.acked_high <- max t.acked_high n)

let sealed t = t.sealed

let with_write t f = Mutex.protect t.lock f

let live_peers t =
  Mutex.protect t.lock (fun () ->
      List.filter_map (fun p -> if p.alive then Some p.id else None) t.peers)

(* Push one record and consume the ack, lock-step.  The follower
   answers [ACKED <n>] with [n] = its new tree count; an idempotent
   skip on its side can legitimately jump [pos] forward by more than
   one.  A [FENCED] reply means the follower holds a higher epoch (it
   was promoted): the caller must demote. *)
let push_record peer record =
  peer.send (Protocol.render_response (Protocol.Record record));
  let line = peer.recv () in
  match Protocol.parse_request line with
  | Ok (Protocol.Ack n) when n > peer.pos -> peer.pos <- n
  | Ok (Protocol.Ack n) ->
    failwith (Printf.sprintf "peer %s acked %d without progress from %d" peer.id n peer.pos)
  | _ -> (
    (* [FENCED] travels in the response grammar on this leg. *)
    match Protocol.parse_response line with
    | Ok (Protocol.Fenced e) -> raise (Fenced_exn e)
    | _ -> failwith (Printf.sprintf "peer %s broke the stream protocol: %S" peer.id line))

(* Idempotent: a peer dropped by a mid-replicate failure can be dropped
   again by {!seal}.  Closing its fd a second time would be a use-after-
   free of the descriptor NUMBER — in-process, the number may already
   belong to a freshly accepted connection of another server, which the
   stray close would silently kill. *)
let drop_peer peer =
  if peer.alive then begin
    peer.alive <- false;
    try peer.close () with _ -> ()
  end

(* Replicate the record(s) up to [seq] to every live peer and count
   durable copies.  MUST be called with the write lock held (see
   {!with_write}): the stream is lock-step and ordered, so writes are
   serialized.  Counts the caller's own journaled copy as 1.  The
   [cluster.partition] hit point fires once per peer (payload = peer
   index): an [Injected] raise models a network partition and marks the
   peer dead until it re-syncs. *)
type outcome = Acks of int | No_quorum of int | Fenced_off of int

let replicate t ~record_for ~seq =
  if t.sealed then No_quorum 1
  else begin
    let fenced = ref None in
    let acks = ref 1 in
    List.iteri
      (fun idx peer ->
        if peer.alive && !fenced = None then
          match
            Fault.hit "cluster.partition" idx;
            while peer.pos <= seq do
              push_record peer (record_for peer.pos)
            done
          with
          | () -> incr acks
          | exception Fenced_exn e -> fenced := Some e
          | exception _ -> drop_peer peer)
      t.peers;
    match !fenced with
    | Some e -> Fenced_off e
    | None ->
      if !acks >= t.quorum then begin
        t.acked_high <- max t.acked_high (seq + 1);
        Acks !acks
      end
      else No_quorum !acks
  end

(* Final (locked) catch-up and registration: while the write lock is
   held no add can slip past, so the peer is exactly current when it
   enters the peer list.  An existing peer with the same id (a replica
   that reconnected) is replaced.  A refused peer is not closed: its
   transport still belongs to the caller, which replies and closes. *)
let register t peer ~upto ~record_for =
  Mutex.protect t.lock (fun () ->
      if t.sealed then Error "cluster is sealed (draining)"
      else
        match
          let n = upto () in
          while peer.pos < n do
            push_record peer (record_for peer.pos)
          done
        with
        | () ->
          let old, rest = List.partition (fun p -> p.id = peer.id) t.peers in
          List.iter drop_peer old;
          t.peers <- rest @ [ peer ];
          Ok ()
        | exception Fenced_exn e -> Error (Printf.sprintf "peer fenced at epoch %d" e)
        | exception e -> Error (Printexc.to_string e))

(* Primary-side handling of a replica's [SYNC <epoch> <from_seq>]: the
   header/ack handshake, the bulk catch-up (outside the write lock) and
   the locked registration.  Store access goes through the caller's
   closures so the server can interpose its store mutex; the harness
   passes the store operations directly.  The transport stays the
   caller's until [`Streaming]: no refusal closes it, because the caller
   still writes the refusal to it and then closes it once.  Closing it
   here too would free the descriptor number for a concurrent accept,
   and the caller's reply and close would then hit that connection. *)
let serve_sync t ~epoch ~base ~n_trees ~record_for ~primary ~peer_id ~f_epoch ~send
    ~recv ~close =
  let e = epoch () in
  if f_epoch > e then `Fenced f_epoch
  else if not (primary ()) then `Refused "not primary"
  else
    match
      send
        (Protocol.render_response
           (Protocol.Sync_stream { epoch = e; base = base (); high = n_trees () }));
      match Protocol.parse_request (recv ()) with
      | Ok (Protocol.Ack pos) -> pos
      | _ -> failwith "expected ACKED after the stream header"
    with
    | exception ex -> `Refused (Printexc.to_string ex)
    | pos ->
      if pos > n_trees () then `Refused "replica is ahead of the primary"
      else begin
        let peer = { id = peer_id; send; recv; close; pos; alive = true } in
        match
          while peer.pos < n_trees () do
            push_record peer (record_for peer.pos)
          done
        with
        | exception Fenced_exn ex -> `Refused (Printf.sprintf "peer fenced at epoch %d" ex)
        | exception ex -> `Refused (Printexc.to_string ex)
        | () -> (
          match register t peer ~upto:n_trees ~record_for with
          | Ok () -> `Streaming
          | Error msg -> `Refused msg)
      end

(* Abort replication for drain: refuse future replicates, close every
   peer stream, and — by taking the write lock — wait out any quorum
   write in flight, so drain never races a half-replicated add. *)
let seal t =
  Mutex.protect t.lock (fun () ->
      t.sealed <- true;
      List.iter drop_peer t.peers;
      t.peers <- [])
