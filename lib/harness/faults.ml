module Types = Tsj_join.Types
module Fault = Tsj_util.Fault_inject
module Checkpoint = Tsj_join.Checkpoint
module Budget = Tsj_join.Budget

type kill_report = {
  killed : bool;
  uninterrupted : Types.output;
  resumed : Types.output;
}

let fresh_journal () =
  let path = Filename.temp_file "tsj_ckpt" ".journal" in
  Sys.remove path;
  path

let run_kill_and_resume ?(domains = 1) ?(kill_at_block = 1) ?journal ~trees ~tau () =
  let path = match journal with Some p -> p | None -> fresh_journal () in
  if Sys.file_exists path then Sys.remove path;
  let uninterrupted = Tsj_core.Partsj.join ~domains ~trees ~tau () in
  (* Crash run: the injected raise fires at the top of block
     [kill_at_block], after the previous block's journal entry — the
     worst case a real kill can leave behind. *)
  let killed =
    match
      Fault.with_armed "partsj.block" ~at:kill_at_block (fun () ->
          Tsj_core.Partsj.join ~domains
            ~checkpoint:(Checkpoint.config path)
            ~trees ~tau ())
    with
    | _ -> false (* too few blocks to reach the kill point *)
    | exception Fault.Injected _ -> true
  in
  let resumed =
    Tsj_core.Partsj.join ~domains
      ~checkpoint:(Checkpoint.config ~resume:true path)
      ~trees ~tau ()
  in
  if journal = None && Sys.file_exists path then Sys.remove path;
  { killed; uninterrupted; resumed }

type budget_report = {
  truth : Types.output;
  budgeted : Types.output;
  false_positives : Types.pair list;
  unaccounted : Types.pair list;
}

let quarantined_ids out =
  List.fold_left
    (fun acc q ->
      match q.Types.q_j with
      | None -> (q.Types.q_i, q.Types.q_i) :: acc
      | Some j -> (min q.Types.q_i j, max q.Types.q_i j) :: acc)
    [] out.Types.quarantined

let covered out p =
  let i = min p.Types.i p.Types.j and j = max p.Types.i p.Types.j in
  List.exists
    (fun (a, b) -> (a = b && (a = i || a = j)) || (a = i && b = j))
    (quarantined_ids out)

let run_budgeted ?(domains = 1) ~pair_cost_limit ~trees ~tau () =
  let truth = Tsj_core.Partsj.join ~domains ~trees ~tau () in
  let budget = Budget.create ~pair_cost_limit () in
  let budgeted = Tsj_core.Partsj.join ~domains ~budget ~trees ~tau () in
  let false_positives =
    List.filter (fun p -> not (List.mem p truth.Types.pairs)) budgeted.Types.pairs
  in
  let unaccounted =
    List.filter
      (fun p -> (not (List.mem p budgeted.Types.pairs)) && not (covered budgeted p))
      truth.Types.pairs
  in
  { truth; budgeted; false_positives; unaccounted }

let truncate_file path ~keep_bytes =
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let keep = min keep_bytes (String.length contents) in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub contents 0 keep))

(* --- server store kill-and-restart --- *)

type server_kill_report = {
  server_killed : bool;
  acked : int;
  expected : int;
  answers_match : bool;
}

let fresh_store_dir () =
  let path = Filename.temp_file "tsj_store" "" in
  Sys.remove path;
  path

let remove_store_dir dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let store_of_exn = function Ok s -> s | Error msg -> failwith msg

(* The crash-safety scenario of the service ADD path: feed [trees] into
   a journaled {!Tsj_server.Store}, kill it (injected raise at the
   [server.journal] hit point, store abandoned without close — the
   in-memory index is simply lost) at add number [kill_at_add], then
   restart from the on-disk state and compare query answers against a
   reference store fed exactly the acknowledged prefix.

   [tear_tail] additionally chops bytes off the journal's final record
   before the restart — a partial disk write from a crash mid-append.
   The torn record was never acknowledged-durable, so the expected
   surviving prefix shrinks by one. *)
let run_server_kill_and_restart ?(kill_at_add = 1) ?(tear_tail = false)
    ~trees ~queries ~tau () =
  let dir = fresh_store_dir () in
  let acked = ref 0 in
  let server_killed =
    match
      Fault.with_armed "server.journal" ~at:kill_at_add (fun () ->
          let store = store_of_exn (Tsj_server.Store.open_ ~dir ~tau ()) in
          Array.iter
            (fun t ->
              ignore (Tsj_server.Store.add store t);
              incr acked)
            trees;
          Tsj_server.Store.close store)
    with
    | () -> false (* too few adds to reach the kill point *)
    | exception Fault.Injected _ -> true
  in
  let torn =
    if tear_tail && server_killed && !acked > 0 then begin
      let journal = Filename.concat dir "journal" in
      let len = (Unix.stat journal).Unix.st_size in
      (* Losing the trailing newline plus two checksum characters makes
         the final record undecodable — a torn tail, not mid-file
         corruption. *)
      truncate_file journal ~keep_bytes:(max 0 (len - 3));
      true
    end
    else false
  in
  let expected = if torn then !acked - 1 else !acked in
  let replayed_store = store_of_exn (Tsj_server.Store.open_ ~dir ~tau ()) in
  let reference = store_of_exn (Tsj_server.Store.open_ ~tau ()) in
  for i = 0 to expected - 1 do
    ignore (Tsj_server.Store.add reference trees.(i))
  done;
  let answers_match =
    Tsj_server.Store.n_trees replayed_store = expected
    && Array.for_all
         (fun q ->
           let a = Tsj_server.Store.query replayed_store q in
           let b = Tsj_server.Store.query reference q in
           a.Tsj_core.Incremental.hits = b.Tsj_core.Incremental.hits
           && (not a.degraded) && (not b.degraded))
         queries
  in
  Tsj_server.Store.close replayed_store;
  remove_store_dir dir;
  { server_killed; acked = !acked; expected; answers_match }

(* --- replicated-cluster failover storm --- *)

module Sstore = Tsj_server.Store
module Replica = Tsj_server.Replica
module Cluster = Tsj_server.Cluster
module Sproto = Tsj_server.Protocol
module Sshard = Tsj_server.Shard
module Srouter = Tsj_server.Router
module Prng = Tsj_util.Prng

type failover_report = {
  chaos_points : int;
  acked_adds : int;
  failovers : int;
  acked_preserved : bool;
  single_writer : bool;
  converged : bool;
  cluster_answers_match : bool;
}

type storm_node = {
  sn_idx : int;
  sn_dir : string;
  mutable sn_store : Sstore.t;
  mutable sn_replica : Replica.t;
  mutable sn_cluster : Cluster.t;
  mutable sn_dead : bool;
  mutable sn_partitioned : bool;
  mutable sn_stream_gen : int;
      (* bumped whenever the node (re)starts a replication stream; links
         created under an older generation fail like a closed socket *)
}

(* One replica group driven entirely in process: real journaled stores
   in temp directories, the real {!Replica}/{!Cluster} state machines,
   and an in-memory transport whose send and recv legs both check for
   partitions — so a record can be durably applied on the follower
   while its ack is lost, the ambiguous half of every replication
   protocol.  The unsharded failover storm runs one group; the sharded
   storm runs one per shard, sharing the [sg_active] ref so a targeted
   fault action can recognise which group is doing the work that
   tripped a hit point. *)
type storm_group = {
  sg_id : int;
  sg_quorum : int;
  sg_tau : int;
  sg_nodes : storm_node array;
  sg_feeding : int ref;  (* sn_idx of the follower currently being fed *)
  sg_active : int ref;  (* shared: sg_id of the group currently writing *)
  sg_failovers : int ref;
  sg_writers : (int, int) Hashtbl.t;  (* epoch -> the one writer's sn_idx *)
  sg_single_writer : bool ref;
  mutable sg_next_idx : int;  (* source of unique sn_idx (migration targets) *)
  mutable sg_graveyard : storm_node list;  (* retired nodes, closed at cleanup *)
}

let group_fresh_node g ~primary =
  let idx = g.sg_next_idx in
  g.sg_next_idx <- idx + 1;
  let dir = fresh_store_dir () in
  let store = store_of_exn (Sstore.open_ ~dir ~tau:g.sg_tau ()) in
  {
    sn_idx = idx;
    sn_dir = dir;
    sn_store = store;
    sn_replica = Replica.create ~primary store;
    sn_cluster = Cluster.create ~quorum:g.sg_quorum ();
    sn_dead = false;
    sn_partitioned = false;
    sn_stream_gen = 0;
  }

let group_create ~id ~active ~quorum ~tau ~replicas =
  let g =
    {
      sg_id = id;
      sg_quorum = quorum;
      sg_tau = tau;
      sg_nodes = [||];
      sg_feeding = ref (-1);
      sg_active = active;
      sg_failovers = ref 0;
      sg_writers = Hashtbl.create 8;
      sg_single_writer = ref true;
      sg_next_idx = 0;
      sg_graveyard = [];
    }
  in
  let nodes = Array.init replicas (fun i -> group_fresh_node g ~primary:(i = 0)) in
  { g with sg_nodes = nodes }

let group_record_writer g node =
  let e = Sstore.epoch node.sn_store in
  match Hashtbl.find_opt g.sg_writers e with
  | None -> Hashtbl.add g.sg_writers e node.sn_idx
  | Some w -> if w <> node.sn_idx then g.sg_single_writer := false

let node_record_for node s = Sstore.record_for node.sn_store s

(* The transport: [send] delivers a pushed line straight into the
   follower's {!Replica.feed} and stashes the reaction; [recv] hands
   it back.  Both legs fail when either endpoint is dead or
   partitioned — a partition hit on the recv leg loses an ack the
   follower already made durable. *)
let group_link g pnode fnode =
  let gen = fnode.sn_stream_gen in
  let pending = ref None in
  let check leg =
    if
      pnode.sn_dead || fnode.sn_dead || pnode.sn_partitioned || fnode.sn_partitioned
      || fnode.sn_stream_gen <> gen
    then failwith ("replication link down (" ^ leg ^ ")")
  in
  let send line =
    check "send";
    g.sg_feeding := fnode.sn_idx;
    let reaction =
      Fun.protect
        ~finally:(fun () -> g.sg_feeding := -1)
        (fun () -> Replica.feed fnode.sn_replica line)
    in
    match reaction with
    | Replica.Reply r | Replica.Final r -> pending := Some r
    | Replica.Stop reason -> failwith ("stream stopped: " ^ reason)
  in
  let recv () =
    check "recv";
    match !pending with
    | Some r ->
      pending := None;
      r
    | None -> failwith "no reply pending"
  in
  (send, recv, fun () -> ())

(* Re-attach [fnode] as a follower of [pnode]: the follower's [SYNC]
   hello, the primary's {!Cluster.serve_sync} handshake, catch-up and
   registration — exactly the server's wire path, minus the socket.
   A fresh [fnode] syncs from sequence 0: the full-snapshot stream a
   shard migration rides. *)
let group_resync g pnode fnode =
  if
    fnode == pnode || fnode.sn_dead || fnode.sn_partitioned || pnode.sn_dead
    || pnode.sn_partitioned
  then false
  else begin
    if Replica.is_primary fnode.sn_replica then Replica.demote fnode.sn_replica;
    fnode.sn_stream_gen <- fnode.sn_stream_gen + 1;
    match Sproto.parse_request (Replica.hello fnode.sn_replica) with
    | Ok (Sproto.Sync { epoch = f_epoch; from_seq = _ }) -> (
      let send, recv, close = group_link g pnode fnode in
      match
        Cluster.serve_sync pnode.sn_cluster
          ~epoch:(fun () -> Sstore.epoch pnode.sn_store)
          ~base:(fun () -> Sstore.epoch_base pnode.sn_store)
          ~n_trees:(fun () -> Sstore.n_trees pnode.sn_store)
          ~record_for:(node_record_for pnode)
          ~primary:(fun () -> Replica.is_primary pnode.sn_replica)
          ~peer_id:(Printf.sprintf "node-%d-%d" g.sg_id fnode.sn_idx)
          ~f_epoch ~send ~recv ~close
      with
      | `Streaming -> true
      | `Fenced _ | `Refused _ -> false)
    | _ -> false
  end

(* Of the nodes still claiming the mandate, the one at the highest
   epoch is the real primary — a healed stale claimant sorts below it
   and is demoted when it re-syncs. *)
let group_current_primary g =
  let best = ref None in
  Array.iter
    (fun node ->
      if (not node.sn_dead) && Replica.is_primary node.sn_replica then
        match !best with
        | Some b when Sstore.epoch b.sn_store >= Sstore.epoch node.sn_store -> ()
        | _ -> best := Some node)
    g.sg_nodes;
  !best

let group_reachable_primary g =
  match group_current_primary g with
  | Some p when not p.sn_partitioned -> Some p
  | _ -> None

(* The operator's promotion rule: the reachable node with the highest
   (epoch, n_trees).  The stream is sequential, so among same-epoch
   nodes the longest one holds a superset — in particular every add
   that ever reached quorum. *)
let group_failover g =
  let best = ref None in
  Array.iter
    (fun node ->
      if (not node.sn_dead) && not node.sn_partitioned then begin
        let key = (Sstore.epoch node.sn_store, Sstore.n_trees node.sn_store) in
        match !best with
        | Some (k, _) when k >= key -> ()
        | _ -> best := Some (key, node)
      end)
    g.sg_nodes;
  match !best with
  | None -> None
  | Some (_, node) ->
    if not (Replica.is_primary node.sn_replica) then begin
      ignore (Replica.promote node.sn_replica);
      node.sn_cluster <- Cluster.create ~quorum:g.sg_quorum ();
      Cluster.set_acked_high node.sn_cluster (Sstore.n_trees node.sn_store);
      incr g.sg_failovers
    end;
    Some node

let group_recover g =
  match group_failover g with
  | None -> false
  | Some p ->
    Array.iter (fun node -> if node != p then ignore (group_resync g p node)) g.sg_nodes;
    true

let group_restart g node =
  node.sn_dead <- false;
  node.sn_partitioned <- false;
  node.sn_stream_gen <- node.sn_stream_gen + 1;
  (* kill -9 semantics: the old store object is abandoned unflushed;
     recovery must come from the journal alone *)
  let store = store_of_exn (Sstore.open_ ~dir:node.sn_dir ~tau:g.sg_tau ()) in
  node.sn_store <- store;
  node.sn_replica <- Replica.create ~primary:false store;
  node.sn_cluster <- Cluster.create ~quorum:g.sg_quorum ();
  Cluster.set_acked_high node.sn_cluster (Sstore.n_trees store)

let group_heal g =
  Array.iter (fun node -> node.sn_partitioned <- false) g.sg_nodes;
  Array.iter (fun node -> if node.sn_dead then group_restart g node) g.sg_nodes;
  let p =
    match group_current_primary g with
    | Some p -> p
    | None -> (
      match group_failover g with
      | Some p -> p
      | None -> failwith "storm: no promotable node")
  in
  Array.iter (fun node -> if node != p then ignore (group_resync g p node)) g.sg_nodes;
  p

(* The server's execute path for a replicated ADD, verbatim: local
   journaled add and quorum replication under one write lock, dup
   acks below the acked high-water mark, demotion on FENCED. *)
let group_do_add g node ~seq tree =
  let prev = !(g.sg_active) in
  g.sg_active := g.sg_id;
  Fun.protect
    ~finally:(fun () -> g.sg_active := prev)
    (fun () ->
      Cluster.with_write node.sn_cluster (fun () ->
          match Sstore.add_seq node.sn_store ~seq tree with
          | Error reason -> `Err reason
          | Ok (id, _partners) ->
            if id + 1 <= Cluster.acked_high node.sn_cluster then `Acked_dup
            else (
              match
                Cluster.replicate node.sn_cluster ~record_for:(node_record_for node) ~seq:id
              with
              | Cluster.Acks _ -> `Acked
              | Cluster.No_quorum _ -> `No_quorum
              | Cluster.Fenced_off e ->
                Replica.demote node.sn_replica;
                `Fenced_off e)))

(* The client's safe-retry ADD: learn a sequence number once, then
   retry with the {e same} seq across failures and failovers — the
   idempotency contract.  An ack computed by a node that died before
   answering is treated as lost (the ambiguous case); the retry
   resolves it via the new primary's dup ack.  [Some (seq, node)] on a
   delivered ack. *)
let group_client_add g tree =
  let rec go attempts seq_opt =
    if attempts <= 0 then None
    else
      match group_reachable_primary g with
      | None ->
        ignore (group_recover g);
        go (attempts - 1) seq_opt
      | Some node -> (
        let seq =
          match seq_opt with Some s -> s | None -> Sstore.n_trees node.sn_store
        in
        let outcome = group_do_add g node ~seq tree in
        let ack_delivered = (not node.sn_dead) && not node.sn_partitioned in
        match outcome with
        | (`Acked | `Acked_dup) when ack_delivered ->
          (match outcome with `Acked -> group_record_writer g node | _ -> ());
          Some (seq, node)
        | `Acked | `Acked_dup | `No_quorum | `Fenced_off _ -> go (attempts - 1) (Some seq)
        | `Err _ -> go (attempts - 1) None)
  in
  go 8 None

let one_shot body =
  let fired = ref false in
  fun payload ->
    if not !fired then begin
      match body payload with
      | `Skip -> ()
      | `Fire key ->
        fired := true;
        raise (Fault.Injected key)
    end

(* One chaos event against an otherwise healed group; [true] iff an
   event was injected (there was a primary to aim at). *)
let group_inject_chaos g rng =
  match group_current_primary g with
  | None -> false
  | Some p ->
    let followers =
      Array.to_list g.sg_nodes |> List.filter (fun x -> x != p && not x.sn_dead)
    in
    let pick_follower () = List.nth followers (Prng.int rng (List.length followers)) in
    (match Prng.int rng 6 with
    | 0 -> (pick_follower ()).sn_partitioned <- true
    | 1 -> p.sn_partitioned <- true
    | 2 -> p.sn_dead <- true
    | 3 ->
      (* kill the primary mid-quorum: after [k] of its peers have the
         record but before the client is answered *)
      let k = Prng.int rng 2 in
      Fault.arm_action "cluster.partition"
        (one_shot (fun idx ->
             if idx = k && !(g.sg_active) = g.sg_id then begin
               p.sn_dead <- true;
               `Fire "cluster.partition"
             end
             else `Skip))
    | 4 ->
      (* kill a follower just before it applies a pushed record: the
         record is lost there, the primary sees no ack *)
      let f = pick_follower () in
      Fault.arm_action "replica.stream"
        (one_shot (fun _seq ->
             if !(g.sg_feeding) = f.sn_idx then begin
               f.sn_dead <- true;
               `Fire "replica.stream"
             end
             else `Skip))
    | _ ->
      (* kill a follower after the durable apply but before the ack —
         the ambiguous case: durable yet unacknowledged *)
      let f = pick_follower () in
      Fault.arm_action "replica.ack"
        (one_shot (fun _seq ->
             if !(g.sg_feeding) = f.sn_idx then begin
               f.sn_dead <- true;
               `Fire "replica.ack"
             end
             else `Skip)));
    true

(* Journal-streaming shard migration: a brand-new node syncs from the
   source primary starting at sequence 0 (the full snapshot — SYNC
   verbatim), and once caught up is promoted, fencing the source via
   the epoch bump; the new node replaces the old primary's slot.  With
   [sabotage], a one-shot kill is armed against the stream (target or
   source dies mid-migration) and the cutover must abort cleanly: the
   half-synced target is discarded and the source keeps the shard. *)
let group_migrate g rng ~sabotage =
  match group_reachable_primary g with
  | None -> false
  | Some p ->
    let fresh = group_fresh_node g ~primary:false in
    if sabotage then begin
      let kill_target = Prng.bool rng in
      Fault.arm_action
        (if Prng.bool rng then "replica.stream" else "replica.ack")
        (one_shot (fun _seq ->
             if !(g.sg_feeding) = fresh.sn_idx then begin
               (if kill_target then fresh.sn_dead <- true else p.sn_dead <- true);
               `Fire "migration"
             end
             else `Skip))
    end;
    let streamed = group_resync g p fresh in
    let caught_up =
      streamed && (not fresh.sn_dead) && (not p.sn_dead)
      && Sstore.n_trees fresh.sn_store = Sstore.n_trees p.sn_store
    in
    if caught_up then begin
      ignore (Replica.promote fresh.sn_replica);
      Cluster.set_acked_high fresh.sn_cluster (Sstore.n_trees fresh.sn_store);
      let slot = ref (-1) in
      Array.iteri (fun i node -> if node == p then slot := i) g.sg_nodes;
      g.sg_graveyard <- p :: g.sg_graveyard;
      g.sg_nodes.(!slot) <- fresh;
      true
    end
    else begin
      (* aborted mid-migration: discard the target, keep the source *)
      fresh.sn_dead <- true;
      g.sg_graveyard <- fresh :: g.sg_graveyard;
      false
    end

let group_cleanup g =
  let close_node node =
    (try Sstore.close node.sn_store with _ -> ());
    remove_store_dir node.sn_dir
  in
  Array.iter close_node g.sg_nodes;
  List.iter close_node g.sg_graveyard

let tree_str node i = Tsj_tree.Bracket.to_string (Sstore.tree node.sn_store i)

let group_converged g primary =
  let n = Sstore.n_trees primary.sn_store in
  Array.for_all
    (fun node ->
      Sstore.n_trees node.sn_store = n
      && Sstore.epoch node.sn_store = Sstore.epoch primary.sn_store
      &&
      let ok = ref true in
      for i = 0 to n - 1 do
        if tree_str node i <> tree_str primary i then ok := false
      done;
      !ok)
    g.sg_nodes

(* The unsharded storm: one 3-node group, one chaos event per round —
   quorum 2-of-3 tolerates exactly one failure, so that is the
   envelope worth asserting in.  The driver plays both the client
   (safe-retry ADDs) and the operator (heal, restart, promote the
   reachable node with the highest (epoch, n_trees)). *)
let run_failover_storm ?(seed = 0xC1A05) ?(rounds = 40) ?(quorum = 2)
    ~trees ~queries ~tau () =
  let rng = Prng.create seed in
  let g = group_create ~id:0 ~active:(ref (-1)) ~quorum ~tau ~replicas:3 in
  let chaos_points = ref 0
  and acked : (int * Tsj_tree.Tree.t) list ref = ref []
  and acked_adds = ref 0 in
  let client_add tree =
    match group_client_add g tree with
    | Some (seq, _node) ->
      acked := (seq, tree) :: !acked;
      incr acked_adds
    | None -> ()
  in
  let cleanup () =
    Fault.disarm_all ();
    group_cleanup g
  in
  Fun.protect ~finally:cleanup (fun () ->
      for _round = 1 to rounds do
        ignore (group_heal g);
        if group_inject_chaos g rng then incr chaos_points;
        let adds = 1 + Prng.int rng 3 in
        for _ = 1 to adds do
          client_add (Prng.choice rng trees)
        done;
        Fault.disarm_all ()
      done;
      (* final heal: everyone back, converged, one more acked write *)
      let primary = group_heal g in
      for _ = 1 to 3 do
        client_add (Prng.choice rng trees)
      done;
      Array.iter
        (fun node -> if node != primary then ignore (group_resync g primary node))
        g.sg_nodes;
      let n = Sstore.n_trees primary.sn_store in
      let converged = group_converged g primary in
      let acked_preserved =
        List.for_all
          (fun (seq, tree) ->
            seq < n && tree_str primary seq = Tsj_tree.Bracket.to_string tree)
          !acked
      in
      (* every surviving node must answer bit-identically to a
         single-node store that never failed, fed the same sequence *)
      let reference = store_of_exn (Sstore.open_ ~tau ()) in
      for i = 0 to n - 1 do
        ignore (Sstore.add reference (Sstore.tree primary.sn_store i))
      done;
      let node_matches node =
        Array.for_all
          (fun q ->
            let a = Sstore.query node.sn_store q in
            let b = Sstore.query reference q in
            a.Tsj_core.Incremental.hits = b.Tsj_core.Incremental.hits
            && (not a.degraded) && not b.degraded)
          queries
      in
      let cluster_answers_match = Array.for_all node_matches g.sg_nodes in
      {
        chaos_points = !chaos_points;
        acked_adds = !acked_adds;
        failovers = !(g.sg_failovers);
        acked_preserved;
        single_writer = !(g.sg_single_writer);
        converged;
        cluster_answers_match;
      })

(* --- sharded-cluster storm --- *)

type sharded_report = {
  sh_chaos_points : int;
  sh_acked_adds : int;
  sh_failovers : int;
  sh_migrations : int;
  sh_acked_preserved : bool;
  sh_single_writer : bool;
  sh_converged : bool;
  sh_degraded_sound : bool;
  sh_answers_match : bool;
}

(* The sharded storm: one replica group per shard, band-key routing by
   {!Tsj_server.Shard}, the driver playing the router — sticky-seq
   writes to the owning shard, a gid ledger appended only on delivered
   acks, orphan adoption (shard-acked, router-unacked trees picked up
   in lseq order), scatter-gather reads merged by the {e real}
   {!Tsj_server.Router.Merge}, and a router crash modelled by
   rebuilding the ledger from the reachable shards.  Chaos per round:
   the six per-group kinds, a mid-quorum/mid-migration kill, a
   journal-streaming migration, or a router-to-shard partition (the
   shard is healthy but the router must degrade around it).

   Mid-storm, every probe query's merged answer is checked {e sound}
   against a reference store fed the acked trees in gid order: each
   reference hit appears exactly or inside a sandwich, and no exact
   hit is invented.  After the final heal the merged QUERY and KNN
   answers must be bit-identical to the reference. *)
let run_sharded_storm ?(seed = 0x5AAD) ?(rounds = 40) ?(shards = 3)
    ?(replicas = 3) ?(quorum = 2) ~trees ~queries ~tau () =
  if Array.length queries = 0 then invalid_arg "run_sharded_storm: no probe queries";
  let rng = Prng.create seed in
  let map = Sshard.create ~shards ~tau () in
  let active = ref (-1) in
  let groups =
    Array.init shards (fun s -> group_create ~id:s ~active ~quorum ~tau ~replicas)
  in
  let chaos_points = ref 0
  and acked : (int * int * Tsj_tree.Tree.t) list ref = ref []  (* (shard, lseq, tree) *)
  and acked_adds = ref 0
  and migrations = ref 0
  and degraded_sound = ref true in
  let router_cut = Array.make shards false in
  (* the router's ledger: (shard, lseq) -> gid, per-shard residents and
     a reference store fed the bound trees in gid order (gid = its id) *)
  let lseq2gid : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let next_lseq = Array.make shards 0 in
  let res : (int * int) list ref array = Array.init shards (fun _ -> ref []) in
  let n_gids = ref 0 in
  let ref_store = ref (store_of_exn (Sstore.open_ ~tau ())) in
  let bind s lseq tree =
    assert (lseq = next_lseq.(s));
    Hashtbl.replace lseq2gid (s, lseq) !n_gids;
    res.(s) := (!n_gids, Tsj_tree.Tree.size tree) :: !(res.(s));
    ignore (Sstore.add !ref_store tree);
    incr n_gids;
    next_lseq.(s) <- lseq + 1
  in
  (* adopt every shard-acked tree below [upto] the ledger doesn't know *)
  let adopt s node ~upto =
    for l = next_lseq.(s) to upto - 1 do
      bind s l (Sstore.tree node.sn_store l)
    done
  in
  let router_add tree =
    let s = Sshard.shard_of_tree map tree in
    if not router_cut.(s) then
      match group_client_add groups.(s) tree with
      | None -> ()
      | Some (lseq, node) ->
        incr acked_adds;
        acked := (s, lseq, tree) :: !acked;
        if lseq >= next_lseq.(s) then begin
          adopt s node ~upto:lseq;
          bind s lseq tree
        end
  in
  (* the router dies: every in-memory mapping is lost and rebuilt from
     the reachable shards, shard-ascending, lseq-ascending — the same
     deterministic adoption order the real router's reconciliation
     uses.  Unreachable shards are adopted when next heard from. *)
  let router_restart () =
    Hashtbl.reset lseq2gid;
    Array.fill next_lseq 0 shards 0;
    Array.iter (fun r -> r := []) res;
    n_gids := 0;
    (try Sstore.close !ref_store with _ -> ());
    ref_store := store_of_exn (Sstore.open_ ~tau ());
    Array.iteri
      (fun s g ->
        if not router_cut.(s) then
          match group_reachable_primary g with
          | Some p -> adopt s p ~upto:(Sstore.n_trees p.sn_store)
          | None -> ())
      groups
  in
  let to_gid ~shard lid = Hashtbl.find_opt lseq2gid (shard, lid) in
  let resident ~shard = !(res.(shard)) in
  let merged_query q =
    let query_size = Tsj_tree.Tree.size q in
    let subset = Sshard.shards_for map ~tau query_size in
    let answers =
      List.map
        (fun s ->
          if router_cut.(s) then (s, Srouter.Merge.Unreachable)
          else
            match group_reachable_primary groups.(s) with
            | Some p ->
              let r = Sstore.query p.sn_store q in
              ( s,
                Srouter.Merge.Answer
                  {
                    degraded = r.Tsj_core.Incremental.degraded;
                    hits = r.Tsj_core.Incremental.hits;
                    unverified = r.Tsj_core.Incremental.unverified;
                  } )
            | None -> (s, Srouter.Merge.Unreachable))
        subset
    in
    Srouter.Merge.query ~query_size ~tau ~to_gid ~resident answers
  in
  let merged_knn ~k q =
    let query_size = Tsj_tree.Tree.size q in
    let subset = Sshard.shards_for map ~tau query_size in
    let answers =
      List.map
        (fun s ->
          if router_cut.(s) then (s, Srouter.Merge.Unreachable)
          else
            match group_reachable_primary groups.(s) with
            | Some p ->
              let hits = Sstore.nearest ~k p.sn_store q in
              (s, Srouter.Merge.Answer { degraded = false; hits; unverified = [] })
            | None -> (s, Srouter.Merge.Unreachable))
        subset
    in
    Srouter.Merge.knn ~k ~query_size ~tau ~to_gid ~resident answers
  in
  (* Soundness of a (possibly degraded) merged answer against the
     reference over the bound trees: every reference hit must surface
     exactly or inside its sandwich, and no exact hit may be invented. *)
  let check_sound q =
    let merged = merged_query q in
    let rref = Sstore.query !ref_store q in
    List.iter
      (fun (gid, d) ->
        let ok =
          List.mem (gid, d) merged.Srouter.a_hits
          || List.exists
               (fun (g', lo, hi) -> g' = gid && lo <= d && d <= hi)
               merged.Srouter.a_unverified
        in
        if not ok then degraded_sound := false)
      rref.Tsj_core.Incremental.hits;
    List.iter
      (fun (gid, d) ->
        if not (List.mem (gid, d) rref.Tsj_core.Incremental.hits) then
          degraded_sound := false)
      merged.Srouter.a_hits
  in
  let heal_all () =
    Array.fill router_cut 0 shards false;
    Array.iter (fun g -> ignore (group_heal g)) groups
  in
  let inject_chaos () =
    let s = Prng.int rng shards in
    let g = groups.(s) in
    match Prng.int rng 8 with
    | 6 ->
      incr chaos_points;
      if group_migrate g rng ~sabotage:(Prng.bool rng) then incr migrations
    | 7 ->
      (* the router loses the shard, not the shard its quorum: queries
         must degrade around it, writes to it fail without acking *)
      incr chaos_points;
      router_cut.(s) <- true
    | _ -> if group_inject_chaos g rng then incr chaos_points
  in
  let cleanup () =
    Fault.disarm_all ();
    Array.iter group_cleanup groups;
    try Sstore.close !ref_store with _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      for round = 1 to rounds do
        heal_all ();
        inject_chaos ();
        let adds = 1 + Prng.int rng 3 in
        for _ = 1 to adds do
          router_add (Prng.choice rng trees)
        done;
        check_sound queries.(round mod Array.length queries);
        (* now and then the router itself crashes mid-storm *)
        if Prng.int rng 8 = 0 then router_restart ();
        Fault.disarm_all ()
      done;
      (* final heal: every shard back, a full reconciliation pass, and
         three more acked writes through the router *)
      heal_all ();
      for _ = 1 to 3 do
        router_add (Prng.choice rng trees)
      done;
      Array.iteri
        (fun s g ->
          match group_reachable_primary g with
          | Some p -> adopt s p ~upto:(Sstore.n_trees p.sn_store)
          | None -> ())
        groups;
      let primaries =
        Array.map
          (fun g ->
            match group_current_primary g with
            | Some p -> p
            | None -> failwith "sharded storm: shard lost its primary after heal")
          groups
      in
      let converged =
        Array.for_all2 (fun g p -> group_converged g p) groups primaries
      in
      let acked_preserved =
        List.for_all
          (fun (s, lseq, tree) ->
            lseq < Sstore.n_trees primaries.(s).sn_store
            && tree_str primaries.(s) lseq = Tsj_tree.Bracket.to_string tree)
          !acked
      in
      let single_writer =
        Array.for_all (fun g -> !(g.sg_single_writer)) groups
      in
      (* bit-identity on the healed cluster: merged QUERY and KNN equal
         the reference exactly, nothing degraded *)
      let k = 5 in
      let answers_match =
        Array.for_all
          (fun q ->
            let mq = merged_query q in
            let rq = Sstore.query !ref_store q in
            let mk = merged_knn ~k q in
            let rk = Sstore.nearest ~k !ref_store q in
            (not mq.Srouter.a_degraded)
            && mq.Srouter.a_hits = rq.Tsj_core.Incremental.hits
            && mq.Srouter.a_unverified = []
            && (not rq.Tsj_core.Incremental.degraded)
            && (not mk.Srouter.a_degraded)
            && mk.Srouter.a_hits = rk)
          queries
      in
      {
        sh_chaos_points = !chaos_points;
        sh_acked_adds = !acked_adds;
        sh_failovers = Array.fold_left (fun a g -> a + !(g.sg_failovers)) 0 groups;
        sh_migrations = !migrations;
        sh_acked_preserved = acked_preserved;
        sh_single_writer = single_writer;
        sh_converged = converged;
        sh_degraded_sound = !degraded_sound;
        sh_answers_match = answers_match;
      })

(* --- bit-rot scrub storm --- *)

let flip_bit path ~bit =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let off = bit / 8 in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      let b = Bytes.create 1 in
      if Unix.read fd b 0 1 <> 1 then failwith "flip_bit: short read";
      Bytes.set b 0
        (Char.chr (Char.code (Bytes.get b 0) lxor (1 lsl (bit mod 8))));
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      if Unix.write fd b 0 1 <> 1 then failwith "flip_bit: short write")

type scrub_storm_report = {
  sb_flips : int;
  sb_all_detected : bool;
  sb_scrub_repairs : int;
  sb_healed : int;
  sb_quarantined : int;
  sb_transferred : int;
  sb_full_resync_cost : int;
  sb_transfer_frugal : bool;
  sb_wrong_answers : int;
  sb_converged : bool;
}

(* The bit-rot storm: a primary and a mirroring replica (real journaled
   stores in temp directories) under steady ADD traffic, with one
   integrity fault injected per round — a random bit flipped in a live
   journal / snapshot / seal file (the scrubber must detect and repair
   it), a byte rotted mid-journal before a restart (the self-healing
   open must refetch the record from the primary, or quarantine it and
   let anti-entropy refill the suffix), a grafted wrong-but-valid
   record (Merkle anti-entropy must locate the divergence and transfer
   exactly the differing suffix), or an injected EIO on the scrubber's
   own read path (a finding, never a "repair" over a failing disk).
   Every round probes a query against a never-corrupted reference
   store: disk rot must never surface in answers. *)
let run_scrub_storm ?(seed = 0x5C12B) ?(rounds = 30) ~trees
    ~queries ~tau () =
  if Array.length trees = 0 then invalid_arg "run_scrub_storm: no trees";
  if Array.length queries = 0 then invalid_arg "run_scrub_storm: no probe queries";
  let rng = Prng.create seed in
  let pdir = fresh_store_dir () and rdir = fresh_store_dir () in
  let primary = ref (store_of_exn (Sstore.open_ ~dir:pdir ~tau ()))
  and replica = ref (store_of_exn (Sstore.open_ ~dir:rdir ~tau ()))
  and reference = store_of_exn (Sstore.open_ ~tau ()) in
  let flips = ref 0
  and read_faults = ref 0
  and detected = ref 0
  and scrub_repairs = ref 0
  and healed = ref 0
  and quarantined = ref 0
  and transferred = ref 0
  and full_resync_cost = ref 0
  and transfer_frugal = ref true
  and wrong = ref 0
  and repair_clean = ref true in
  let add tree =
    ignore (Sstore.add !primary tree);
    let seq = Sstore.n_trees !primary - 1 in
    (match Sstore.apply_record !replica (Sstore.record_for !primary seq) with
    | Ok _ -> ()
    | Error m -> failwith ("scrub storm: replica apply: " ^ m));
    ignore (Sstore.add reference tree)
  in
  (* disk rot must never reach an answer: both stores serve from the
     in-memory index, which is checked bit-identical to the reference *)
  let probe () =
    let q = Prng.choice rng queries in
    let want = (Sstore.query reference q).Tsj_core.Incremental.hits in
    let check st =
      if (Sstore.query st q).Tsj_core.Incremental.hits <> want then incr wrong
    in
    check !primary;
    check !replica
  in
  (* a full scrub cycle: two unbounded steps guarantee a cursor wrap,
     so the epoch header, both seals and every record get re-read *)
  let full_scrub st =
    let budget = Sstore.journal_records st + 1 in
    let a = Sstore.scrub_step ~budget st in
    let b = Sstore.scrub_step ~budget st in
    ( a.Sstore.sc_findings @ b.Sstore.sc_findings,
      a.Sstore.sc_repaired + b.Sstore.sc_repaired )
  in
  let assert_clean st =
    let clean, _ = full_scrub st in
    if clean <> [] then repair_clean := false
  in
  (* durable files of [dir] that currently have bytes to rot *)
  let rot_targets dir =
    let j = Filename.concat dir "journal" and s = Filename.concat dir "snapshot" in
    List.filter
      (fun p -> Sys.file_exists p && (Unix.stat p).Unix.st_size > 0)
      [ j; Tsj_server.Integrity.seal_path j; s; Tsj_server.Integrity.seal_path s ]
  in
  (* kind 0/1: flip a random bit in a live durable file; serving is
     unaffected, the scrub cycle must detect and repair, and the cycle
     after the repair must come back clean *)
  let live_rot st dir =
    match rot_targets dir with
    | [] -> ()
    | targets ->
      let path = Prng.choice rng (Array.of_list targets) in
      let bits = 8 * (Unix.stat path).Unix.st_size in
      flip_bit path ~bit:(Prng.int rng bits);
      incr flips;
      probe ();
      let findings, repaired = full_scrub !st in
      if findings <> [] then incr detected;
      scrub_repairs := !scrub_repairs + repaired;
      assert_clean !st
  in
  (* byte offsets [(start, len)] of the journal's record lines, header
     and trailing newlines excluded *)
  let record_extents text =
    let n = String.length text in
    let rec lines acc start =
      if start >= n then List.rev acc
      else
        match String.index_from_opt text start '\n' with
        | None -> List.rev ((start, n - start) :: acc)
        | Some nl -> lines ((start, nl - start) :: acc) (nl + 1)
    in
    List.filter
      (fun (start, len) ->
        len > 0 && not (len >= 6 && String.sub text start 6 = "epoch "))
      (lines [] 0)
  in
  (* rot one byte inside a mid-file record (never the tail: a corrupt
     last record is a torn tail, a different recovery path), leaving
     the store object abandoned un-closed — kill -9 semantics *)
  let rot_mid_record () =
    let jpath = Filename.concat rdir "journal" in
    let text = In_channel.with_open_bin jpath In_channel.input_all in
    match record_extents text with
    | [] | [ _ ] -> None
    | extents ->
      let victims = Array.of_list (List.rev (List.tl (List.rev extents))) in
      let start, len = victims.(Prng.int rng (Array.length victims)) in
      flip_bit jpath ~bit:(8 * (start + Prng.int rng len) + Prng.int rng 8);
      incr flips;
      Some ()
  in
  (* kind 2: restart the replica over a rotted journal with a heal
     callback that refetches the canonical record from the primary *)
  let reopen_heal () =
    match rot_mid_record () with
    | None -> live_rot replica rdir
    | Some () -> (
      let heal seq = Some (Sstore.record_for !primary seq) in
      match Sstore.open_ ~dir:rdir ~heal ~tau () with
      | Error m -> failwith ("scrub storm: healing open refused: " ^ m)
      | Ok st ->
        replica := st;
        let _, crc, repaired, _ = Sstore.scrub_counters st in
        if crc > 0 then incr detected;
        healed := !healed + repaired;
        if Sstore.n_trees st <> Sstore.n_trees !primary then
          failwith "scrub storm: healed replica lost trees";
        assert_clean st)
  in
  (* pure catch-up / post-divergence convergence via the Merkle digests
     of the primary.  Each call must transfer exactly the true suffix
     length [expected]; so whenever the replica kept a prefix
     ([expected < n_p]) it re-sends less than a full re-sync would.  A
     replica whose whole journal was quarantined has [expected = n_p],
     and a full refill is then the exact answer, not a waste. *)
  let anti_entropy ~expected =
    let n_p = Sstore.n_trees !primary in
    full_resync_cost := !full_resync_cost + n_p;
    match
      Tsj_server.Scrub.anti_entropy ~local:!replica ~remote_n:n_p
        ~digest:(fun ~lo ~hi -> Ok (Sstore.digest !primary ~lo ~hi))
        ~fetch:(fun seq -> Ok (Sstore.record_for !primary seq))
    with
    | Error m -> failwith ("scrub storm: anti-entropy: " ^ m)
    | Ok t ->
      transferred := !transferred + t;
      if t <> expected then transfer_frugal := false
  in
  (* kind 3: restart the replica over a rotted journal in quarantine
     mode — no heal source, the suffix is moved aside and served
     degraded (fewer trees, never wrong answers), then refilled from
     the primary by anti-entropy *)
  let reopen_quarantine () =
    match rot_mid_record () with
    | None -> live_rot replica rdir
    | Some () -> (
      match Sstore.open_ ~dir:rdir ~quarantine:true ~tau () with
      | Error m -> failwith ("scrub storm: quarantine open refused: " ^ m)
      | Ok st ->
        replica := st;
        let _, crc, _, q = Sstore.scrub_counters st in
        if crc > 0 || q > 0 then incr detected;
        quarantined := !quarantined + q;
        (* degraded but sound: no invented hits while the suffix is gone *)
        let qr = Prng.choice rng queries in
        let want = (Sstore.query reference qr).Tsj_core.Incremental.hits in
        List.iter
          (fun hit -> if not (List.mem hit want) then incr wrong)
          (Sstore.query st qr).Tsj_core.Incremental.hits;
        anti_entropy ~expected:(Sstore.n_trees !primary - Sstore.n_trees st);
        assert_clean !replica)
  in
  (* kind 4: a genuine divergence — truncate the replica at a random
     seq and graft a wrong-but-valid record there; the Merkle digests
     must locate the divergence and repair exactly the suffix *)
  let diverge () =
    let n = Sstore.n_trees !replica in
    if n < 2 then live_rot replica rdir
    else begin
      let d = 1 + Prng.int rng (n - 1) in
      Sstore.truncate_to !replica d;
      let truth = Tsj_tree.Bracket.to_string (Sstore.tree !primary d) in
      let wrong_tree =
        Array.to_seq trees
        |> Seq.find (fun t -> Tsj_tree.Bracket.to_string t <> truth)
      in
      (match wrong_tree with
      | None -> ()
      | Some t -> (
        match Sstore.apply_record !replica (Sstore.render_record ~seq:d t) with
        | Ok _ -> ()
        | Error m -> failwith ("scrub storm: graft: " ^ m)));
      anti_entropy ~expected:(Sstore.n_trees !primary - d)
    end
  in
  (* kind 5: EIO on the scrubber's own journal read — a finding, zero
     repairs (never "repair" over a failing disk) *)
  let read_fault () =
    let fired = ref false in
    Fault.arm_action "durable.read" (fun _ ->
        if not !fired then begin
          fired := true;
          raise
            (Tsj_util.Durable.Disk_fault
               {
                 Tsj_util.Durable.f_op = `Read;
                 f_path = Filename.concat pdir "journal";
                 f_detail = "injected EIO";
               })
        end);
    incr read_faults;
    let r = Sstore.scrub_step ~budget:(Sstore.journal_records !primary + 1) !primary in
    Fault.disarm_all ();
    if r.Sstore.sc_findings <> [] then incr detected;
    if r.Sstore.sc_repaired <> 0 then repair_clean := false;
    assert_clean !primary
  in
  let cleanup () =
    Fault.disarm_all ();
    (try Sstore.close !primary with _ -> ());
    (try Sstore.close !replica with _ -> ());
    (try Sstore.close reference with _ -> ());
    remove_store_dir pdir;
    remove_store_dir rdir
  in
  Fun.protect ~finally:cleanup (fun () ->
      for _round = 1 to rounds do
        let adds = 2 + Prng.int rng 2 in
        for _ = 1 to adds do
          add (Prng.choice rng trees)
        done;
        (match Prng.int rng 6 with
        | 0 -> live_rot primary pdir
        | 1 -> live_rot replica rdir
        | 2 -> reopen_heal ()
        | 3 -> reopen_quarantine ()
        | 4 -> diverge ()
        | _ -> read_fault ());
        probe ()
      done;
      (* final: both stores scrub clean and hold the reference's trees *)
      assert_clean !primary;
      assert_clean !replica;
      let n = Sstore.n_trees reference in
      let same st =
        Sstore.n_trees st = n
        && Array.for_all
             (fun i ->
               Tsj_tree.Bracket.to_string (Sstore.tree st i)
               = Tsj_tree.Bracket.to_string (Sstore.tree reference i))
             (Array.init n Fun.id)
      in
      let answers_match =
        Array.for_all
          (fun q ->
            let want = (Sstore.query reference q).Tsj_core.Incremental.hits in
            (Sstore.query !primary q).Tsj_core.Incremental.hits = want
            && (Sstore.query !replica q).Tsj_core.Incremental.hits = want)
          queries
      in
      let converged =
        !repair_clean && same !primary && same !replica && answers_match
      in
      {
        sb_flips = !flips;
        sb_all_detected = !detected = !flips + !read_faults;
        sb_scrub_repairs = !scrub_repairs;
        sb_healed = !healed;
        sb_quarantined = !quarantined;
        sb_transferred = !transferred;
        sb_full_resync_cost = !full_resync_cost;
        sb_transfer_frugal = !transfer_frugal;
        sb_wrong_answers = !wrong;
        sb_converged = converged;
      })

(* --- overload storm --- *)

module Sserver = Tsj_server.Server
module Sclient = Tsj_server.Client

type overload_report = {
  ov_goodput_ok : bool;
  ov_conforming_sent : int;
  ov_conforming_shed : int;
  ov_no_starvation : bool;
  ov_greedy_sent : int;
  ov_greedy_shed : int;
  ov_late_answers : int;
  ov_wrong_answers : int;
  ov_hedge_mismatches : int;
  ov_reaped : int;
  ov_expired_add_rejected : bool;
  ov_trees_stable : bool;
}

(* The overload storm: one server with fair admission (per-connection
   token buckets), a tight watermark and an idle reaper, under roughly
   10x its conforming load.  The cast: one {e conforming} client paced
   well below the bucket rate (its goodput is the asset being
   protected), [greedy] pipelined binary clients firing windows of
   short-deadline queries flat out (their excess is the overload), an
   {e idle} connection that must get reaped, and a {e hedge-race} pair
   issuing the same query on two connections at once (the replies must
   be bit-identical whenever both are exact).  Phase 1 measures the
   conforming client's goodput on the idle server; phase 2 re-runs it
   inside the storm.  A correct implementation keeps the storm goodput
   at >= 50%% of baseline, never starves the conforming client, never
   delivers an answer meaningfully past its announced deadline, never
   delivers a wrong answer, and rejects an already-expired ADD without
   growing the store. *)
let run_overload_storm ?(seed = 0x10AD) ?(duration_s = 1.0)
    ?(greedy = 3) ?(rate = 80.0) ~trees ~queries ~tau () =
  if Array.length trees = 0 then invalid_arg "run_overload_storm: no trees";
  if Array.length queries = 0 then
    invalid_arg "run_overload_storm: no probe queries";
  let sock = Filename.temp_file "tsj_overload" ".sock" in
  Sys.remove sock;
  let addr = Sproto.Unix_path sock in
  let config =
    {
      (Sserver.default_config addr ~tau) with
      Sserver.max_inflight = 32;
      deadline_s = Some 0.5;
      rate = Some rate;
      burst = 16;
      idle_timeout_s = Some 0.3;
      max_conns = Some 64;
    }
  in
  let server =
    match Sserver.create config with Ok s -> s | Error m -> failwith m
  in
  let finally () =
    (try Sserver.drain server with _ -> ());
    (try Sserver.wait server with _ -> ());
    if Sys.file_exists sock then Sys.remove sock
  in
  Fun.protect ~finally (fun () ->
      Array.iter (fun t -> ignore (Sstore.add (Sserver.store server) t)) trees;
      Sserver.start server;
      let nq = Array.length queries in
      let reference =
        Array.map
          (fun q -> (Sstore.query (Sserver.store server) q).Tsj_core.Incremental.hits)
          queries
      in
      let deadline_ms = 500 in
      let slack_s = 0.35 in
      let now () = Tsj_util.Timer.now () in
      (* The conforming client: lock-step text requests paced at a
         quarter of the bucket rate — always within its own budget. *)
      let run_conforming ~rng ~until =
        let period = 4.0 /. rate in
        let sent = ref 0 and answered = ref 0 and shed = ref 0 in
        let late = ref 0 and wrong = ref 0 in
        let conn = ref None in
        let start = now () in
        let i = ref 0 in
        while now () < until do
          let tick = start +. (float_of_int !i *. period) in
          incr i;
          let t = now () in
          if tick > t then Thread.delay (Float.min (tick -. t) (until -. t));
          if now () < until then begin
            let c =
              match !conn with
              | Some c -> Some c
              | None -> (
                match Sclient.connect ~timeout_s:1.0 addr with
                | Ok c ->
                  conn := Some c;
                  Some c
                | Error _ -> None)
            in
            match c with
            | None -> Thread.delay period
            | Some c -> (
              let qi = Prng.int rng nq in
              incr sent;
              let t0 = now () in
              match
                Sclient.request c ~deadline_ms
                  (Sproto.Query { tau; tree = queries.(qi) })
              with
              | Ok (Sproto.Hits { degraded; hits; _ }) ->
                incr answered;
                if now () -. t0 > (float_of_int deadline_ms /. 1000.) +. slack_s
                then incr late;
                if (not degraded) && hits <> reference.(qi) then incr wrong
              | Ok (Sproto.Busy _) -> incr shed
              | Ok _ -> ()
              | Error _ ->
                Sclient.close c;
                conn := None)
          end
        done;
        (match !conn with Some c -> Sclient.close c | None -> ());
        (!sent, !answered, !shed, !late, !wrong)
      in
      (* A greedy client: pipelined binary windows of short-deadline
         queries, fired flat out; its excess is shed from its own
         bucket.  Every request gets exactly one reply (HITS, BUSY or
         ERR), so a window of sends is matched by a window of recvs. *)
      let g_mutex = Mutex.create () in
      let greedy_sent = ref 0
      and greedy_shed = ref 0
      and greedy_late = ref 0 in
      let greedy_deadline_ms = 50 in
      let greedy_thread k until () =
        let rng = Prng.create (seed + (17 * (k + 1))) in
        let sent = ref 0 and shed = ref 0 and late = ref 0 in
        let rec sessions () =
          if now () < until then begin
            (match Sclient.Bin.connect ~timeout_s:1.0 addr with
            | Error _ -> Thread.delay 0.02
            | Ok b ->
              let sent_at = Hashtbl.create 64 in
              (try
                 while now () < until do
                   let window = 16 in
                   for _ = 1 to window do
                     let qi = Prng.int rng nq in
                     let id =
                       Sclient.Bin.send b ~deadline_ms:greedy_deadline_ms
                         (Sproto.Query { tau; tree = queries.(qi) })
                     in
                     Hashtbl.replace sent_at id (now ());
                     incr sent
                   done;
                   Sclient.Bin.flush b;
                   for _ = 1 to window do
                     match Sclient.Bin.recv b with
                     | Ok (id, Sproto.Hits _) -> (
                       match Hashtbl.find_opt sent_at id with
                       | Some t0 ->
                         if
                           now () -. t0
                           > (float_of_int greedy_deadline_ms /. 1000.)
                             +. slack_s
                         then incr late
                       | None -> ())
                     | Ok (_, Sproto.Busy _) -> incr shed
                     | Ok _ -> ()
                     | Error _ -> raise Exit
                   done
                 done
               with Exit -> ());
              Sclient.Bin.close b);
            sessions ()
          end
        in
        sessions ();
        Mutex.protect g_mutex (fun () ->
            greedy_sent := !greedy_sent + !sent;
            greedy_shed := !greedy_shed + !shed;
            greedy_late := !greedy_late + !late)
      in
      (* The hedge-race pair: the same query on two connections at
         once; whenever both replies are exact, they must render
         bit-identically — racing changes latency, never the answer. *)
      let hedge_mismatch = ref 0 in
      let hedge_thread until () =
        let rng = Prng.create (seed + 999) in
        while now () < until do
          let qi = Prng.int rng nq in
          let req = Sproto.Query { tau; tree = queries.(qi) } in
          let res = Array.make 2 None in
          let legs =
            Array.init 2 (fun j ->
                Thread.create
                  (fun () ->
                    match Sclient.connect ~timeout_s:1.0 addr with
                    | Error _ -> ()
                    | Ok c ->
                      (match Sclient.request c ~deadline_ms req with
                      | Ok r -> res.(j) <- Some r
                      | Error _ -> ());
                      Sclient.close c)
                  ())
          in
          Array.iter Thread.join legs;
          (match (res.(0), res.(1)) with
          | ( Some (Sproto.Hits { degraded = false; _ } as a),
              Some (Sproto.Hits { degraded = false; _ } as b) ) ->
            if Sproto.render_response a <> Sproto.render_response b then
              incr hedge_mismatch
          | _ -> ());
          Thread.delay 0.02
        done
      in
      (* phase 1: baseline goodput on the idle server *)
      let rng = Prng.create seed in
      let t_base = now () in
      let _, bans, bshed, blate, bwrong =
        run_conforming ~rng ~until:(t_base +. (duration_s /. 2.))
      in
      let baseline_wall = Float.max 1e-6 (now () -. t_base) in
      let baseline_rps = float_of_int bans /. baseline_wall in
      (* phase 2: the same client inside the storm *)
      let until = now () +. duration_s in
      let idle = Result.to_option (Sclient.connect addr) in
      let threads =
        List.init greedy (fun k -> Thread.create (greedy_thread k until) ())
        @ [ Thread.create (hedge_thread until) () ]
      in
      let ssent, sans, sshed, slate, swrong = run_conforming ~rng ~until in
      List.iter Thread.join threads;
      let storm_rps = float_of_int sans /. duration_s in
      (* an ADD arriving with a spent budget must be refused before the
         journal, leaving the store exactly as preloaded *)
      let expired_add_rejected =
        match Sclient.connect ~timeout_s:1.0 addr with
        | Error _ -> false
        | Ok c ->
          let r =
            Sclient.request c ~deadline_ms:0
              (Sproto.Add { seq = None; tree = trees.(0) })
          in
          Sclient.close c;
          (match r with Ok (Sproto.Err "deadline expired") -> true | _ -> false)
      in
      (match idle with Some c -> Sclient.close c | None -> ());
      let st = Sserver.stats server in
      {
        ov_goodput_ok = storm_rps >= 0.5 *. baseline_rps;
        ov_conforming_sent = ssent;
        ov_conforming_shed = bshed + sshed;
        ov_no_starvation = 2 * sans >= ssent;
        ov_greedy_sent = !greedy_sent;
        ov_greedy_shed = !greedy_shed;
        ov_late_answers = blate + slate + !greedy_late;
        ov_wrong_answers = bwrong + swrong;
        ov_hedge_mismatches = !hedge_mismatch;
        ov_reaped = st.Sproto.reaped;
        ov_expired_add_rejected = expired_add_rejected;
        ov_trees_stable = st.Sproto.trees = Array.length trees;
      })
