(* Tests for the sharded serving layer: band-key placement, the pure
   scatter-gather merge (qcheck soundness of degraded sandwiches), the
   router end-to-end over real sockets — including a shard killed
   mid-query degrading the answer instead of failing it — the router
   front on the node's event loop (frames, line cap, watermark,
   connection cap, drain), ledger recovery with orphan adoption, and
   the sharded kill/partition storm with journal-streaming migrations. *)

module Tree = Tsj_tree.Tree
module Bracket = Tsj_tree.Bracket
module Prng = Tsj_util.Prng
module Protocol = Tsj_server.Protocol
module Store = Tsj_server.Store
module Server = Tsj_server.Server
module Client = Tsj_server.Client
module Shard = Tsj_server.Shard
module Router = Tsj_server.Router
module Faults = Tsj_harness.Faults
module Incremental = Tsj_core.Incremental

let t s = Bracket.of_string_exn s
let ok_or_fail = function Ok v -> v | Error msg -> Alcotest.fail msg

let trees_of seed n =
  let rng = Prng.create seed in
  Array.init n (fun _ -> Gen.random_tree rng (3 + Prng.int rng 10))

(* --- band-key placement --- *)

let test_band_routing () =
  let tau = 2 in
  let m = Shard.create ~shards:4 ~tau () in
  Alcotest.(check int) "default band width is 2tau+1" 5 m.Shard.band;
  (* placement is a pure function of the size *)
  for size = 0 to 200 do
    Alcotest.(check int)
      (Printf.sprintf "stable placement of size %d" size)
      (Shard.shard_of_size m size)
      (Shard.shard_of_size m size);
    let s = Shard.shard_of_size m size in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
    (* the window covers every size that could be within tau *)
    let window = Shard.shards_for m ~tau size in
    for d = -tau to tau do
      if size + d >= 0 then
        Alcotest.(check bool)
          (Printf.sprintf "size %d covers %d" size (size + d))
          true
          (List.mem (Shard.shard_of_size m (size + d)) window)
    done;
    (* with the default band width a window never needs > 2 shards *)
    Alcotest.(check bool) "window spans at most 2 shards" true
      (List.length window <= 2);
    Alcotest.(check bool) "window contains own shard" true (List.mem s window)
  done;
  (* a tree routes like its size *)
  let tree = t "{a{b}{c{d}}}" in
  Alcotest.(check int) "tree routes by size"
    (Shard.shard_of_size m (Tree.size tree))
    (Shard.shard_of_tree m tree);
  (* sandwich: |s1 - s2| <= TED <= s1 + s2 *)
  let lo, hi = Shard.sandwich ~query_size:7 4 in
  Alcotest.(check (pair int int)) "sandwich bounds" (3, 11) (lo, hi);
  (match Shard.create ~shards:0 ~tau () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shards=0 accepted")

(* Every tree within tau in {1, 2} node edits of an ordered tree over
   {a, b} (<= 6 nodes at tau = 1, <= 5 at tau = 2) lives on a shard
   that a query of the centre consults: 1..4 shards, band widths
   1..2tau+2 and the default. *)
let test_shard_window_edit_balls () =
  let labels = List.map Tsj_tree.Label.intern [ "a"; "b" ] in
  let on_miss (m : Shard.map) t t' =
    Alcotest.failf "shards=%d band=%d: %s (shard %d) is outside the window of %s"
      m.Shard.shards m.Shard.band (Bracket.to_string t') (Shard.shard_of_tree m t')
      (Bracket.to_string t)
  in
  List.iter
    (fun (tau, max_nodes) ->
      let maps =
        List.concat_map
          (fun shards ->
            Shard.create ~shards ~tau ()
            :: List.init ((2 * tau) + 2) (fun b -> Shard.create ~shards ~band:(b + 1) ~tau ()))
          [ 1; 2; 3; 4 ]
      in
      Alcotest.(check int)
        (Printf.sprintf "misses, tau = %d, <= %d nodes" tau max_nodes)
        0
        (Edit_ball.shard_sweep ~labels ~tau ~on_miss maps
           (Edit_ball.trees_upto labels max_nodes)))
    [ (1, 6); (2, 5) ]

(* --- qcheck: degraded-merge soundness against the unsharded truth --- *)

(* Build the reference store and the per-shard stores over one forest;
   answer the query from a random subset of shards (the rest
   Unreachable) and check the merged answer never loses a true hit:
   exact when the owning shard answered, inside its [lo, hi] sandwich
   when it did not — and never invents one.  With [~spent] every shard
   that answers does so under an already-cancelled budget, so its reply
   is the degraded form (linear-bound sandwiches) a served read returns
   when its compute budget runs out: a true hit may then be reported or
   sandwiched, but never lost. *)
let prop_merge_sound ?(spent = false) seed =
  let rng = Prng.create (0xD156E + seed) in
  let tau = 1 + (seed mod 3) in
  let shards = 2 + (seed mod 3) in
  let map = Shard.create ~shards ~tau () in
  let trees = Array.init 10 (fun _ -> Gen.random_tree rng (3 + Prng.int rng 8)) in
  let reference = ok_or_fail (Store.open_ ~tau ()) in
  let stores = Array.init shards (fun _ -> ok_or_fail (Store.open_ ~tau ())) in
  let lseq2gid : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
  let res = Array.make shards [] in
  Array.iteri
    (fun gid tree ->
      ignore (Store.add reference tree);
      let s = Shard.shard_of_tree map tree in
      let lseq, _ = Store.add stores.(s) tree in
      Hashtbl.replace lseq2gid (s, lseq) gid;
      res.(s) <- (gid, Tree.size tree) :: res.(s))
    trees;
  let finally () =
    Store.close reference;
    Array.iter Store.close stores
  in
  Fun.protect ~finally (fun () ->
      let q = Gen.random_tree rng (3 + Prng.int rng 8) in
      let query_size = Tree.size q in
      let reachable = Array.init shards (fun _ -> Prng.int rng 3 > 0) in
      let answers =
        List.map
          (fun s ->
            if not reachable.(s) then (s, Router.Merge.Unreachable)
            else
              let budget =
                if spent then begin
                  let b = Tsj_join.Budget.create () in
                  Tsj_join.Budget.cancel b;
                  Some b
                end
                else None
              in
              let r = Store.query ?budget ~tau stores.(s) q in
              ( s,
                Router.Merge.Answer
                  {
                    degraded = r.Incremental.degraded;
                    hits = r.Incremental.hits;
                    unverified = r.Incremental.unverified;
                  } ))
          (Shard.shards_for map ~tau query_size)
      in
      let merged =
        Router.Merge.query ~query_size ~tau
          ~to_gid:(fun ~shard lid -> Hashtbl.find_opt lseq2gid (shard, lid))
          ~resident:(fun ~shard -> res.(shard))
          answers
      in
      let truth = (Store.query ~tau reference q).Incremental.hits in
      let sandwiched gid d =
        List.exists (fun (g, lo, hi) -> g = gid && lo <= d && d <= hi) merged.Router.a_unverified
      in
      List.iter
        (fun (gid, d) ->
          let s = Shard.shard_of_tree map trees.(gid) in
          if spent then begin
            if not (List.mem (gid, d) merged.Router.a_hits || sandwiched gid d) then
              QCheck.Test.fail_reportf
                "hit (%d, %d) neither reported nor sandwiched under a spent budget (seed=%d)"
                gid d seed
          end
          else if reachable.(s) then begin
            if not (List.mem (gid, d) merged.Router.a_hits) then
              QCheck.Test.fail_reportf
                "hit (%d, %d) lost though shard %d answered (seed=%d)" gid d s seed
          end
          else if not (sandwiched gid d) then
            QCheck.Test.fail_reportf
              "hit (%d, %d) of silent shard %d not sandwiched (seed=%d)" gid d s seed)
        truth;
      List.iter
        (fun (gid, d) ->
          if not (List.mem (gid, d) truth) then
            QCheck.Test.fail_reportf "invented hit (%d, %d) (seed=%d)" gid d seed)
        merged.Router.a_hits;
      (* with every shard reachable the merge is the truth, bit for bit *)
      if (not spent) && Array.for_all (fun b -> b) reachable then begin
        if merged.Router.a_hits <> truth || merged.Router.a_unverified <> [] then
          QCheck.Test.fail_reportf "healthy merge not bit-identical (seed=%d)" seed;
        if merged.Router.a_degraded then
          QCheck.Test.fail_reportf "healthy merge marked degraded (seed=%d)" seed
      end;
      true)

let prop_merge_sandwich =
  Gen.qtest ~count:60 "merged sandwiches always contain the true distance"
    QCheck.(int_bound 1_000_000)
    (fun seed -> prop_merge_sound seed)

let prop_merge_spent_sandwich =
  Gen.qtest ~count:60 "merged degraded shard answers keep every true hit"
    QCheck.(int_bound 1_000_000)
    (prop_merge_sound ~spent:true)

(* --- router end-to-end over real sockets --- *)

let with_shard_servers ?(tau = 2) n f =
  let socks =
    Array.init n (fun _ ->
        let p = Filename.temp_file "tsj_shard" ".sock" in
        Sys.remove p;
        p)
  in
  let addrs = Array.map (fun p -> Protocol.Unix_path p) socks in
  let servers =
    Array.map
      (fun addr -> ok_or_fail (Server.create (Server.default_config addr ~tau)))
      addrs
  in
  Array.iter Server.start servers;
  Fun.protect
    ~finally:(fun () ->
      Array.iteri
        (fun i srv ->
          (try Server.drain srv with _ -> ());
          (try Server.wait srv with _ -> ());
          if Sys.file_exists socks.(i) then Sys.remove socks.(i))
        servers)
    (fun () -> f addrs servers)

let test_router_end_to_end () =
  let tau = 2 in
  with_shard_servers ~tau 2 (fun addrs servers ->
      let cfg =
        {
          Router.map = Shard.create ~shards:2 ~tau ();
          tau;
          groups = Array.map (fun a -> [ a ]) addrs;
          timeout_s = 2.0;
          attempts = 2;
          ledger = None;
          seed = 9000;
          hedge_s = None;
          margin_ms = 0;
        }
      in
      let router = ok_or_fail (Router.create cfg) in
      let reference = ok_or_fail (Store.open_ ~tau ()) in
      Fun.protect
        ~finally:(fun () ->
          Router.close router;
          Store.close reference)
        (fun () ->
          let trees = trees_of 4242 14 in
          Array.iteri
            (fun gid tree ->
              let rid, rpartners = ok_or_fail (Router.add router tree) in
              Alcotest.(check int) "router gids are dense" gid rid;
              let _, refpartners = Store.add reference tree in
              (* same-shard partners, translated to gids, are a sub-list
                 of the reference partners (cross-shard ones are not on
                 the single-shard ADD path) *)
              List.iter
                (fun (g, d) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "partner (%d, %d) of %d is true" g d gid)
                    true
                    (List.mem (g, d) refpartners))
                rpartners)
            trees;
          Alcotest.(check int) "all bound" (Array.length trees) (Router.n_trees router);
          (* both shards got trees (sizes span several bands) *)
          let shard_of gid =
            match Router.locate router gid with
            | Some (s, _, _) -> s
            | None -> Alcotest.failf "gid %d unbound" gid
          in
          let shards_used =
            List.sort_uniq compare
              (List.init (Array.length trees) shard_of)
          in
          Alcotest.(check (list int)) "both shards populated" [ 0; 1 ] shards_used;
          (* healthy cluster: QUERY and KNN bit-identical to unsharded *)
          let queries = trees_of 4243 5 in
          Array.iter
            (fun q ->
              let m = Router.query router ~tau q in
              let r = Store.query ~tau reference q in
              Alcotest.(check bool) "healthy query not degraded" false m.Router.a_degraded;
              Alcotest.(check (list (pair int int))) "query bit-identical"
                r.Incremental.hits m.Router.a_hits;
              Alcotest.(check int) "no sandwiches" 0 (List.length m.Router.a_unverified);
              let mk = Router.knn router ~k:3 q in
              Alcotest.(check (list (pair int int))) "knn bit-identical"
                (Store.nearest ~k:3 reference q)
                mk.Router.a_hits)
            queries;
          (* stats aggregate across shards *)
          (match Router.stats router with
          | { Protocol.trees = n; primary = true; _ } ->
            Alcotest.(check int) "stats trees = gids" (Array.length trees) n
          | _ -> Alcotest.fail "router stats not primary");
          (* kill shard 1 mid-flight: queries must degrade, not fail *)
          Server.abort servers.(1);
          Server.wait servers.(1);
          let q = queries.(0) in
          let m = Router.query router ~tau q in
          let r = Store.query ~tau reference q in
          (* exact hits that survive come only from shard 0 and are true *)
          List.iter
            (fun (gid, d) ->
              Alcotest.(check bool)
                (Printf.sprintf "surviving hit (%d, %d) is true" gid d)
                true
                (List.mem (gid, d) r.Incremental.hits))
            m.Router.a_hits;
          (* every true hit on the dead shard is sandwiched soundly *)
          List.iter
            (fun (gid, d) ->
              if shard_of gid = 1 then begin
                Alcotest.(check bool)
                  (Printf.sprintf "dead shard answer degraded for hit %d" gid)
                  true m.Router.a_degraded;
                Alcotest.(check bool)
                  (Printf.sprintf "hit (%d, %d) sandwiched" gid d)
                  true
                  (List.exists
                     (fun (g, lo, hi) -> g = gid && lo <= d && d <= hi)
                     m.Router.a_unverified)
              end)
            r.Incremental.hits))

(* Eight real-socket shards behind the router: band-key placement keeps
   every τ-query's scatter to at most two shards and its scan to a
   fraction of the collection; QUERY and KNN stay bit-identical to an
   unsharded reference through a journal-streaming migration of the
   fullest shard and the retirement of its source; with a second shard
   killed, every degraded answer stays sound. *)
let test_router_migration_and_fanout () =
  let tau = 2 and shards = 8 in
  let trees = Tsj_datagen.Profiles.(instantiate swissprot ~seed:42 ~n:48) in
  let n = Array.length trees in
  with_shard_servers ~tau shards (fun addrs servers ->
      let map = Shard.create ~shards ~tau () in
      let router =
        ok_or_fail
          (Router.create
             {
               Router.map;
               tau;
               groups = Array.map (fun a -> [ a ]) addrs;
               timeout_s = 2.0;
               attempts = 1;
               ledger = None;
               seed = 42;
               hedge_s = None;
               margin_ms = 0;
             })
      in
      let reference = ok_or_fail (Store.open_ ~tau ()) in
      let target_sock = Filename.temp_file "tsj_shard" ".sock" in
      Sys.remove target_sock;
      let target_addr = Protocol.Unix_path target_sock in
      let target = ref None in
      Fun.protect
        ~finally:(fun () ->
          Router.close router;
          Store.close reference;
          Option.iter
            (fun s ->
              (try Server.drain s with _ -> ());
              try Server.wait s with _ -> ())
            !target;
          if Sys.file_exists target_sock then Sys.remove target_sock)
        (fun () ->
          Array.iteri
            (fun i tree ->
              let gid, _ = ok_or_fail (Router.add router tree) in
              Alcotest.(check int) "router gids are dense" i gid;
              ignore (Store.add reference tree))
            trees;
          let residents = Array.make shards 0 in
          for gid = 0 to n - 1 do
            match Router.locate router gid with
            | Some (s, _, _) -> residents.(s) <- residents.(s) + 1
            | None -> Alcotest.failf "gid %d unbound" gid
          done;
          let queries = Array.init 8 (fun k -> trees.(k * (n / 8))) in
          let scanned = ref 0 in
          Array.iter
            (fun q ->
              let window = Shard.shards_for map ~tau (Tree.size q) in
              Alcotest.(check bool) "a tau-query touches at most 2 shards" true
                (List.length window <= 2);
              List.iter (fun s -> scanned := !scanned + residents.(s)) window)
            queries;
          (* each query scans its window's residents, not the whole
             collection: 91 of 8 x 48 trees here, under the 2/8 a
             balanced placement would give *)
          let total = Array.length queries * n in
          Alcotest.(check int) "trees scanned by the 8 queries" 91 !scanned;
          Alcotest.(check bool) "scan fraction at most 2 / shards" true
            (!scanned * shards <= 2 * total);
          let check_identical label =
            Array.iter
              (fun q ->
                let m = Router.query router ~tau q in
                Alcotest.(check bool) (label ^ ": not degraded") false m.Router.a_degraded;
                Alcotest.(check (list (pair int int))) (label ^ ": query bit-identical")
                  (Store.query reference q).Incremental.hits m.Router.a_hits;
                Alcotest.(check (list (pair int int))) (label ^ ": knn bit-identical")
                  (Store.nearest ~k:3 reference q)
                  (Router.knn router ~k:3 q).Router.a_hits)
              queries
          in
          check_identical "healthy";
          let fullest ~except =
            let best = ref (-1) in
            Array.iteri
              (fun s c ->
                if s <> except && (!best < 0 || c > residents.(!best)) then best := s)
              residents;
            !best
          in
          let victim = fullest ~except:(-1) in
          let config =
            { (Server.default_config target_addr ~tau) with
              Server.primary = false; sync_from = [ addrs.(victim) ] }
          in
          let server = ok_or_fail (Server.create config) in
          Server.start server;
          target := Some server;
          ok_or_fail (Router.migrate router ~shard:victim ~target:[ target_addr ]);
          check_identical "post-migration";
          Server.drain servers.(victim);
          Server.wait servers.(victim);
          check_identical "source retired";
          let second = fullest ~except:victim in
          Server.abort servers.(second);
          Server.wait servers.(second);
          let degraded = ref 0 in
          Array.iter
            (fun q ->
              let m = Router.query router ~tau q in
              let truth = (Store.query reference q).Incremental.hits in
              if m.Router.a_degraded then incr degraded;
              List.iter
                (fun (gid, d) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "true hit (%d, %d) exact or sandwiched" gid d)
                    true
                    (List.mem (gid, d) m.Router.a_hits
                    || List.exists
                         (fun (g, lo, hi) -> g = gid && lo <= d && d <= hi)
                         m.Router.a_unverified))
                truth;
              List.iter
                (fun h ->
                  Alcotest.(check bool) "no invented hit" true (List.mem h truth))
                m.Router.a_hits)
            queries;
          Alcotest.(check bool) "the killed shard degraded some answers" true
            (!degraded > 0)))

(* --- the router front: the node's event loop in front of the shards --- *)

let router_config ?(timeout_s = 2.0) ~tau groups =
  {
    Router.map = Shard.create ~shards:(Array.length groups) ~tau ();
    tau;
    groups;
    timeout_s;
    attempts = 2;
    ledger = None;
    seed = 777;
    hedge_s = None;
    margin_ms = 0;
  }

(* Serve [router] on a fresh socket through {!Server.create_router};
   [front] adjusts the connection-layer config. *)
let with_router_front ?(front = Fun.id) router f =
  let fsock = Filename.temp_file "tsj_front" ".sock" in
  Sys.remove fsock;
  let faddr = Protocol.Unix_path fsock in
  let config = front (Server.default_config faddr ~tau:(Router.tau router)) in
  let server = ok_or_fail (Server.create_router config router) in
  Server.start server;
  Fun.protect
    ~finally:(fun () ->
      Server.drain server;
      Server.wait server;
      Router.close router;
      if Sys.file_exists fsock then Sys.remove fsock)
    (fun () -> f faddr server)

(* A decoy replica that accepts connections and never replies: a shard
   read sent to it stalls until the per-shard socket timeout. *)
let with_decoy f =
  let decoy_path = Filename.temp_file "tsj_decoy" ".sock" in
  Sys.remove decoy_path;
  let decoy = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind decoy (Unix.ADDR_UNIX decoy_path);
  Unix.listen decoy 16;
  let stop = Atomic.make false in
  let sink =
    Thread.create
      (fun () ->
        let held = ref [] in
        while not (Atomic.get stop) do
          match Unix.select [ decoy ] [] [] 0.05 with
          | [ _ ], _, _ -> (
            try held := fst (Unix.accept decoy) :: !held
            with Unix.Unix_error _ -> ())
          | _ -> ()
        done;
        List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !held)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join sink;
      (try Unix.close decoy with Unix.Unix_error _ -> ());
      if Sys.file_exists decoy_path then Sys.remove decoy_path)
    (fun () -> f (Protocol.Unix_path decoy_path))

(* One raw text line and its reply line. *)
let text_line conn line =
  let ic, oc = Client.channels conn in
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

let staleness_refusal =
  "ERR the router does not bound staleness: send ~<n> reads to a node"

let test_router_front_wire () =
  let tau = 2 in
  with_shard_servers ~tau 2 (fun addrs _servers ->
      let router =
        ok_or_fail (Router.create (router_config ~tau (Array.map (fun a -> [ a ]) addrs)))
      in
      with_router_front router (fun faddr _ ->
          (* the sharded cluster speaks the single-node grammar: the
             stock client needs no changes *)
          let conn = ok_or_fail (Client.connect faddr) in
          let add s =
            match ok_or_fail (Client.request conn (Protocol.Add { seq = None; tree = t s })) with
            | Protocol.Added { id; _ } -> id
            | r -> Alcotest.failf "bad add reply %s" (Protocol.render_response r)
          in
          Alcotest.(check int) "first gid" 0 (add "{a{b}{c}}");
          Alcotest.(check int) "second gid" 1 (add "{a{b}{d}}");
          Alcotest.(check int) "third gid" 2 (add "{x{y{z{w{v}}}}}");
          (* idempotent replay of a bound gid *)
          (match
             ok_or_fail
               (Client.request conn (Protocol.Add { seq = Some 1; tree = t "{a{b}{d}}" }))
           with
          | Protocol.Added { id = 1; _ } -> ()
          | r -> Alcotest.failf "replay answered %s" (Protocol.render_response r));
          (* a seq gap is refused before touching any shard *)
          (match
             ok_or_fail
               (Client.request conn (Protocol.Add { seq = Some 9; tree = t "{g}" }))
           with
          | Protocol.Err msg ->
            Alcotest.(check bool) "gap named" true
              (String.length msg >= 7 && String.sub msg 0 7 = "seq gap")
          | r -> Alcotest.failf "gap answered %s" (Protocol.render_response r));
          (* QUERY over the wire matches the library answer *)
          (match ok_or_fail (Client.request conn (Protocol.Query { tau = 1; tree = t "{a{b}{c}}" })) with
          | Protocol.Hits { degraded = false; hits; _ } ->
            Alcotest.(check (list (pair int int))) "wire query" [ (0, 0); (1, 1) ] hits
          | r -> Alcotest.failf "bad query reply %s" (Protocol.render_response r));
          (* GET resolves a gid through the ledger to the owning shard *)
          (match ok_or_fail (Client.request conn (Protocol.Get 2)) with
          | Protocol.Tree_reply { seq = 2; tree } ->
            Alcotest.(check string) "GET returns the bound tree" "{x{y{z{w{v}}}}}"
              (Bracket.to_string tree)
          | r -> Alcotest.failf "bad GET reply %s" (Protocol.render_response r));
          (match ok_or_fail (Client.request conn (Protocol.Get 99)) with
          | Protocol.Err _ -> ()
          | r -> Alcotest.failf "unbound GET answered %s" (Protocol.render_response r));
          (* STATS advertises the gid count, so Failover.add's seq
             discovery works against a router front-end too *)
          (match ok_or_fail (Client.request conn Protocol.Stats) with
          | Protocol.Stats_reply { trees = 3; _ } -> ()
          | r -> Alcotest.failf "bad stats %s" (Protocol.render_response r));
          (* a staleness bound is refused, never silently dropped *)
          Alcotest.(check string) "bounded read refused" staleness_refusal
            (text_line conn "QUERY 1 ~0 {a{b}{c}}");
          Client.close conn))

(* After HELLO BIN the router answers framed requests exactly as it
   answers text lines: the same ADD replays, QUERY/KNN/GET replies and
   STATS tree count, and the same staleness refusal. *)
let test_router_front_binary () =
  let tau = 2 in
  with_shard_servers ~tau 2 (fun addrs _servers ->
      let router =
        ok_or_fail (Router.create (router_config ~tau (Array.map (fun a -> [ a ]) addrs)))
      in
      with_router_front router (fun faddr _ ->
          let trees = [| t "{a{b}{c}}"; t "{a{b}{d}}"; t "{x{y{z{w{v}}}}}"; t "{a{b}{c}{d}}" |] in
          let requests =
            List.concat
              [
                List.init (Array.length trees) (fun i ->
                    Protocol.Add { seq = Some i; tree = trees.(i) });
                [
                  Protocol.Query { tau = 2; tree = trees.(0) };
                  Protocol.Query { tau = 0; tree = trees.(2) };
                  Protocol.Knn { k = 2; tree = trees.(3) };
                  Protocol.Get 2;
                  Protocol.Get 99;
                ];
              ]
          in
          let text = ok_or_fail (Client.connect faddr) in
          let text_replies =
            List.map
              (fun r -> Protocol.render_response (ok_or_fail (Client.request text r)))
              requests
          in
          let bin = ok_or_fail (Client.Bin.connect faddr) in
          let bin_replies =
            List.map
              (fun r -> Protocol.render_response (ok_or_fail (Client.Bin.request bin r)))
              requests
          in
          Alcotest.(check (list string)) "framed replies = text replies" text_replies
            bin_replies;
          List.iter
            (fun reply ->
              Alcotest.(check bool) ("no error: " ^ reply) false
                (String.starts_with ~prefix:"ERR" reply && reply <> "ERR GET 99: unbound sequence"))
            text_replies;
          let trees_of_stats conn_request =
            match ok_or_fail (conn_request Protocol.Stats) with
            | Protocol.Stats_reply st -> st.Protocol.trees
            | r -> Alcotest.failf "bad stats %s" (Protocol.render_response r)
          in
          Alcotest.(check int) "STATS trees, text" 4 (trees_of_stats (fun r -> Client.request text r));
          Alcotest.(check int) "STATS trees, framed" 4 (trees_of_stats (fun r -> Client.Bin.request bin r));
          (match
             Client.Bin.request bin ~max_lag:0 (Protocol.Query { tau = 1; tree = trees.(0) })
           with
          | Ok r ->
            Alcotest.(check string) "framed bounded read refused" staleness_refusal
              (Protocol.render_response r)
          | Error e -> Alcotest.fail e);
          Alcotest.(check string) "text bounded read refused" staleness_refusal
            (text_line text "KNN 1 ~3 {a}");
          Client.Bin.close bin;
          Client.close text))

(* The node's line cap: an over-long line is answered with the node's
   error and the connection keeps serving. *)
let test_router_front_line_cap () =
  with_shard_servers ~tau:1 1 (fun addrs _servers ->
      let router = ok_or_fail (Router.create (router_config ~tau:1 [| [ addrs.(0) ] |])) in
      with_router_front
        ~front:(fun c -> { c with Server.max_line_bytes = 256 })
        router
        (fun faddr _ ->
          let conn = ok_or_fail (Client.connect faddr) in
          Alcotest.(check string) "over-long line refused"
            "ERR request line exceeds 256 bytes"
            (text_line conn ("QUERY 1 " ^ String.make 4000 '{'));
          (match ok_or_fail (Client.request conn (Protocol.Query { tau = 1; tree = t "{a}" })) with
          | Protocol.Hits { degraded = false; hits = []; _ } -> ()
          | r -> Alcotest.failf "connection after the cap answered %s" (Protocol.render_response r));
          Client.close conn))

(* The inflight watermark bounds the router's shard calls: with
   [max_inflight = 1] and the only shard stalled, a second read is shed
   with BUSY while the first waits out the shard timeout and degrades. *)
let test_router_front_watermark () =
  with_decoy (fun decoy ->
      let router =
        ok_or_fail (Router.create (router_config ~timeout_s:1.0 ~tau:1 [| [ decoy ] |]))
      in
      with_router_front
        ~front:(fun c -> { c with Server.max_inflight = 1 })
        router
        (fun faddr _ ->
          let first = ok_or_fail (Client.connect faddr) in
          let second = ok_or_fail (Client.connect faddr) in
          let admin = ok_or_fail (Client.connect faddr) in
          let _, oc = Client.channels first in
          output_string oc "QUERY 1 {a{b}}\n";
          flush oc;
          let rec await_inflight n =
            match ok_or_fail (Client.request admin Protocol.Stats) with
            | Protocol.Stats_reply { inflight = 1; _ } -> ()
            | _ when n = 0 -> Alcotest.fail "the first read never became inflight"
            | _ ->
              Thread.delay 0.01;
              await_inflight (n - 1)
          in
          await_inflight 200;
          (match ok_or_fail (Client.request second (Protocol.Query { tau = 1; tree = t "{a}" })) with
          | Protocol.Busy _ -> ()
          | r -> Alcotest.failf "second read answered %s" (Protocol.render_response r));
          let ic, _ = Client.channels first in
          (match Protocol.parse_response (input_line ic) with
          | Ok (Protocol.Hits { degraded = true; _ }) -> ()
          | Ok r -> Alcotest.failf "stalled read answered %s" (Protocol.render_response r)
          | Error e -> Alcotest.fail e);
          (match ok_or_fail (Client.request admin Protocol.Stats) with
          | Protocol.Stats_reply st ->
            Alcotest.(check int) "one shed" 1 st.Protocol.shed;
            Alcotest.(check int) "nothing inflight" 0 st.Protocol.inflight
          | r -> Alcotest.failf "bad stats %s" (Protocol.render_response r));
          List.iter Client.close [ first; second; admin ]))

(* [max_conns] closes the extra connection at accept and counts it. *)
let test_router_front_max_conns () =
  with_shard_servers ~tau:1 1 (fun addrs _servers ->
      let router = ok_or_fail (Router.create (router_config ~tau:1 [| [ addrs.(0) ] |])) in
      with_router_front
        ~front:(fun c -> { c with Server.max_conns = Some 1 })
        router
        (fun faddr _ ->
          let kept = ok_or_fail (Client.connect faddr) in
          ignore (ok_or_fail (Client.request kept Protocol.Health));
          let extra = ok_or_fail (Client.connect faddr) in
          (match text_line extra "STATS" with
          | exception (End_of_file | Sys_error _) -> ()
          | reply -> Alcotest.failf "the extra connection was served: %s" reply);
          Client.close extra;
          (match ok_or_fail (Client.request kept Protocol.Stats) with
          | Protocol.Stats_reply st -> Alcotest.(check int) "reaped" 1 st.Protocol.reaped
          | r -> Alcotest.failf "bad stats %s" (Protocol.render_response r));
          Client.close kept))

(* DRAIN answers DRAINED, the front stops taking work and connections,
   and the event loop ends. *)
let test_router_front_drain () =
  with_shard_servers ~tau:1 1 (fun addrs _servers ->
      let router = ok_or_fail (Router.create (router_config ~tau:1 [| [ addrs.(0) ] |])) in
      with_router_front router (fun faddr server ->
          let other = ok_or_fail (Client.connect faddr) in
          ignore (ok_or_fail (Client.request other Protocol.Health));
          let conn = ok_or_fail (Client.connect faddr) in
          Alcotest.(check string) "DRAIN answered" "OK drained" (text_line conn "DRAIN");
          Client.close conn;
          (* the drain starts on its own thread just after the reply *)
          let rec await_draining n =
            if n > 0 && not (Server.stats server).Protocol.draining then begin
              Thread.delay 0.005;
              await_draining (n - 1)
            end
          in
          await_draining 400;
          (match text_line other "QUERY 1 {a}" with
          | exception (End_of_file | Sys_error _) -> ()
          | reply ->
            Alcotest.(check string) "new work refused" "ERR draining: not accepting new work"
              reply);
          Client.close other;
          Server.wait server;
          Alcotest.(check bool) "drained" true (Server.drained server);
          match Client.connect ~timeout_s:1.0 faddr with
          | Error _ -> ()
          | Ok c ->
            Client.close c;
            Alcotest.fail "a drained router accepted a connection"))

(* --- ledger recovery and orphan adoption --- *)

let test_router_ledger_recovery () =
  let tau = 2 in
  with_shard_servers ~tau 2 (fun addrs _servers ->
      let ledger = Filename.temp_file "tsj_ledger" ".journal" in
      let cfg map_seed =
        {
          Router.map = Shard.create ~shards:2 ~tau ();
          tau;
          groups = Array.map (fun a -> [ a ]) addrs;
          timeout_s = 2.0;
          attempts = 2;
          ledger = Some ledger;
          seed = map_seed;
          hedge_s = None;
          margin_ms = 0;
        }
      in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists ledger then Sys.remove ledger)
        (fun () ->
          let trees = trees_of 5151 8 in
          let r1 = ok_or_fail (Router.create (cfg 1)) in
          Array.iter (fun tree -> ignore (ok_or_fail (Router.add r1 tree))) trees;
          let bindings =
            List.init (Array.length trees) (fun g -> Router.locate r1 g)
          in
          Router.close r1;
          (* restart: the ledger replays every binding, bit-identical *)
          let r2 = ok_or_fail (Router.create (cfg 2)) in
          Alcotest.(check int) "gids survive restart" (Array.length trees)
            (Router.n_trees r2);
          List.iteri
            (fun g b ->
              if Router.locate r2 g <> b then Alcotest.failf "binding %d changed" g)
            bindings;
          Alcotest.(check int) "nothing to adopt" 0 (Router.reconcile r2);
          (* a write that reached its shard but missed the ledger (the
             router died in between) is adopted on reconcile *)
          let orphan = t "{orphan{x}{y}}" in
          let s = Shard.shard_of_tree (Router.map r2) orphan in
          let direct = ok_or_fail (Client.connect addrs.(s)) in
          (match ok_or_fail (Client.request direct (Protocol.Add { seq = None; tree = orphan })) with
          | Protocol.Added _ -> ()
          | r -> Alcotest.failf "direct add failed: %s" (Protocol.render_response r));
          Client.close direct;
          Alcotest.(check int) "one orphan adopted" 1 (Router.reconcile r2);
          let gid = Router.n_trees r2 - 1 in
          (match Router.locate r2 gid with
          | Some (s', _, size) ->
            Alcotest.(check int) "adopted on its shard" s s';
            Alcotest.(check int) "adopted size" (Tree.size orphan) size
          | None -> Alcotest.fail "orphan not bound");
          Router.close r2))

(* --- ledger integrity: scrub, heal-at-load, quarantine --- *)

(* flip one bit in the middle of ledger line [line] (0-based) *)
let rot_ledger_line ledger ~line =
  let text = In_channel.with_open_bin ledger In_channel.input_all in
  let rec start idx from =
    if idx = 0 then from
    else
      match String.index_from_opt text from '\n' with
      | Some nl -> start (idx - 1) (nl + 1)
      | None -> Alcotest.fail "ledger shorter than expected"
  in
  let s = start line 0 in
  let len =
    match String.index_from_opt text s '\n' with
    | Some nl -> nl - s
    | None -> String.length text - s
  in
  Faults.flip_bit ledger ~bit:(8 * (s + (len / 2)))

let remove_ledger_files ledger =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ ledger; ledger ^ ".seal"; ledger ^ ".quarantine"; ledger ^ ".tmp" ]

let test_router_ledger_integrity () =
  let tau = 2 in
  with_shard_servers ~tau 2 (fun addrs _servers ->
      let ledger = Filename.temp_file "tsj_ledger" ".journal" in
      let cfg map_seed =
        {
          Router.map = Shard.create ~shards:2 ~tau ();
          tau;
          groups = Array.map (fun a -> [ a ]) addrs;
          timeout_s = 2.0;
          attempts = 2;
          ledger = Some ledger;
          seed = map_seed;
          hedge_s = None;
          margin_ms = 0;
        }
      in
      Fun.protect
        ~finally:(fun () -> remove_ledger_files ledger)
        (fun () ->
          let trees = trees_of 5252 8 in
          let r1 = ok_or_fail (Router.create (cfg 1)) in
          Array.iter (fun tree -> ignore (ok_or_fail (Router.add r1 tree))) trees;
          (* a clean ledger scrubs clean *)
          let verified, findings = Router.scrub_ledger r1 in
          Alcotest.(check int) "every line re-verified" 8 verified;
          Alcotest.(check int) "clean ledger has no findings" 0
            (List.length findings);
          (* live rot under a running router: detected, rewritten, and the
             next pass is clean *)
          rot_ledger_line ledger ~line:4;
          let _, findings = Router.scrub_ledger r1 in
          Alcotest.(check bool) "ledger rot detected" true (findings <> []);
          let _, findings = Router.scrub_ledger r1 in
          Alcotest.(check int) "clean after rewrite" 0 (List.length findings);
          (match Router.stats r1 with
          | { Protocol.scrubbed; crc_failures; repaired; _ } ->
            Alcotest.(check bool) "scrubbed counted" true (scrubbed >= 16);
            Alcotest.(check bool) "crc failure counted" true (crc_failures > 0);
            Alcotest.(check bool) "rewrite counted as repair" true (repaired > 0));
          (* adds keep committing after a repair *)
          ignore (ok_or_fail (Router.add r1 (t "{post{rot}{x}}")));
          let bindings = List.init 9 (fun g -> Router.locate r1 g) in
          Router.close r1;
          (* restart-heal: rot a line whose shard appears again later, so
             the dense-gid + lseq-skip inference can identify it and
             refetch the binding from the owning shard *)
          let shard_of_line l =
            match List.nth bindings l with
            | Some (s, _, _) -> s
            | None -> Alcotest.failf "gid %d unbound" l
          in
          let healable =
            List.find
              (fun l ->
                List.exists (fun l' -> shard_of_line l' = shard_of_line l)
                  [ l + 1; l + 2; l + 3; l + 4 ])
              [ 0; 1; 2; 3 ]
          in
          rot_ledger_line ledger ~line:healable;
          let r2 = ok_or_fail (Router.create (cfg 2)) in
          Alcotest.(check int) "healed load keeps every gid" 9 (Router.n_trees r2);
          List.iteri
            (fun g b ->
              if Router.locate r2 g <> b then Alcotest.failf "binding %d changed" g)
            bindings;
          Alcotest.(check bool) "rotted line moved aside" true
            (Sys.file_exists (ledger ^ ".quarantine"));
          let _, findings = Router.scrub_ledger r2 in
          Alcotest.(check int) "healed ledger scrubs clean" 0 (List.length findings);
          Router.close r2;
          (* unhealable rot (no shard reachable): the line and the suffix
             behind it are quarantined and the surviving prefix served *)
          rot_ledger_line ledger ~line:5;
          let dead =
            {
              (cfg 3) with
              Router.groups =
                Array.map
                  (fun _ -> [ Protocol.Unix_path "/nonexistent/tsj.sock" ])
                  addrs;
              timeout_s = 0.2;
              attempts = 1;
            }
          in
          let r3 = ok_or_fail (Router.create dead) in
          Alcotest.(check int) "surviving prefix served" 5 (Router.n_trees r3);
          List.iteri
            (fun g b ->
              if g < 5 && Router.locate r3 g <> b then
                Alcotest.failf "surviving binding %d changed" g)
            bindings;
          Router.close r3))

(* --- the sharded chaos storm --- *)

let check_sharded name (r : Faults.sharded_report) =
  Alcotest.(check bool) (name ^ ": no acked ADD lost") true r.Faults.sh_acked_preserved;
  Alcotest.(check bool) (name ^ ": one writer per epoch per shard") true
    r.Faults.sh_single_writer;
  Alcotest.(check bool) (name ^ ": every shard converged") true r.Faults.sh_converged;
  Alcotest.(check bool) (name ^ ": degraded answers sound") true
    r.Faults.sh_degraded_sound;
  Alcotest.(check bool) (name ^ ": healed answers bit-identical") true
    r.Faults.sh_answers_match

let test_sharded_storm () =
  let trees = trees_of 91 24 in
  let queries = trees_of 92 4 in
  List.iter
    (fun seed ->
      let r =
        Faults.run_sharded_storm ~seed ~rounds:32 ~shards:3 ~trees ~queries ~tau:2 ()
      in
      let name = Printf.sprintf "sharded storm (seed=%d)" seed in
      Alcotest.(check int) (name ^ ": one chaos point per round") 32
        r.Faults.sh_chaos_points;
      Alcotest.(check bool) (name ^ ": writes got through") true
        (r.Faults.sh_acked_adds > 32);
      check_sharded name r)
    [ 1101; 1102 ]

let test_sharded_storm_migrations () =
  (* a seed chosen to hit the migration and router-crash chaos kinds *)
  let trees = trees_of 93 24 in
  let queries = trees_of 94 4 in
  let r =
    Faults.run_sharded_storm ~seed:7 ~rounds:48 ~shards:3 ~trees ~queries ~tau:2 ()
  in
  Alcotest.(check bool) "migrations completed mid-storm" true (r.Faults.sh_migrations > 0);
  Alcotest.(check bool) "failovers exercised" true (r.Faults.sh_failovers > 0);
  check_sharded "migration storm" r

let prop_sharded_storm =
  Gen.qtest ~count:6 "sharded storm invariants under random seeds"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (7300 + seed) in
      let trees = Array.init 12 (fun _ -> Gen.random_tree rng (3 + Prng.int rng 8)) in
      let queries = Array.init 2 (fun _ -> Gen.random_tree rng (3 + Prng.int rng 8)) in
      let r =
        Faults.run_sharded_storm ~seed ~rounds:6 ~shards:2 ~trees ~queries ~tau:2 ()
      in
      r.Faults.sh_acked_preserved && r.Faults.sh_single_writer && r.Faults.sh_converged
      && r.Faults.sh_degraded_sound && r.Faults.sh_answers_match)

let test_hedged_reads () =
  let tau = 2 in
  with_shard_servers ~tau 1 (fun addrs _servers ->
      let cfg =
        {
          Router.map = Shard.create ~shards:1 ~tau ();
          tau;
          groups = [| [ addrs.(0) ] |];
          timeout_s = 5.0;
          attempts = 2;
          ledger = None;
          seed = 4711;
          hedge_s = Some 0.05;
          margin_ms = 10;
        }
      in
      let router = ok_or_fail (Router.create cfg) in
      (* a decoy replica that accepts connections and then never
         replies: with it listed first, every first leg stalls until
         the socket timeout *)
      with_decoy @@ fun decoy ->
      Fun.protect
        ~finally:(fun () -> Router.close router)
        (fun () ->
          let trees = trees_of 4321 10 in
          Array.iter (fun tree -> ignore (ok_or_fail (Router.add router tree))) trees;
          let queries = trees_of 4322 3 in
          let reference = Array.map (fun q -> Router.query router ~tau q) queries in
          Array.iter
            (fun r ->
              Alcotest.(check bool) "reference not degraded" false
                r.Router.a_degraded)
            reference;
          (* swap the hanging decoy in as the preferred replica: only
             the hedge can answer within the deadline now *)
          Router.set_group_addrs router 0 [ decoy; addrs.(0) ];
          Array.iteri
            (fun i q ->
              let t0 = Unix.gettimeofday () in
              let m = Router.query router ~deadline_ms:4_000 ~tau q in
              let wall = Unix.gettimeofday () -. t0 in
              Alcotest.(check bool) "hedge answered well before the timeout" true
                (wall < 2.0);
              Alcotest.(check bool) "hedged answer not degraded" false
                m.Router.a_degraded;
              (* the hedged answer is bit-identical to the unhedged one *)
              Alcotest.(check (list (pair int int))) "hedged hits identical"
                reference.(i).Router.a_hits m.Router.a_hits)
            queries;
          let fired, wins = Router.hedges router in
          Alcotest.(check bool) "hedges fired" true (fired >= Array.length queries);
          Alcotest.(check bool) "hedges won" true (wins >= Array.length queries)))

let suite =
  [
    Alcotest.test_case "band-key placement and windows" `Quick test_band_routing;
    prop_merge_sandwich;
    Alcotest.test_case "router end-to-end vs unsharded reference" `Quick
      test_router_end_to_end;
    Alcotest.test_case "router front-end speaks the node grammar" `Quick
      test_router_front_wire;
    Alcotest.test_case "router front: framed replies = text replies" `Quick
      test_router_front_binary;
    Alcotest.test_case "router front: the node's line cap" `Quick
      test_router_front_line_cap;
    Alcotest.test_case "router front: watermark sheds past a stalled shard" `Quick
      test_router_front_watermark;
    Alcotest.test_case "router front: max_conns reaps at accept" `Quick
      test_router_front_max_conns;
    Alcotest.test_case "router front: DRAIN ends the loop" `Quick
      test_router_front_drain;
    Alcotest.test_case "ledger recovery and orphan adoption" `Quick
      test_router_ledger_recovery;
    Alcotest.test_case "ledger integrity: scrub, heal, quarantine" `Quick
      test_router_ledger_integrity;
    Alcotest.test_case "hedged reads race a hung replica" `Quick
      test_hedged_reads;
    Alcotest.test_case "sharded storm" `Slow test_sharded_storm;
    Alcotest.test_case "sharded storm with migrations" `Slow
      test_sharded_storm_migrations;
    prop_sharded_storm;
    Alcotest.test_case "router fan-out, migration and degradation (8 shards)" `Quick
      test_router_migration_and_fanout;
    Alcotest.test_case "shard windows hold every edit ball" `Quick
      test_shard_window_edit_balls;
    prop_merge_spent_sandwich;
  ]
