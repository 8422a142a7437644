(* The repository benchmark: one run of one workload.

     tsjbench.exe --workload join|query|ingest|exact --seed N --seconds S
                  --trace 0|1 [--tsj PATH] [--run-dir DIR]

   Inputs are generated from the seed; the program under test receives
   only the generated trees (bracket text for the batch join, wire
   requests for the service).  Every answer is checked against a
   reference computed outside the timed window, in a forked child so
   that neither its memory nor its caches reach the measured process.
   A run does a fixed number of ops derived from [--seconds] (see
   [ops_for]), so every run of a seed does the same work.  The last
   stdout line is the result object; the line before it holds the run
   metadata.  See README.md for the workloads and metric definitions. *)

module Bracket = Tsj_tree.Bracket
module P = Tsj_server.Protocol
module Client = Tsj_server.Client
module Store = Tsj_server.Store
module Incremental = Tsj_core.Incremental
module Partsj = Tsj_core.Partsj
module Types = Tsj_join.Types
module Ted = Tsj_ted.Ted
module Profiles = Tsj_datagen.Profiles

let now = Unix.gettimeofday

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("tsjbench: " ^ s)) fmt

(* ---------------------------------------------------------------- *)
(* Arguments                                                         *)

let workload = ref ""
let seed = ref (-1)
let seconds = ref 0.0
let trace = ref false
let tsj = ref "_build/default/bin/tsj.exe"
let run_dir = ref ""

let () =
  let rec go = function
    | "--workload" :: v :: r -> workload := v; go r
    | "--seed" :: v :: r -> seed := int_of_string v; go r
    | "--seconds" :: v :: r -> seconds := float_of_string v; go r
    | "--trace" :: v :: r -> trace := (int_of_string v <> 0); go r
    | "--tsj" :: v :: r -> tsj := v; go r
    | "--run-dir" :: v :: r -> run_dir := v; go r
    | [] -> ()
    | a :: _ -> failwith ("unknown argument " ^ a)
  in
  go (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || !seconds <= 0.0 then
    failwith "usage: --workload W --seed N (>= 0) --seconds S (> 0) --trace 0|1";
  if !run_dir = "" then
    run_dir := Printf.sprintf ".perfbench_run/%d" (Unix.getpid ())

(* Fixed op count per run: [seconds] times the workload's nominal rate on
   a 2-vCPU host, never below [floor] (enough samples for a p75 tail).
   A duration-limited run would let a fast run grow the ingest index
   further, so its later ops would cost more. *)
let ops_for ~rate ~floor = max floor (int_of_float (Float.round (!seconds *. rate)))

(* ---------------------------------------------------------------- *)
(* Child processes, scratch files, cleanup                           *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let children : int list ref = ref []
let is_child = ref false

(* The [tsj serve] children now running. *)
type server = { pid : int; sock : string }

let servers : server list ref = ref []

(* Set once the server helpers below exist: drains, then kills, every
   server still running. *)
let stop_servers = ref (fun () -> ())

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) pid) !children

let cleanup () =
  if not !is_child then begin
    !stop_servers ();
    List.iter reap !children;
    rm_rf !run_dir
  end

let () =
  at_exit cleanup;
  let bail _ = exit 1 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigint (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let scratch name = Filename.concat !run_dir name

(* Run [f] in a forked child and return its marshalled result.  Used for
   the reference answers: the child's allocations, domains and TED memo
   never touch the measured process.  Forking is only legal before this
   process spawns a domain, which it never does. *)
let in_child name (f : unit -> 'a) : 'a =
  let path = scratch (name ^ ".ref") in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    is_child := true;
    let code =
      try
        let v = f () in
        let oc = open_out_bin path in
        Marshal.to_channel oc v [];
        close_out oc;
        0
      with e ->
        prerr_endline ("tsjbench: reference failed: " ^ Printexc.to_string e);
        3
    in
    Unix._exit code
  | pid ->
    children := pid :: !children;
    let _, st = Unix.waitpid [] pid in
    children := List.filter (( <> ) pid) !children;
    if st <> Unix.WEXITED 0 then failwith ("reference computation failed: " ^ name);
    let ic = open_in_bin path in
    let v : 'a = Marshal.from_channel ic in
    close_in ic;
    Sys.remove path;
    v

(* [f] on the two halves of [xs] on two domains, concatenated; only
   ever called inside an [in_child] child. *)
let par_halves f xs =
  let n = Array.length xs in
  let half = n / 2 in
  let d = Domain.spawn (fun () -> f (Array.sub xs half (n - half))) in
  let a = f (Array.sub xs 0 half) in
  Array.append a (Domain.join d)

let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status"
                      (if pid = 0 then "self" else string_of_int pid)) in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> kb)
    | _ -> go ()
    | exception End_of_file -> 0
  in
  let kb = go () in
  close_in ic;
  float_of_int kb /. 1024.0

(* ---------------------------------------------------------------- *)
(* Statistics and output                                             *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks. *)
let quantile a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((pos -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

let median a = quantile a 0.5

(* The highest of these percentiles with at least ten samples above it,
   for [n] independent samples. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0)
    [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]
  |> Option.value ~default:50.0

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

type jv = S of string | F of float | I of int

let json_obj fields =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v) ->
           json_string k ^ ": "
           ^ match v with S s -> json_string s | F f -> json_float f | I i -> string_of_int i)
         fields)
  ^ "}"

(* Every per-layer metric, in the order BENCHMARK.json lists them.  A
   traced run reports all of them; one its workload does not exercise
   reads 0 and is named under "not_measured" in the metadata line. *)
let layer_metrics =
  [ "core.prep_ms", "ms"; "core.sweep_ms", "ms"; "core.candidate_ms", "ms";
    "core.verify_ms", "ms"; "core.candidates", "count";
    "core.probe_match_ratio", "ratio"; "ted.cascade_decided_ratio", "ratio";
    "ted.kernel_calls", "count"; "ted.memo_hit_ratio", "ratio";
    "ted.kernel_us", "us"; "core.query_us", "us"; "core.knn_us", "us";
    "ted.prep_us", "us"; "core.hits_per_query", "count";
    "server.stage_us", "us"; "server.index_us", "us"; "server.journal_us", "us";
    "server.fsyncs_per_add", "ratio"; "server.journal_bytes_per_user_byte", "ratio";
    "core.add_candidates", "count"; "server.decode_us", "us";
    "server.encode_us", "us"; "server.wire_ms", "ms"; "server.replay_ms", "ms";
    "server.shed", "count"; "server.expired", "count" ]

let e2e_metrics =
  [ "setup_s", "s"; "ops_per_s", "1/s"; "p50_ms", "ms"; "tail_ms", "ms";
    "peak_rss_mb", "MB"; "ok_ratio", "ratio" ]

type outcome = {
  attempted : int;
  failed : int;
  e2e : (string * float) list;  (** untraced runs: every [e2e_metrics] name *)
  layers : (string * float) list;  (** traced runs: the layer metrics measured *)
  meta : (string * jv) list;
}

(* Processors online on the host, whatever this process's affinity. *)
let online_cpus () =
  let ic = open_in "/proc/cpuinfo" in
  let n = ref 0 in
  (try
     while true do
       let l = input_line ic in
       if String.length l >= 9 && String.sub l 0 9 = "processor" then incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

let git_revision () =
  let from_git =
    try
      let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
      let l = try input_line ic with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if String.length l = 40 then Some l else None
    with _ -> None
  in
  match from_git with
  | Some r -> r
  | None ->
    (* Not a git checkout: fingerprint the library sources instead. *)
    let b = Buffer.create 65536 in
    let rec walk d =
      let entries = Sys.readdir d in
      Array.sort compare entries;
      Array.iter
        (fun f ->
          let p = Filename.concat d f in
          if Sys.is_directory p then walk p
          else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then begin
            Buffer.add_string b p;
            Buffer.add_string b (Digest.to_hex (Digest.file p))
          end)
        entries
    in
    (try walk "lib" with Sys_error _ -> ());
    "src-" ^ Digest.to_hex (Digest.string (Buffer.contents b))

let emit o =
  let metrics =
    if !trace then
      List.map
        (fun (name, unit) -> (name, unit, Option.value (List.assoc_opt name o.layers) ~default:0.0))
        layer_metrics
    else List.map (fun (name, unit) -> (name, unit, List.assoc name o.e2e)) e2e_metrics
  in
  let not_measured =
    List.filter_map
      (fun (n, _) -> if List.mem_assoc n o.layers then None else Some n)
      layer_metrics
  in
  let meta =
    [ "workload", S !workload; "seed", I !seed; "seconds", F !seconds;
      "trace", I (if !trace then 1 else 0);
      "nproc", I (online_cpus ()); "cpus_usable", I (Domain.recommended_domain_count ());
      "ocaml", S Sys.ocaml_version; "revision", S (git_revision ()) ]
    @ o.meta
    @ if !trace then [ "not_measured", S (String.concat "," not_measured) ] else []
  in
  print_endline ("{\"meta\": " ^ json_obj meta ^ "}");
  let m =
    String.concat ", "
      (List.map
         (fun (n, u, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n) (json_float v)
             (json_string u))
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.failed = 0) o.attempted o.failed m

(* ---------------------------------------------------------------- *)
(* Host speed                                                        *)

(* Host speed can drift by up to ~1.8x in phases lasting seconds to
   tens of seconds (see README.md).  Runs therefore sample a fixed
   calibration job, independent of the code under test, about every
   50 ms between ops, and divide each op's latency, each interval of the
   timed phase and each set-up by the slowdown the calibration saw
   around it: those timings read as at the speed [calib_ref_s] defines.
   The raw timings are kept in the metadata line. *)

let calib_ref_s = 0.0016  (* the job's time at the reference speed *)

(* An edit-distance DP over two fixed integer strings: the same kind of
   work as the TED kernels (array reads, min chains, branches) without
   calling them, so a faster kernel still reads as faster.  Of the jobs
   tried (integer loop, pointer chase, allocation, this DP) it tracked
   the served query's speed best: correlation 0.91 over 1 s windows. *)
let calib_a = Array.init 256 (fun i -> (i * 7919) mod 13)
let calib_b = Array.init 256 (fun i -> (i * 104729) mod 13)

let calib_job () =
  let n = Array.length calib_a and m = Array.length calib_b in
  let prev = Array.init (m + 1) Fun.id and cur = Array.make (m + 1) 0 in
  for i = 1 to n do
    cur.(0) <- i;
    for j = 1 to m do
      let c = if calib_a.(i - 1) = calib_b.(j - 1) then 0 else 1 in
      cur.(j) <- min (min (prev.(j) + 1) (cur.(j - 1) + 1)) (prev.(j - 1) + c)
    done;
    Array.blit cur 0 prev 0 (m + 1)
  done;
  ignore (Sys.opaque_identity prev)

let calib = ref []  (* (time, slowdown) samples *)
let last_calib = ref neg_infinity

(* Every running server is stopped (SIGSTOP, and waited for) while the
   job runs: CPU a server spends outside its replies, on a background
   thread or a timer, must not read as host slowdown and be divided out
   of its own timings.  Calibration only happens with no request in
   flight. *)
let calibrate () =
  let held =
    List.filter
      (fun s ->
        match
          Unix.kill s.pid Sys.sigstop;
          Unix.waitpid [ Unix.WUNTRACED ] s.pid
        with
        | _, Unix.WSTOPPED _ -> true
        | _ -> false
        | exception Unix.Unix_error _ -> false)
      !servers
  in
  let t0 = now () in
  calib_job ();
  let t1 = now () in
  List.iter (fun s -> try Unix.kill s.pid Sys.sigcont with Unix.Unix_error _ -> ()) held;
  calib := (t0, (t1 -. t0) /. calib_ref_s) :: !calib;
  last_calib := t1

(* Calibrate if the last sample is 50 ms old; true if it did. *)
let pace () =
  if now () -. !last_calib >= 0.05 then begin
    calibrate ();
    true
  end
  else false

(* Slowdown at a time: the median of the samples within [window]
   seconds of it (of the three nearest if there are none). *)
let slowdown ~window =
  let a = Array.of_list !calib in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then fun _ -> 1.0
  else fun t ->
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst a.(mid) < t then lo := mid + 1 else hi := mid
    done;
    let i = !lo in
    let near = ref [] in
    let j = ref (i - 1) in
    while !j >= 0 && t -. fst a.(!j) <= window do near := snd a.(!j) :: !near; decr j done;
    let j = ref i in
    while !j < n && fst a.(!j) -. t <= window do near := snd a.(!j) :: !near; incr j done;
    if !near = [] then
      for k = max 0 (i - 2) to min (n - 1) (i + 1) do near := snd a.(k) :: !near done;
    median (Array.of_list !near)

(* Time one set-up with calibration samples around it; returns
   (start, duration). *)
let timed_setup f =
  for _ = 1 to 5 do calibrate () done;
  let t0 = now () in
  let v = f () in
  let d = now () -. t0 in
  for _ = 1 to 5 do calibrate () done;
  (v, (t0, d))

(* What one timed phase recorded: per-op latency and start (seconds),
   and the intervals during which ops were in progress (calibration
   happens between them). *)
type phase = { lat : float array; starts : float array; segs : (float * float) list }

(* End-to-end metrics of a phase, normalized to the reference speed
   except those named in [raw]; the raw values go to the metadata.  Each
   timing is divided by the slowdown within [window] seconds of its
   midpoint.  [setup_s] is the median of [setups], times [setup_scale]. *)
let latency_metrics ?distinct ?(setup_scale = 1.0) ?(raw = []) ?(window = 1.0) (ph : phase)
    ~setups ~rss ~ok =
  let sd = slowdown ~window in
  let n = Array.length ph.lat in
  (* A request repeated from a cycled pool is one independent sample. *)
  let p = tail_percentile (min n (Option.value distinct ~default:n)) in
  let t_lo = Array.fold_left min infinity ph.starts in
  let t_hi = Array.fold_left max neg_infinity ph.starts in
  let phase_sd =
    median (Array.of_list (List.filter_map (fun (t, x) -> if t >= t_lo && t <= t_hi then Some x else None) !calib))
  in
  let summary ~norm =
    let f t = if norm then sd t else 1.0 in
    let ms = Array.mapi (fun i l -> l *. 1000.0 /. f (ph.starts.(i) +. (l /. 2.0))) ph.lat in
    let wall = List.fold_left (fun a (t0, t1) -> a +. ((t1 -. t0) /. f ((t0 +. t1) /. 2.0))) 0.0 ph.segs in
    let setup =
      setup_scale *. median (Array.of_list (List.map (fun (t0, d) -> d /. f (t0 +. (d /. 2.0))) setups))
    in
    [ "setup_s", setup; "ops_per_s", float_of_int n /. wall; "p50_ms", median ms;
      "tail_ms", quantile ms (p /. 100.0); "peak_rss_mb", rss;
      "ok_ratio", float_of_int ok /. float_of_int n ]
  in
  let norm = summary ~norm:true and plain = summary ~norm:false in
  ( List.map (fun (k, v) -> (k, if List.mem k raw then List.assoc k plain else v)) norm,
    [ "ops", I n; "tail_percentile", S (Printf.sprintf "p%g" p);
      "slowdown_median", F phase_sd;
      "calibrations", I (List.length !calib) ]
    @ List.filter_map
        (fun (k, v) ->
          if List.mem k [ "peak_rss_mb"; "ok_ratio" ] then None else Some ("raw_" ^ k, F v))
        plain
    @ [ "not_normalized", S (String.concat "," raw) ] )

(* ---------------------------------------------------------------- *)
(* Spans (traced runs only)                                          *)

type span = { sp_name : string; sp_op : int; sp_parent : int; sp_start : float; sp_stop : float }

let spans : span array ref = ref [||]
let n_spans = ref 0

let record sp =
  if !n_spans = Array.length !spans then begin
    let a = Array.make (max 1024 (2 * !n_spans)) sp in
    Array.blit !spans 0 a 0 !n_spans;
    spans := a
  end;
  !spans.(!n_spans) <- sp;
  incr n_spans;
  !n_spans - 1

(* Time [f] as a span; returns its result and the span id.  The id is
   taken when the span opens ([!n_spans] just before the call), so spans
   opened inside [f] can name it as their parent. *)
let span ?(parent = -1) ~op name f =
  let id = record { sp_name = name; sp_op = op; sp_parent = parent; sp_start = now (); sp_stop = nan } in
  let v = f () in
  !spans.(id) <- { !spans.(id) with sp_stop = now () };
  (v, id)

let spanned ?parent ~op name f = fst (span ?parent ~op name f)

(* Durations of every span called [name], scaled by [unit] per second.
   Per-layer microsecond metrics are means: single spans of a few µs
   are below the clock's resolution, their mean is not. *)
let durations ?(unit = 1e6) name =
  let acc = ref [] in
  for i = !n_spans - 1 downto 0 do
    let s = !spans.(i) in
    if s.sp_name = name then acc := ((s.sp_stop -. s.sp_start) *. unit) :: !acc
  done;
  Array.of_list !acc

let mean_us name =
  let d = durations name in
  if d = [||] then 0.0 else Array.fold_left ( +. ) 0.0 d /. float_of_int (Array.length d)

let write_spans () =
  let dir = ".perfbench_run/traces" in
  mkdir_p dir;
  let path = Printf.sprintf "%s/%s-%d.jsonl" dir !workload !seed in
  let oc = open_out path in
  for i = 0 to !n_spans - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc
      "{\"id\": %d, \"name\": %s, \"op\": %d, \"parent\": %d, \"start\": %.6f, \"end\": %.6f}\n" i
      (json_string s.sp_name) s.sp_op s.sp_parent s.sp_start s.sp_stop
  done;
  close_out oc;
  log "wrote %d spans to %s" !n_spans path

(* Time the banded TED kernel on answer pairs [(a, b, distance)], each
   pair preprocessed outside the span.  Returns the timings in µs and
   how many kernel distances disagreed with the answer. *)
let kernel_us ~tau pairs =
  let wrong = ref 0 in
  List.iteri
    (fun op (a, b, d) ->
      let pa = Ted.preprocess a and pb = Ted.preprocess b in
      if spanned ~op "ted.kernel" (fun () -> Ted.bounded_distance_prep pa pb tau) <> d then
        incr wrong)
    pairs;
  (mean_us "ted.kernel", !wrong)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let take n l = List.filteri (fun i _ -> i < n) l

(* ---------------------------------------------------------------- *)
(* join: Partsj.join at tau = 3 on one domain, a distinct collection  *)
(* per op                                                            *)

let join_tau = 3
let join_n = 800

let run_join () =
  let n_ops = ops_for ~rate:2.5 ~floor:40 in
  let parse texts i = Array.map Bracket.of_string_exn texts.(i) in
  (* Generation and the reference run in a child: the collections they
     hold never reach this process's heap, whose peak is then the join's
     own.  The timed loop parses each collection just before its op,
     outside the op's time; those parses are the set-up. *)
  let texts, expected =
    in_child "join" (fun () ->
        let texts =
          Array.init n_ops (fun i ->
              Profiles.instantiate Profiles.synthetic ~seed:((!seed * 1000) + i) ~n:join_n
              |> Array.map Bracket.to_string)
        in
        let expected =
          par_halves
            (Array.map (fun i ->
                 let inc = Incremental.create ~tau:join_tau () in
                 let acc = ref [] in
                 Array.iteri
                   (fun j t ->
                     List.iter (fun (i, d) -> acc := (i, j, d) :: !acc) (Incremental.add inc t))
                   (parse texts i);
                 List.sort compare !acc))
            (Array.init n_ops Fun.id)
        in
        (texts, expected))
  in
  let parse = parse texts in
  let correct i (o : Types.output) =
    o.quarantined = []
    && List.sort compare (List.map (fun (p : Types.pair) -> (p.i, p.j, p.distance)) o.pairs)
       = expected.(i)
  in
  Gc.full_major ();
  if not !trace then begin
    let lat = Array.make n_ops 0.0 and starts = Array.make n_ops 0.0 in
    let ok = ref 0 and setups = ref [] in
    for i = 0 to n_ops - 1 do
      (* One set-up per op, spread over the run like the ops. *)
      let trees, setup = timed_setup (fun () -> parse i) in
      setups := setup :: !setups;
      let t0 = now () in
      let o = Partsj.join ~domains:1 ~tau:join_tau ~trees () in
      lat.(i) <- now () -. t0;
      starts.(i) <- t0;
      if correct i o then incr ok
    done;
    calibrate ();
    let segs = Array.to_list (Array.mapi (fun i t0 -> (t0, t0 +. lat.(i))) starts) in
    (* setup_s: the parse of all the collections, from the median one.
       A narrower window than the served workloads' tracks the join
       better: over ten seeds it cut the spread of ops_per_s from 0.060
       to 0.037 and that of tail_ms from 0.094 to 0.059. *)
    let e2e, meta =
      latency_metrics ~window:0.5 { lat; starts; segs } ~setups:!setups
        ~setup_scale:(float_of_int n_ops) ~rss:(vm_hwm_mb 0) ~ok:!ok
    in
    { attempted = n_ops; failed = n_ops - !ok; e2e; layers = []; meta }
  end
  else begin
    (* Each collection is joined once untraced and once traced, the
       order alternating; the two ops/s give the tracing overhead. *)
    let t_plain = ref 0.0 and t_traced = ref 0.0 in
    let ok = ref 0 in
    let stats = ref [] in
    let pairs = ref [] in
    for i = 0 to n_ops - 1 do
      let trees = parse i in
      let plain () =
        let t0 = now () in
        ignore (Partsj.join ~domains:1 ~tau:join_tau ~trees ());
        t_plain := !t_plain +. (now () -. t0)
      in
      let traced () =
        let phases = ref None in
        let (o, probes), root =
          span ~op:i "join.op" (fun () ->
              Partsj.join_with_probe_stats ~domains:1 ~tau:join_tau
                ~on_phases:(fun p -> phases := Some p)
                ~trees ())
        in
        let r = !spans.(root) in
        t_traced := !t_traced +. (r.sp_stop -. r.sp_start);
        let p = Option.get !phases in
        let sweep_start = r.sp_start +. p.Partsj.prep_wall_s in
        ignore (record { r with sp_name = "core.prep"; sp_parent = root; sp_stop = sweep_start });
        ignore
          (record
             { r with sp_name = "core.sweep"; sp_parent = root; sp_start = sweep_start;
                      sp_stop = sweep_start +. p.Partsj.sweep_wall_s });
        if correct i o then incr ok;
        stats := (o.stats, probes) :: !stats;
        pairs :=
          List.rev_append
            (List.map
               (fun (q : Types.pair) -> (trees.(q.i), trees.(q.j), q.distance))
               (take 32 o.pairs))
            !pairs
      in
      if i mod 2 = 0 then (plain (); traced ()) else (traced (); plain ())
    done;
    let stats = List.rev !stats in
    let sum f = List.fold_left (fun a x -> a + f x) 0 stats in
    let ms f = median (Array.of_list (List.map (fun x -> f x *. 1000.0) stats)) in
    let cand = sum (fun ((s : Types.stats), _) -> s.n_candidates) in
    let c f = sum (fun ((s : Types.stats), _) -> f s.cascade) in
    let decided =
      c (fun k ->
          k.Types.pruned_size + k.pruned_labels + k.pruned_degrees + k.pruned_sed
          + k.early_accepted)
    in
    let hits = c (fun k -> k.Types.memo_hits) and misses = c (fun k -> k.Types.memo_misses) in
    let probed = sum (fun (_, p) -> p.Partsj.n_probed) in
    let matched = sum (fun (_, p) -> p.Partsj.n_matched) in
    let kus, kwrong = kernel_us ~tau:join_tau (List.rev !pairs) in
    write_spans ();
    {
      attempted = n_ops;
      failed = n_ops - !ok + kwrong;
      e2e = [];
      layers =
        [ "core.prep_ms", median (durations ~unit:1e3 "core.prep");
          "core.sweep_ms", median (durations ~unit:1e3 "core.sweep");
          "core.candidate_ms", ms (fun (s, _) -> s.Types.candidate_time_s);
          "core.verify_ms", ms (fun (s, _) -> s.Types.verify_time_s);
          "core.candidates", float_of_int cand;
          "core.probe_match_ratio", ratio matched probed;
          "ted.cascade_decided_ratio", ratio decided cand;
          "ted.kernel_calls", float_of_int (c (fun k -> k.Types.kernel_verified));
          "ted.memo_hit_ratio", ratio hits (hits + misses);
          "ted.kernel_us", kus ];
      meta =
        [ "ops", I n_ops;
          "untraced_ops_per_s", F (float_of_int n_ops /. !t_plain);
          "traced_ops_per_s", F (float_of_int n_ops /. !t_traced);
          "tracing_overhead_pct", F ((!t_traced -. !t_plain) /. !t_plain *. 100.0) ];
    }
  end

(* ---------------------------------------------------------------- *)
(* The service: a [tsj serve] child per set-up, one binary connection *)

let addr s = P.Unix_path s.sock

(* Spawn [tsj serve] and wait for its first answered HEALTH; returns the
   server and that set-up time. *)
let spawn_server name args =
  let sock = scratch (name ^ ".sock") in
  let logfile = scratch (name ^ ".log") in
  let fd = Unix.openfile logfile [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t0 = now () in
  let pid = Unix.create_process !tsj (Array.of_list (!tsj :: "serve" :: sock :: args)) Unix.stdin fd fd in
  Unix.close fd;
  children := pid :: !children;
  let s = { pid; sock } in
  servers := s :: !servers;
  let rec wait () =
    if now () -. t0 > 120.0 then failwith ("server did not come up, see " ^ logfile);
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
      children := List.filter (( <> ) pid) !children;
      failwith ("server exited during set-up, see " ^ logfile));
    let healthy =
      match Client.connect ~timeout_s:120.0 (addr s) with
      | Error _ -> false
      | Ok c ->
        let r = Client.request c P.Health in
        Client.close c;
        (match r with Ok (P.Health_reply _) -> true | _ -> false)
    in
    if not healthy then begin
      Unix.sleepf 0.002;
      wait ()
    end
  in
  wait ();
  (s, now () -. t0)

(* DRAIN, then wait for the exit; SIGKILL if it does not come. *)
let stop_server ?(grace = 15.0) s =
  servers := List.filter (fun x -> x.pid <> s.pid) !servers;
  (* It may be stopped if a signal cut a calibration short. *)
  (try Unix.kill s.pid Sys.sigcont with Unix.Unix_error _ -> ());
  (match Client.connect ~timeout_s:(min grace 10.0) (addr s) with
  | Ok c ->
    ignore (Client.request c P.Drain);
    Client.close c
  | Error _ -> ());
  let t0 = now () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () -. t0 < grace ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ -> reap s.pid
    | _ -> children := List.filter (( <> ) s.pid) !children
    | exception Unix.Unix_error _ -> ()
  in
  wait ()

let () = stop_servers := fun () -> List.iter (stop_server ~grace:2.0) !servers

let bin_connect s =
  match Client.Bin.connect ~timeout_s:60.0 (addr s) with
  | Ok c -> c
  | Error e -> failwith ("connect: " ^ e)

(* Start server [k]; returns it and its set-up's (start, duration). *)
let served_setup name args_for k =
  let (s, d), (t0, _) =
    timed_setup (fun () -> spawn_server (Printf.sprintf "%s%d" name k) (args_for k))
  in
  (s, (t0, d))

(* The timed phase runs in this many pieces, and one more server is set
   up (then stopped) after each.  The set-ups thus sample the host's
   speed across the whole run, as the ops do; back to back, they all
   fell within one of its speed phases. *)
let setup_pieces = 5

(* [piece lo hi] over [0, n) in [setup_pieces] pieces, each followed by
   [per_piece] calls of [setup k] for k = 1, 2, ...; returns the pieces'
   results and the set-ups. *)
let in_pieces ?(per_piece = 1) ~n ~setup piece =
  let results = ref [] and setups = ref [] in
  for p = 0 to setup_pieces - 1 do
    results := piece (n * p / setup_pieces) (n * (p + 1) / setup_pieces) :: !results;
    for k = 1 to per_piece do
      let s, t = setup ((p * per_piece) + k) in
      stop_server s;
      setups := t :: !setups
    done
  done;
  (List.rev !results, !setups)

let concat_phases parts =
  { lat = Array.concat (List.map (fun p -> p.lat) parts);
    starts = Array.concat (List.map (fun p -> p.starts) parts);
    segs = List.concat_map (fun p -> p.segs) parts }

(* A served timed phase: [loop c reqs] in pieces over one connection to
   [s], with the extra set-ups between them.  Returns the phase, the
   replies in request order and the extra set-ups. *)
let served_phase name args_for s loop reqs =
  let c = bin_connect s in
  Gc.full_major ();
  let parts, setups =
    in_pieces ~n:(Array.length reqs) ~setup:(served_setup name args_for) (fun lo hi ->
        loop c (Array.sub reqs lo (hi - lo)))
  in
  Client.Bin.close c;
  (concat_phases (List.map fst parts), Array.concat (List.map snd parts), setups)

let server_stats s =
  match Client.connect ~timeout_s:30.0 (addr s) with
  | Error e -> failwith ("STATS: " ^ e)
  | Ok c ->
    let r = Client.request c P.Stats in
    Client.close c;
    (match r with Ok (P.Stats_reply st) -> st | _ -> failwith "STATS: bad reply")

let answer_is hits = function
  | Ok (P.Hits { degraded = false; hits = h; unverified = [] }) -> h = hits
  | _ -> false

(* Collects the active intervals of a timed phase: [cut] ends the
   current one, calibrates if due, and starts the next. *)
let segments () =
  let segs = ref [] and seg_start = ref (now ()) in
  let cut () =
    let t = now () in
    if pace () then begin
      segs := (!seg_start, t) :: !segs;
      seg_start := now ()
    end
  in
  let close () = segs := (!seg_start, now ()) :: !segs; !segs in
  (cut, close)

(* Closed loop: one request in flight. *)
let closed_loop c reqs =
  let n = Array.length reqs in
  let lat = Array.make n 0.0 and starts = Array.make n 0.0 in
  let replies = Array.make n (Error "not sent") in
  calibrate ();
  let cut, close = segments () in
  for i = 0 to n - 1 do
    let t0 = now () in
    replies.(i) <- Client.Bin.request c reqs.(i);
    lat.(i) <- now () -. t0;
    starts.(i) <- t0;
    cut ()
  done;
  let segs = close () in
  calibrate ();
  ({ lat; starts; segs }, replies)

(* Pipelined: up to [window] requests in flight, replies matched by id.
   Every 100 ms the window drains for a calibration sample. *)
let pipelined c ~window reqs =
  let n = Array.length reqs in
  let lat = Array.make n 0.0 and starts = Array.make n 0.0 in
  let replies = Array.make n (Error "not answered") in
  let pending = Hashtbl.create (2 * window) in
  let next = ref 0 in
  let fill () =
    while !next < n && Hashtbl.length pending < window do
      let i = !next in
      incr next;
      starts.(i) <- now ();
      Hashtbl.replace pending (Client.Bin.send c reqs.(i)) i
    done;
    Client.Bin.flush c
  in
  calibrate ();
  let cut, close = segments () in
  fill ();
  let rec loop () =
    if Hashtbl.length pending > 0 then begin
      (match Client.Bin.recv c with
      | Error e -> failwith ("pipelined recv: " ^ e)
      | Ok (id, r) ->
        let i = Hashtbl.find pending id in
        Hashtbl.remove pending id;
        lat.(i) <- now () -. starts.(i);
        replies.(i) <- Ok r);
      if now () -. !last_calib < 0.05 then fill ()
      else if Hashtbl.length pending = 0 then begin
        cut ();
        fill ()
      end;
      loop ()
    end
  in
  loop ();
  let segs = close () in
  calibrate ();
  ({ lat; starts; segs }, replies)

(* Frame [req] as the client would, then decode the frame with the
   server's codec in a "server.decode" span. *)
let decode_framed ?parent ~op req =
  let b = Buffer.create 256 in
  P.Binary.encode_request b ~id:op req;
  let s = Buffer.contents b in
  match
    spanned ?parent ~op "server.decode" (fun () ->
        P.Binary.decode_request ~version:P.Binary.version ~op:(Char.code s.[8])
          ~body:(String.sub s 9 (P.Binary.get_u32 s 0 - 5)))
  with
  | Ok (r, _, _) -> r
  | Error e -> failwith ("replay decode: " ^ e)

let encode_reply ?parent ~op resp =
  spanned ?parent ~op "server.encode" (fun () ->
      P.Binary.encode_response (Buffer.create 256) ~id:op resp)

(* Run a request through the server's public functions — decode,
   [compute], encode — under one "server.request" span.  Returns the
   response. *)
let replay_request ~op req compute =
  let root = !n_spans in
  spanned ~op "server.request" (fun () ->
      let resp = compute ~parent:root (decode_framed ~parent:root ~op req) in
      encode_reply ~parent:root ~op resp;
      resp)

let hits_of = function
  | P.Hits { hits; _ } -> hits
  | _ -> failwith "replay: unexpected response"

let preload_file name trees =
  let path = scratch name in
  Bracket.save_file path (Array.to_list trees);
  path

(* Layer metrics every served workload reports from its replay. *)
let wire_layers ~lat st =
  let replay_ms = median (durations ~unit:1e3 "server.request") in
  [ "server.decode_us", mean_us "server.decode";
    "server.encode_us", mean_us "server.encode";
    "server.replay_ms", replay_ms;
    "server.wire_ms", (median lat *. 1000.0) -. replay_ms;
    "server.shed", float_of_int st.P.shed;
    "server.expired", float_of_int st.P.expired ]

(* ---------------------------------------------------------------- *)
(* query: closed-loop QUERY tau=2 / KNN k=5 (4:1) over a swissprot    *)
(* preload                                                           *)

let query_preload = 2000

(* [parts] independent generated streams of [stored + fresh] trees each:
   the first [stored] of every stream are stored, the rest are its fresh
   trees (so a fresh tree's near-duplicates sit in the same stream's
   stored part).  Independent streams bound the near-duplicate clusters
   the profile's copy process grows, which would otherwise make the cost
   of a run hinge on the one largest cluster its seed happens to draw. *)
let streams profile ~parts ~stored ~fresh =
  assert (parts <= 1000);
  let s =
    Array.init parts (fun k ->
        Profiles.instantiate profile ~seed:((!seed * 1000) + k) ~n:(stored + fresh))
  in
  ( Array.concat (Array.to_list (Array.map (fun a -> Array.sub a 0 stored) s)),
    Array.concat (Array.to_list (Array.map (fun a -> Array.sub a stored fresh) s)) )

let query_parts = 100
let query_pool = 9000  (* distinct query trees, cycled; a multiple of 5 *)
let read_tau = 2

let query_req tree i =
  if i mod 5 = 4 then P.Knn { k = 5; tree } else P.Query { tau = read_tau; tree }

let run_query () =
  let n_ops = ops_for ~rate:2500.0 ~floor:2000 in
  let preload, pool =
    streams Profiles.swissprot ~parts:query_parts ~stored:(query_preload / query_parts)
      ~fresh:(query_pool / query_parts)
  in
  (* Interleave the streams' fresh trees so every stretch of the request
     stream draws on all of them. *)
  let per = query_pool / query_parts in
  let pool = Array.init query_pool (fun j -> pool.(((j mod query_parts) * per) + (j / query_parts))) in
  let reqs = Array.init n_ops (fun i -> query_req pool.(i mod query_pool) i) in
  let file = preload_file "preload.trees" preload in
  let expected =
    in_child "query" (fun () ->
        par_halves
          (fun jobs ->
            let inc = Incremental.create ~tau:read_tau () in
            Array.iter (fun t -> ignore (Incremental.add inc t)) preload;
            Array.map
              (fun (j, t) ->
                if j mod 5 = 4 then Incremental.nearest ~k:5 inc t
                else (Incremental.query ~tau:read_tau inc t).hits)
              jobs)
          (Array.mapi (fun j t -> (j, t)) pool))
  in
  let args _ = [ "--tau"; string_of_int read_tau; "--preload"; file ] in
  let s, setup0 = served_setup "query" args 0 in
  let ph, replies, setups = served_phase "query" args s closed_loop reqs in
  let setups = setup0 :: setups in
  let rss = vm_hwm_mb s.pid in
  let st = server_stats s in
  stop_server s;
  let ok = ref 0 in
  Array.iteri (fun i r -> if answer_is expected.(i mod query_pool) r then incr ok) replies;
  let e2e, meta = latency_metrics ~distinct:query_pool ph ~setups ~rss ~ok:!ok in
  let failed = n_ops - !ok in
  if not !trace then { attempted = n_ops; failed; e2e; layers = []; meta }
  else begin
    (* Replay the first 2000 requests in-process through the server's
       public functions against an identical preload. *)
    let store = Result.get_ok (Store.open_ ~tau:read_tau ()) in
    Array.iter (fun t -> ignore (Store.add store t)) preload;
    let n_replay = min n_ops 2000 in
    let hits = ref 0 and queries = ref 0 and pairs = ref [] and wrong = ref 0 in
    for i = 0 to n_replay - 1 do
      (* The query tree's preprocessing, timed on its own: [Store.query]
         does it internally, out of reach of a span. *)
      (match reqs.(i) with
      | P.Query { tree; _ } -> ignore (spanned ~op:i "ted.prep" (fun () -> Ted.preprocess tree))
      | _ -> ());
      let resp =
        replay_request ~op:i reqs.(i) (fun ~parent -> function
          | P.Query { tau; tree } ->
            let r = spanned ~parent ~op:i "core.query" (fun () -> Store.query ~tau store tree) in
            P.Hits { degraded = r.degraded; hits = r.hits; unverified = r.unverified }
          | P.Knn { k; tree } ->
            let h = spanned ~parent ~op:i "core.knn" (fun () -> Store.nearest ~k store tree) in
            P.Hits { degraded = false; hits = h; unverified = [] }
          | _ -> failwith "replay: unexpected request")
      in
      if not (answer_is expected.(i mod query_pool) (Ok resp)) then incr wrong;
      match reqs.(i) with
      | P.Query { tree; _ } ->
        let h = hits_of resp in
        incr queries;
        hits := !hits + List.length h;
        pairs := List.rev_append (List.map (fun (id, d) -> (tree, Store.tree store id, d)) h) !pairs
      | _ -> ()
    done;
    let kus, kwrong = kernel_us ~tau:read_tau (List.rev !pairs) in
    write_spans ();
    {
      attempted = n_ops;
      failed = failed + !wrong + kwrong;
      e2e = [];
      layers =
        [ "core.query_us", mean_us "core.query";
          "core.knn_us", mean_us "core.knn";
          "ted.prep_us", mean_us "ted.prep";
          "core.hits_per_query", ratio !hits !queries;
          "ted.kernel_us", kus ]
        @ wire_layers ~lat:ph.lat st;
      meta = meta @ [ "replayed", I n_replay ];
    }
  end

(* ---------------------------------------------------------------- *)
(* exact: pipelined QUERY tau=0, half of them copies of stored trees  *)

let exact_pool = 2000
let exact_window = 16

let run_exact () =
  let n_ops = ops_for ~rate:30000.0 ~floor:20000 in
  let preload, fresh =
    streams Profiles.swissprot ~parts:query_parts ~stored:(query_preload / query_parts)
      ~fresh:(exact_pool / 2 / query_parts)
  in
  let rng = Tsj_util.Prng.create (!seed + 1) in
  let pool =
    Array.init exact_pool (fun j ->
        if j mod 2 = 0 then Tsj_util.Prng.choice rng preload else fresh.(j / 2))
  in
  let reqs = Array.init n_ops (fun i -> P.Query { tau = 0; tree = pool.(i mod exact_pool) }) in
  let file = preload_file "preload.trees" preload in
  let expected =
    in_child "exact" (fun () ->
        let inc = Incremental.create ~tau:read_tau () in
        Array.iter (fun t -> ignore (Incremental.add inc t)) preload;
        Array.map (fun t -> (Incremental.query ~tau:0 inc t).hits) pool)
  in
  let args _ = [ "--tau"; string_of_int read_tau; "--preload"; file ] in
  let s, setup0 = served_setup "exact" args 0 in
  let ph, replies, setups = served_phase "exact" args s (pipelined ~window:exact_window) reqs in
  let setups = setup0 :: setups in
  let rss = vm_hwm_mb s.pid in
  let st = server_stats s in
  stop_server s;
  let ok = ref 0 in
  Array.iteri (fun i r -> if answer_is expected.(i mod exact_pool) r then incr ok) replies;
  (* Its tail is the pipeline's queueing hiccups, which do not follow the
     host's speed: over three sets of seeds, the raw p99 moved 8%
     between sets and the normalized one 18%. *)
  let e2e, meta = latency_metrics ~distinct:exact_pool ~raw:[ "tail_ms" ] ph ~setups ~rss ~ok:!ok in
  let failed = n_ops - !ok in
  if not !trace then { attempted = n_ops; failed; e2e; layers = []; meta }
  else begin
    let store = Result.get_ok (Store.open_ ~tau:read_tau ()) in
    Array.iter (fun t -> ignore (Store.add store t)) preload;
    let n_replay = min n_ops 10000 in
    let hits = ref 0 and pairs = ref [] and wrong = ref 0 in
    for i = 0 to n_replay - 1 do
      let resp =
        replay_request ~op:i reqs.(i) (fun ~parent -> function
          | P.Query { tau; tree } ->
            let r = spanned ~parent ~op:i "core.query" (fun () -> Store.query ~tau store tree) in
            P.Hits { degraded = r.degraded; hits = r.hits; unverified = r.unverified }
          | _ -> failwith "replay: unexpected request")
      in
      if not (answer_is expected.(i mod exact_pool) (Ok resp)) then incr wrong;
      let h = hits_of resp in
      hits := !hits + List.length h;
      if i < exact_pool then
        match reqs.(i) with
        | P.Query { tree; _ } ->
          pairs := List.rev_append (List.map (fun (id, d) -> (tree, Store.tree store id, d)) h) !pairs
        | _ -> ()
    done;
    let kus, kwrong = kernel_us ~tau:0 (List.rev !pairs) in
    write_spans ();
    {
      attempted = n_ops;
      failed = failed + !wrong + kwrong;
      e2e = [];
      layers =
        [ "core.query_us", mean_us "core.query";
          "core.hits_per_query", ratio !hits n_replay;
          "ted.kernel_us", kus ]
        @ wire_layers ~lat:ph.lat st;
      meta = meta @ [ "replayed", I n_replay ];
    }
  end

(* ---------------------------------------------------------------- *)
(* ingest: durable ADDs beside QUERY tau=2 (4:1), redundant profile   *)

let ingest_preload = 512
let adds_per_round = 4

let run_ingest () =
  let rounds = ops_for ~rate:120.0 ~floor:300 in
  let per = adds_per_round + 1 in
  let parts = 8 in
  let each = ((per * rounds) + parts - 1) / parts in
  let preload, fresh =
    streams Profiles.redundant ~parts ~stored:(ingest_preload / parts) ~fresh:each
  in
  (* The streams' fresh trees, interleaved: several independent sources
     writing at once. *)
  let stream = Array.init (per * rounds) (fun j -> fresh.(((j mod parts) * each) + (j / parts))) in
  let adds r = Array.init adds_per_round (fun k -> stream.((per * r) + k)) in
  let probe r = stream.((per * r) + adds_per_round) in
  let file = preload_file "preload.trees" preload in
  (* Expected partner lists and query hits per round, plus the index's
     candidate count per ADD. *)
  let expected, add_candidates =
    in_child "ingest" (fun () ->
        let inc = Incremental.create ~tau:read_tau () in
        Array.iter (fun t -> ignore (Incremental.add inc t)) preload;
        let c0, _ = Incremental.stats inc in
        let e =
          Array.init rounds (fun r ->
              let partners = Array.map (Incremental.add inc) (adds r) in
              (partners, (Incremental.query ~tau:read_tau inc (probe r)).hits))
        in
        let c1, _ = Incremental.stats inc in
        (e, ratio (c1 - c0) (adds_per_round * rounds)))
  in
  let args k =
    [ "--tau"; string_of_int read_tau; "--dir"; scratch (Printf.sprintf "ingest%d.d" k);
      "--preload"; file ]
  in
  let s, setup0 = served_setup "ingest" args 0 in
  let c = bin_connect s in
  let n_ops = per * rounds in
  let lat = Array.make n_ops 0.0 and starts = Array.make n_ops 0.0 in
  let ok = ref 0 in
  let replies = Array.make rounds ([||], Error "") in
  Gc.full_major ();
  (* Rounds [lo, hi); returns the active intervals. *)
  let piece lo hi =
    calibrate ();
    let cut, close = segments () in
    for r = lo to hi - 1 do
      let sent =
        Array.mapi
          (fun k tree ->
            starts.((per * r) + k) <- now ();
            (Client.Bin.send c (P.Add { seq = None; tree }), now ()))
          (adds r)
      in
      Client.Bin.flush c;
      let got = Array.make adds_per_round (Error "") in
      for _ = 1 to adds_per_round do
        match Client.Bin.recv c with
        | Error e -> failwith ("ingest recv: " ^ e)
        | Ok (id, resp) ->
          let k = ref 0 in
          while fst sent.(!k) <> id do incr k done;
          lat.((per * r) + !k) <- now () -. snd sent.(!k);
          got.(!k) <- Ok resp
      done;
      let t0 = now () in
      let q = Client.Bin.request c (P.Query { tau = read_tau; tree = probe r }) in
      lat.((per * r) + adds_per_round) <- now () -. t0;
      starts.((per * r) + adds_per_round) <- t0;
      replies.(r) <- (got, q);
      cut ()
    done;
    let segs = close () in
    calibrate ();
    segs
  in
  (* Its set-up is short (0.2 s), so it is sampled twice as often. *)
  let segs, setups =
    in_pieces ~per_piece:2 ~n:rounds ~setup:(served_setup "ingest" args) piece
  in
  let setups = setup0 :: setups in
  let ph = { lat; starts; segs = List.concat segs } in
  Client.Bin.close c;
  let rss = vm_hwm_mb s.pid in
  let st = server_stats s in
  stop_server s;
  Array.iteri
    (fun r (got, q) ->
      let partners, hits = expected.(r) in
      Array.iteri
        (fun k g ->
          match g with
          | Ok (P.Added { id; partners = p })
            when id = ingest_preload + (adds_per_round * r) + k && p = partners.(k) ->
            incr ok
          | _ -> ())
        got;
      if answer_is hits q then incr ok)
    replies;
  let e2e, meta = latency_metrics ph ~setups ~rss ~ok:!ok in
  let failed = n_ops - !ok in
  if not !trace then { attempted = n_ops; failed; e2e; layers = []; meta }
  else begin
    (* Replay the first rounds as the server's group commit does them:
       stage, journal, index — one batch per round. *)
    let dir = scratch "replay.d" in
    let store = Result.get_ok (Store.open_ ~dir ~tau:read_tau ()) in
    Array.iter (fun t -> ignore (Store.add store t)) preload;
    let journal_size () = (Unix.stat (Filename.concat dir "journal")).Unix.st_size in
    let bytes0 = journal_size () and fsyncs0 = Store.fsyncs store in
    let n_replay = min rounds 400 in
    let user_bytes = ref 0 and wrong = ref 0 and pairs = ref [] in
    for r = 0 to n_replay - 1 do
      let op = per * r in
      let items =
        Array.mapi
          (fun k tree ->
            user_bytes := !user_bytes + String.length (Bracket.to_string tree);
            match decode_framed ~op:(op + k) (P.Add { seq = None; tree }) with
            | P.Add { seq; tree } -> (seq, tree)
            | _ -> failwith "replay decode")
          (adds r)
      in
      let staged = spanned ~op "server.stage" (fun () -> Store.stage_batch store items) in
      (match spanned ~op "server.journal" (fun () -> Store.journal_staged store staged) with
      | Ok () -> ()
      | Error e -> failwith ("replay journal: " ^ e));
      let results = spanned ~op "server.index" (fun () -> Store.index_staged store staged) in
      let partners, hits = expected.(r) in
      Array.iteri
        (fun k res ->
          match res with
          | Ok (id, p) ->
            if p <> partners.(k) then incr wrong;
            pairs := List.rev_append (List.map (fun (j, d) -> (Store.tree store id, Store.tree store j, d)) p) !pairs;
            encode_reply ~op:(op + k) (P.Added { id; partners = p })
          | Error _ -> incr wrong)
        results;
      let resp =
        replay_request ~op:(op + adds_per_round)
          (P.Query { tau = read_tau; tree = probe r })
          (fun ~parent -> function
            | P.Query { tau; tree } ->
              let q = spanned ~parent ~op:(op + adds_per_round) "core.query" (fun () ->
                  Store.query ~tau store tree) in
              P.Hits { degraded = q.degraded; hits = q.hits; unverified = q.unverified }
            | _ -> failwith "replay: unexpected request")
      in
      if not (answer_is hits (Ok resp)) then incr wrong
    done;
    let bytes1 = journal_size () and fsyncs1 = Store.fsyncs store in
    Store.close store;
    let kus, kwrong = kernel_us ~tau:read_tau (take 2000 (List.rev !pairs)) in
    write_spans ();
    let query_lat = Array.init rounds (fun r -> lat.((per * r) + adds_per_round)) in
    {
      attempted = n_ops;
      failed = failed + !wrong + kwrong;
      e2e = [];
      layers =
        [ "server.stage_us", mean_us "server.stage";
          "server.journal_us", mean_us "server.journal";
          "server.index_us", mean_us "server.index";
          "server.fsyncs_per_add", ratio (fsyncs1 - fsyncs0) (adds_per_round * n_replay);
          "server.journal_bytes_per_user_byte", ratio (bytes1 - bytes0) !user_bytes;
          "core.add_candidates", add_candidates;
          "core.query_us", mean_us "core.query";
          "ted.kernel_us", kus ]
        @ wire_layers ~lat:query_lat st;
      meta = meta @ [ "replayed_rounds", I n_replay ];
    }
  end

let () =
  mkdir_p !run_dir;
  let o =
    try
      match !workload with
      | "join" -> run_join ()
      | "query" -> run_query ()
      | "ingest" -> run_ingest ()
      | "exact" -> run_exact ()
      | w -> failwith ("unknown workload " ^ w)
    with e ->
      log "failed: %s" (Printexc.to_string e);
      exit 2
  in
  emit o;
  exit (if o.failed = 0 then 0 else 1)
