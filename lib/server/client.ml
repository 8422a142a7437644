module Prng = Tsj_util.Prng

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

(* A request written to a server that already hung up must surface as
   EPIPE (an [Error] from {!request}) — never as a process-killing
   SIGPIPE.  Not available on Windows, hence the guard. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let connect ?timeout_s addr =
  ignore_sigpipe ();
  let sock_addr, domain =
    match addr with
    | Protocol.Unix_path path -> (Unix.ADDR_UNIX path, Unix.PF_UNIX)
    | Protocol.Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      (Unix.ADDR_INET (inet, port), Unix.PF_INET)
  in
  match Unix.socket domain Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
    (match timeout_s with
    | Some s when s > 0.0 ->
      (* Socket-level timeouts so a hung server cannot hang the client:
         a late reply surfaces as a transport error and the retry layer
         takes over. *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
    | _ -> ());
    match Unix.connect fd sock_addr with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "connect %s: %s" (Protocol.addr_to_string addr)
           (Unix.error_message e))
    | () ->
      Ok { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd })

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let channels t = (t.ic, t.oc)

let fd t = t.fd

let request t ?deadline_ms req =
  match
    output_string t.oc (Protocol.render_request_d ?deadline_ms req);
    output_char t.oc '\n';
    flush t.oc;
    input_line t.ic
  with
  | exception End_of_file -> Error "connection closed by server"
  | exception Sys_error msg -> Error msg
  | exception Sys_blocked_io -> Error "receive timeout"
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | line -> Protocol.parse_response line

(* Full-jitter exponential backoff: attempt [i] sleeps a uniform draw
   from [cap/2, cap] with cap = base * 2^i clamped to [max_delay_s].
   The jitter source is an explicit SplitMix64 state and the sleep is
   injectable, so tests replay the exact schedule deterministically. *)
let backoff_delay ~base_delay_s ~max_delay_s ~rng attempt =
  let cap = Float.min max_delay_s (base_delay_s *. Float.pow 2.0 (float_of_int attempt)) in
  cap *. (0.5 +. 0.5 *. Prng.float rng)

(* A [deadline_s] caps the total wall-clock time spent waiting between
   attempts: each sleep is clamped to the time remaining, and once the
   deadline has passed the last result is returned instead of retrying
   further.  [now] is injectable so tests drive the clock.  A [budget]
   gates every retry (successes fund it, see {!Admission.Retry_budget});
   [delay_floor] is re-read before each sleep so a BUSY retry-after
   hint can raise the next delay without touching the backoff state. *)
let with_retries ?(attempts = 4) ?(base_delay_s = 0.05) ?(max_delay_s = 2.0)
    ?(sleep = Unix.sleepf) ?deadline_s ?(now = Tsj_util.Timer.now) ?budget
    ?(delay_floor = fun () -> 0.0) ~rng f =
  if attempts < 1 then invalid_arg "Client.with_retries: attempts must be >= 1";
  let t0 = now () in
  let remaining () =
    match deadline_s with None -> infinity | Some d -> d -. (now () -. t0)
  in
  let rec go attempt =
    match f () with
    | Ok _ as r ->
      (match budget with
      | Some b -> Admission.Retry_budget.on_success b
      | None -> ());
      r
    | Error _ as e ->
      if attempt + 1 >= attempts then e
      else if
        match budget with
        | Some b -> not (Admission.Retry_budget.try_retry b)
        | None -> false
      then e
      else begin
        let delay =
          Float.max (delay_floor ())
            (backoff_delay ~base_delay_s ~max_delay_s ~rng attempt)
        in
        let left = remaining () in
        if left <= 0.0 then e
        else begin
          sleep (Float.min delay left);
          go (attempt + 1)
        end
      end
  in
  go 0

(* One-shot request with reconnect-and-retry.  [BUSY] counts as a
   retryable failure (the shedding server asked us to back off), but is
   returned as-is once attempts are exhausted rather than masked as an
   error.  A BUSY retry-after hint floors the next backoff sleep; a
   [deadline_ms] is re-derived before every attempt (entry budget minus
   wall clock spent so far), so the server sees a monotonically
   shrinking remaining budget across retries. *)
let request_with_retries ?attempts ?base_delay_s ?max_delay_s ?sleep ?deadline_s ?now
    ?timeout_s ?budget ?deadline_ms ~rng addr req =
  let now_fn = match now with Some f -> f | None -> Tsj_util.Timer.now in
  let t0 = now_fn () in
  let send_deadline () =
    match deadline_ms with
    | None -> None
    | Some ms ->
      let elapsed_ms = Admission.Deadline.of_span_s (now_fn () -. t0) in
      Some (Admission.Deadline.after_hop ~elapsed_ms ms)
  in
  let last_busy = ref false in
  let last_hint = ref None in
  let result =
    with_retries ?attempts ?base_delay_s ?max_delay_s ?sleep ?deadline_s ?now ?budget
      ~delay_floor:(fun () ->
        match !last_hint with
        | Some ms -> Admission.Deadline.to_span_s ms
        | None -> 0.0)
      ~rng
      (fun () ->
        last_busy := false;
        last_hint := None;
        match connect ?timeout_s addr with
        | Error _ as e -> e
        | Ok conn ->
          let r = request conn ?deadline_ms:(send_deadline ()) req in
          close conn;
          (match r with
          | Ok (Protocol.Busy { retry_after_ms }) ->
            last_busy := true;
            last_hint := retry_after_ms;
            Error "busy"
          | _ -> r))
  in
  match result with
  | Error _ when !last_busy -> Ok (Protocol.Busy { retry_after_ms = !last_hint })
  | r -> r

(* --- failover across a server list --- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

module Failover = struct
  type nonrec t = {
    servers : Protocol.addr array;
    mutable current : int;
    timeout_s : float option;
    attempts : int;
    base_delay_s : float;
    max_delay_s : float;
    deadline_s : float option;
    sleep : float -> unit;
    now : unit -> float;
    rng : Prng.t;
  }

  let create ?(attempts = 8) ?(base_delay_s = 0.02) ?(max_delay_s = 1.0)
      ?(sleep = Unix.sleepf) ?deadline_s ?(now = Tsj_util.Timer.now) ?timeout_s ~rng
      servers =
    if servers = [] then invalid_arg "Client.Failover.create: empty server list";
    {
      servers = Array.of_list servers;
      current = 0;
      timeout_s;
      attempts;
      base_delay_s;
      max_delay_s;
      deadline_s;
      sleep;
      now;
      rng;
    }

  let current t = t.servers.(t.current)

  let rotate t = t.current <- (t.current + 1) mod Array.length t.servers

  (* A bounded-staleness redirect names the primary: jump straight to it
     when it is in our server list, otherwise just rotate. *)
  let follow_redirect t addr =
    let found = ref false in
    Array.iteri
      (fun i a ->
        if (not !found) && Protocol.addr_to_string a = addr then begin
          t.current <- i;
          found := true
        end)
      t.servers;
    if not !found then rotate t

  (* Replies that mean "this server cannot take the request, another
     one might": a fenced (demoted or never-primary) node, admission
     shedding, and a drain in progress. *)
  let retryable = function
    | Protocol.Fenced _ | Protocol.Busy _ -> true
    | Protocol.Err reason -> contains ~sub:"draining" reason
    | _ -> false

  let request t ?deadline_ms req =
    let t0 = t.now () in
    let remaining () =
      match t.deadline_s with None -> infinity | Some d -> d -. (t.now () -. t0)
    in
    (* Re-derived before every attempt: the budget announced to each
       server shrinks by the wall clock already burned on earlier
       attempts and backoff sleeps. *)
    let send_deadline () =
      match deadline_ms with
      | None -> None
      | Some ms ->
        let elapsed_ms = Admission.Deadline.of_span_s (t.now () -. t0) in
        Some (Admission.Deadline.after_hop ~elapsed_ms ms)
    in
    (* [attempt] bounds the total tries; [backoff] is the exponent of
       the next delay and is tracked separately so it can RESET once a
       rotation reaches a server that answers at all.  A well-formed
       reply — even FENCED or BUSY — is proof the cluster is back:
       probing the remaining servers at the accumulated max-backoff
       cadence would make a recovered cluster look seconds slower than
       it is.  Only transport failures keep growing the exponent. *)
    let rec go attempt backoff =
      let result =
        match connect ?timeout_s:t.timeout_s (current t) with
        | Error _ as e -> e
        | Ok conn ->
          let r = request conn ?deadline_ms:(send_deadline ()) req in
          close conn;
          r
      in
      let retry ~backoff last =
        if attempt + 1 >= t.attempts then last
        else begin
          rotate t;
          let floor_s =
            match result with
            | Ok (Protocol.Busy { retry_after_ms = Some ms }) ->
              Admission.Deadline.to_span_s ms
            | _ -> 0.0
          in
          let delay =
            Float.max floor_s
              (backoff_delay ~base_delay_s:t.base_delay_s
                 ~max_delay_s:t.max_delay_s ~rng:t.rng backoff)
          in
          let left = remaining () in
          if left <= 0.0 then last
          else begin
            t.sleep (Float.min delay left);
            go (attempt + 1) (backoff + 1)
          end
        end
      in
      match result with
      | Error _ as e -> retry ~backoff e
      | Ok (Protocol.Redirect addr) ->
        (* No backoff: the redirect names a live primary.  Attempts and
           the deadline still bound the chase. *)
        if attempt + 1 >= t.attempts || remaining () <= 0.0 then result
        else begin
          follow_redirect t addr;
          go (attempt + 1) 0
        end
      | Ok resp when retryable resp -> retry ~backoff:0 result
      | r -> r
    in
    go 0 0

  (* The safe-retry ADD of the idempotency contract: learn the next
     sequence number from the server's STATS, attach it, and keep
     retrying {e with the same seq} across transport failures and
     failovers — the store's seq-skip answers duplicates, and a seq
     bound to a different tree (a competing writer, or a stale read
     from a lagging replica) refetches and tries again.  A missed quorum
     also retries the same seq, after a backoff: the primary has already
     journaled the tree there, and a fresh seq would add it twice. *)
  let add ?(seq_retries = 4) t tree =
    let rec go tries =
      if tries <= 0 then Error "ADD: seq negotiation attempts exhausted"
      else
        match request t Protocol.Stats with
        | Error _ as e -> e
        | Ok (Protocol.Stats_reply s) -> send s.trees tries
        | Ok other -> Ok other
    and send seq tries =
      match request t (Protocol.Add { seq = Some seq; tree }) with
      | Ok (Protocol.Err reason)
        when contains ~sub:"already bound" reason || contains ~sub:"seq gap" reason ->
        go (tries - 1)
      | Ok (Protocol.Err reason) when tries > 1 && contains ~sub:"quorum not reached" reason
        ->
        t.sleep
          (backoff_delay ~base_delay_s:t.base_delay_s ~max_delay_s:t.max_delay_s
             ~rng:t.rng (seq_retries - tries));
        send seq (tries - 1)
      | r -> r
    in
    go seq_retries
end

(* --- binary protocol client --- *)

module Bin = struct
  type conn = t

  type nonrec t = { conn : conn; mutable next_id : int }

  (* Negotiate the binary protocol on a fresh text connection: one
     [HELLO BIN <v>] line each way, then frames. *)
  let handshake conn =
    match
      output_string conn.oc (Protocol.Binary.hello Protocol.Binary.version);
      output_char conn.oc '\n';
      flush conn.oc;
      input_line conn.ic
    with
    | exception End_of_file -> Error "connection closed during HELLO"
    | exception Sys_error msg -> Error msg
    | exception Sys_blocked_io -> Error "receive timeout"
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | line -> (
      match Protocol.parse_response line with
      | Ok (Protocol.Hello_reply v) when v = Protocol.Binary.version -> Ok ()
      | Ok r -> Error ("unexpected HELLO reply: " ^ Protocol.render_response r)
      | Error msg -> Error msg)

  let connect ?timeout_s addr =
    match connect ?timeout_s addr with
    | Error m -> Error m
    | Ok conn -> (
      match handshake conn with
      | Error e ->
        close conn;
        Error e
      | Ok () -> Ok { conn; next_id = 0 })

  let close t = close t.conn

  (* Queue one request frame (buffered; {!flush} pushes the batch).
     Returns the request id its reply will carry. *)
  let send t ?max_lag ?deadline_ms req =
    let id = t.next_id in
    t.next_id <- id + 1;
    let b = Buffer.create 64 in
    Protocol.Binary.encode_request b ~id ?max_lag ?deadline_ms req;
    output_string t.conn.oc (Buffer.contents b);
    id

  let flush t = flush t.conn.oc

  (* Read exactly one reply frame: [(id, response)].  Replies to
     pipelined requests arrive in whatever order they finished. *)
  let recv t =
    match
      let hdr = really_input_string t.conn.ic 4 in
      let flen = Protocol.Binary.get_u32 hdr 0 in
      if flen < 5 then failwith "malformed frame from server"
      else begin
        let rest = really_input_string t.conn.ic flen in
        (Protocol.Binary.get_u32 rest 0, Char.code rest.[4], String.sub rest 5 (flen - 5))
      end
    with
    | exception End_of_file -> Error "connection closed by server"
    | exception Sys_error msg -> Error msg
    | exception Sys_blocked_io -> Error "receive timeout"
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | exception Failure msg -> Error msg
    | id, op, body -> (
      match Protocol.Binary.decode_response ~op ~body with
      | Ok resp -> Ok (id, resp)
      | Error _ as e -> e)

  (* Lock-step round trip; replies to other outstanding pipelined
     requests are discarded while waiting. *)
  let request t ?max_lag ?deadline_ms req =
    let id = send t ?max_lag ?deadline_ms req in
    flush t;
    let rec await () =
      match recv t with
      | Error _ as e -> e
      | Ok (rid, resp) when rid = id -> Ok resp
      | Ok _ -> await ()
    in
    await ()
end
