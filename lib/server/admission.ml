(* Overload-control primitives: token buckets, retry budgets, log-bucket
   latency histograms, deadline arithmetic.  See admission.mli. *)

module Token_bucket = struct
  type t = {
    rate : float;
    burst : float;
    mutable tokens : float;
    mutable last : float;
  }

  let create ~rate ~burst ~now =
    if rate <= 0.0 || Float.is_nan rate then
      invalid_arg "Token_bucket.create: rate must be > 0";
    if burst < 1 then invalid_arg "Token_bucket.create: burst must be >= 1";
    let burst = float_of_int burst in
    { rate; burst; tokens = burst; last = now }

  let refill t ~now =
    let dt = now -. t.last in
    if dt > 0.0 then begin
      t.tokens <- Float.min t.burst (t.tokens +. (dt *. t.rate));
      t.last <- now
    end

  let take t ~now =
    refill t ~now;
    if t.tokens >= 1.0 then begin
      t.tokens <- t.tokens -. 1.0;
      true
    end
    else false

  let retry_after_s t ~now =
    refill t ~now;
    if t.tokens >= 1.0 then 0.0 else (1.0 -. t.tokens) /. t.rate

  let level t ~now =
    refill t ~now;
    t.tokens
end

module Retry_budget = struct
  type t = { ratio : float; cap : float; mutable tokens : float }

  let create ?(ratio = 0.1) ?(cap = 10.0) () =
    if ratio < 0.0 || Float.is_nan ratio then
      invalid_arg "Retry_budget.create: ratio must be >= 0";
    if cap < 1.0 then invalid_arg "Retry_budget.create: cap must be >= 1";
    { ratio; cap; tokens = cap }

  let on_success t = t.tokens <- Float.min t.cap (t.tokens +. t.ratio)

  let try_retry t =
    if t.tokens >= 1.0 then begin
      t.tokens <- t.tokens -. 1.0;
      true
    end
    else false

  let level t = t.tokens
end

module Histogram = struct
  (* Bucket [i] counts samples whose microsecond value lies in
     [2^i, 2^(i+1)); bucket 0 also absorbs 0 and 1 us.  48 buckets cover
     anything below ~8.9 years. *)
  let buckets = 48

  type t = int Atomic.t array

  let create () : t = Array.init buckets (fun _ -> Atomic.make 0)

  let bucket_of_us us =
    if us <= 1 then 0
    else begin
      let rec msb acc v = if v <= 1 then acc else msb (acc + 1) (v lsr 1) in
      min (buckets - 1) (msb 0 us)
    end

  let record (t : t) ~seconds =
    let s = if Float.is_nan seconds || seconds < 0.0 then 0.0 else seconds in
    let us =
      if s >= 1e12 then max_int else int_of_float (Float.round (s *. 1e6))
    in
    Atomic.incr t.(bucket_of_us us)

  let count (t : t) = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t

  let quantile_us (t : t) p =
    let p = if Float.is_nan p then 0.5 else Float.min 1.0 (Float.max 0.0 p) in
    let total = count t in
    if total = 0 then 0
    else begin
      let rank =
        max 1 (min total (int_of_float (Float.ceil (p *. float_of_int total))))
      in
      let rec walk i cum =
        if i >= buckets then max 1 (1 lsl (buckets - 1))
        else begin
          let cum = cum + Atomic.get t.(i) in
          if cum >= rank then max 1 (1 lsl i) else walk (i + 1) cum
        end
      in
      walk 0 0
    end
end

module Deadline = struct
  (* About 49.7 days: far beyond any real deadline, and small enough
     that a budget always fits 32 bits and converts to seconds exactly. *)
  let max_ms = 0xFFFF_FFFE

  let clamp ms = if ms < 0 then 0 else if ms > max_ms then max_ms else ms

  let after_hop ?(margin_ms = 0) ~elapsed_ms ms =
    clamp (clamp ms - max 0 elapsed_ms - max 0 margin_ms)

  let of_span_s s =
    if Float.is_nan s || s <= 0.0 then 0
    else if s >= 4.0e6 then max_ms
    else clamp (int_of_float (Float.ceil (s *. 1000.0)))

  let to_span_s ms = float_of_int (clamp ms) /. 1000.0
end
