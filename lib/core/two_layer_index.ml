module Binary_tree = Tsj_tree.Binary_tree
module Label = Tsj_tree.Label

type mode = Start_window | Paper_rank | Label_only

(* Packs (size band, position bucket, root label) 21 bits apart and
   adds the twig slots, each times an odd constant, so two twigs that
   differ in one slot never share a key.  Wider fields overlap and
   collide, which the postings' exact fields make harmless. *)
let key ~band ~bucket ~label ~left ~right =
  (((band lsl 21) + bucket) lsl 21) + label + (left * 0x1E3779B97F4A7C15)
  + (right * 0x2545F4914F6CDD1D)

(* Mix the key: an (ε, ε) twig leaves the packed key's low bits to the
   root label.  With an identity hash, probing 2,000 swissprot trees
   took ~15x longer (2-vCPU host).  SplitMix64's finalizer, constants
   cut to 63 bits: a bijection, so distinct keys never share a hash. *)
let[@inline] mix k =
  let k = (k lxor (k lsr 30)) * 0x3F58476D1CE4E5B9 in
  let k = (k lxor (k lsr 27)) * 0x14D049BB133111EB in
  k lxor (k lsr 31)

(* --- the key table --------------------------------------------------- *)

(* An int -> int map (key -> head posting) by extendible hashing: a
   directory indexed by the hash's low [depth] bits points at buckets,
   each a small open-addressed table of [slots] (key, head) pairs probed
   linearly from the hash's bit 40 on.  A bucket splits in two when it
   reaches [max_fill] keys, and the directory doubles when the bucket
   was already as deep as it.  So the table grows a bucket at a time,
   without a capacity step and without copying the table.  A bucket is
   [2 * slots + 2] = 66 words: OCaml 5 allocates blocks of up to 128
   words from size-class pools, and larger ones one by one; with
   130-word buckets and 192- and 256-word chunks perfbench [join] peaked
   at 91.9 MB instead of 87.1 (2 runs each, 2-vCPU host).

   Most lookups of a probe miss, and a bucket is a cache miss, so a
   presence filter sits in front: one bit per hash value modulo its
   length, 32 to 64 bits per key, rebuilt at twice the length when the
   keys outgrow it.  A clear bit answers a lookup without touching the
   buckets.  At 8 to 16 bits per key, 84% of the lookups that passed
   the filter on perfbench's first [join] collection found no key. *)

let slots = 32
let max_fill = 24 (* keys per bucket before it splits *)
let depth_at = 2 * slots (* the bucket's local depth *)
let fill_at = depth_at + 1 (* its key count *)

type table = {
  mutable dir : int array array;
  mutable depth : int; (* global depth: the directory has 2^depth entries *)
  mutable keys : int;
  mutable filter : Bytes.t;
}

let[@inline] filter_index filter h = (h lsr 17) land ((8 * Bytes.length filter) - 1)

let[@inline] may_hold filter h =
  let i = filter_index filter h in
  Char.code (Bytes.get filter (i lsr 3)) land (1 lsl (i land 7)) <> 0

let mark filter h =
  let i = filter_index filter h in
  let c = Char.code (Bytes.get filter (i lsr 3)) in
  Bytes.set filter (i lsr 3) (Char.chr (c lor (1 lsl (i land 7))))

let new_bucket depth =
  let b = Array.make (fill_at + 1) (-1) in
  b.(depth_at) <- depth;
  b.(fill_at) <- 0;
  b

let table () =
  { dir = [| new_bucket 0 |]; depth = 0; keys = 0; filter = Bytes.make 256 '\000' }

(* Rebuilds the filter at twice its length from every bucket, each met
   once: at the first directory entry that reaches it. *)
let refilter tbl =
  let filter = Bytes.make (2 * Bytes.length tbl.filter) '\000' in
  Array.iteri
    (fun j b ->
      if j < 1 lsl b.(depth_at) then
        for i = 0 to slots - 1 do
          if b.((2 * i) + 1) >= 0 then mark filter (mix b.(2 * i))
        done)
    tbl.dir;
  tbl.filter <- filter

let bucket tbl h = tbl.dir.(h land ((1 lsl tbl.depth) - 1))

(* The index in bucket [b] of the slot that holds [k], or of the empty
   slot where [k] goes.  A head is a posting index, never negative, so
   a head of -1 marks an empty slot. *)
let slot_in b k h =
  let i = ref ((h lsr 40) land (slots - 1)) in
  while b.((2 * !i) + 1) >= 0 && b.(2 * !i) <> k do
    i := (!i + 1) land (slots - 1)
  done;
  2 * !i

(* The head stored for [k], or -1.  A probe does ~250 lookups for ~5
   postings, so [walk], [find], [mix] and the filter test are inlined
   into each lookup: as calls (at ~600 lookups a probe), the probes of
   perfbench [query]'s 9,000 trees took 11.9-12.3 µs each against
   9.2-9.6 (7 of 8 interleaved pairs, 2-vCPU host). *)
let[@inline] find tbl k =
  let h = mix k in
  if not (may_hold tbl.filter h) then -1
  else begin
    let b = bucket tbl h in
    b.(slot_in b k h + 1)
  end

(* Stores [k -> v] in bucket [b], which has room for it. *)
let put b k v h =
  let at = slot_in b k h in
  b.(fill_at) <- b.(fill_at) + 1;
  b.(at) <- k;
  b.(at + 1) <- v

(* Splits the bucket that hash [h] reaches by the hash bit just above
   its local depth: the keys with that bit clear stay, the others move
   to a new bucket.  The bucket is refilled from a copy that dies young,
   so a split leaves no garbage in the major heap (allocating both
   halves afresh, perfbench [join] peaked at 87.1 MB instead of 83.4). *)
let split tbl h =
  let b = bucket tbl h in
  let d = b.(depth_at) in
  if d = tbl.depth then begin
    tbl.dir <- Array.append tbl.dir tbl.dir;
    tbl.depth <- tbl.depth + 1
  end;
  let entries = Array.sub b 0 (2 * slots) in
  Array.fill b 0 (2 * slots) (-1);
  b.(depth_at) <- d + 1;
  b.(fill_at) <- 0;
  let b1 = new_bucket (d + 1) in
  for i = 0 to slots - 1 do
    if entries.((2 * i) + 1) >= 0 then begin
      let k = entries.(2 * i) in
      let hk = mix k in
      put (if (hk lsr d) land 1 = 0 then b else b1) k entries.((2 * i) + 1) hk
    end
  done;
  let j = ref ((h land ((1 lsl d) - 1)) + (1 lsl d)) in
  while !j < 1 lsl tbl.depth do
    tbl.dir.(!j) <- b1;
    j := !j + (1 lsl (d + 1))
  done

(* Sets the head of [k] to [v]; returns the previous head, or -1 when
   [k] was absent. *)
let rec exchange tbl k v =
  let h = mix k in
  let b = bucket tbl h in
  let at = slot_in b k h in
  let old = b.(at + 1) in
  if old >= 0 then b.(at + 1) <- v
  else if b.(fill_at) >= max_fill then begin
    split tbl h;
    ignore (exchange tbl k v)
  end
  else begin
    put b k v h;
    tbl.keys <- tbl.keys + 1;
    if 4 * tbl.keys > Bytes.length tbl.filter then refilter tbl;
    mark tbl.filter h
  end;
  old

(* --- postings and subgraph slots -------------------------------------- *)

(* Postings are (window, subgraph slot, next posting) int triples and
   slots (size, root label, left slot, right slot) quadruples, both in
   chunks of [chunk] entries (96 and 128 words); the slot's subgraph
   sits in a parallel chunk of pointers.  Chunk [c] of a pool holds
   entries [c * chunk] to [(c + 1) * chunk - 1]. *)
let chunk_bits = 5
let chunk = 1 lsl chunk_bits

type t = {
  tau : int;
  mode : mode;
  chains : table; (* (band, bucket, root label, twig) -> newest posting *)
  bands : table; (* the size bands with indexed subgraphs *)
  len_bits : int; (* a window's length field, wide enough for 2τ *)
  mutable shapes : int; (* bit [shape left right] of each indexed twig *)
  mutable postings : int array array;
  mutable n_postings : int;
  mutable fields : int array array;
  mutable subs : Subgraph.t array array;
  mutable count : int; (* subgraphs inserted = slots used *)
}

let rec bits n = if n = 0 then 0 else 1 + bits (n lsr 1)

let create ?(mode = Start_window) ~tau () =
  if tau < 0 then invalid_arg "Two_layer_index.create: negative threshold";
  {
    tau;
    mode;
    chains = table ();
    bands = table ();
    len_bits = bits (2 * tau);
    shapes = 0;
    postings = [||];
    n_postings = 0;
    fields = [||];
    subs = [||];
    count = 0;
  }

(* Stores [fresh] as the chunk of entry [n], the first of its chunk,
   growing the chunk directory when it is full. *)
let extend dir n fresh =
  let c = n lsr chunk_bits in
  let dir =
    if c < Array.length dir then dir
    else begin
      let grown = Array.make (max 4 (2 * c)) [||] in
      Array.blit dir 0 grown 0 c;
      grown
    end
  in
  dir.(c) <- fresh;
  dir

let add_slot t (s : Subgraph.t) ~label ~left ~right =
  let slot = t.count in
  if slot land (chunk - 1) = 0 then begin
    t.fields <- extend t.fields slot (Array.make (4 * chunk) 0);
    t.subs <- extend t.subs slot (Array.make chunk s)
  end;
  let fs = t.fields.(slot lsr chunk_bits) and o = 4 * (slot land (chunk - 1)) in
  fs.(o) <- s.Subgraph.tree_size;
  fs.(o + 1) <- label;
  fs.(o + 2) <- left;
  fs.(o + 3) <- right;
  t.subs.(slot lsr chunk_bits).(slot land (chunk - 1)) <- s;
  t.count <- slot + 1

(* Pushes a posting for [slot] with [window] onto the chain of key [k]. *)
let add_posting t k ~window ~slot =
  let p = t.n_postings in
  if p land (chunk - 1) = 0 then
    t.postings <- extend t.postings p (Array.make (3 * chunk) 0);
  let chain = t.postings.(p lsr chunk_bits) and o = 3 * (p land (chunk - 1)) in
  chain.(o) <- window;
  chain.(o + 1) <- slot;
  chain.(o + 2) <- exchange t.chains k p;
  t.n_postings <- p + 1

(* A size band spans 2τ + 1 sizes, so the size window [[n - τ, n + τ]]
   of a query meets at most two bands.  At τ + 1 sizes it met two or
   three, and perfbench's first [join] collection did 18% more lookups.
   A position bucket has the same width, so a window of at most 2τ + 1
   positions meets at most two buckets. *)
let[@inline] band_width t = (2 * t.tau) + 1

(* A twig's shape: which of its slots are set.  One bit of [t.shapes]
   each, so a probe skips the twig variants that no subgraph has. *)
let[@inline] shape ~left ~right =
  1 lsl (Bool.to_int (left <> Label.epsilon) + (2 * Bool.to_int (right <> Label.epsilon)))

(* Registers the subgraph in every bucket that its window [[c - h,
   c + h]] meets, with the window clipped to that bucket, packed as
   (first position, length).  Clipped windows of one subgraph are
   disjoint, so a node reaches it through one posting at most, even
   when the keys of two buckets share a chain. *)
let insert t (s : Subgraph.t) =
  let slot = t.count in
  let label, left, right = Subgraph.label_key s in
  add_slot t s ~label ~left ~right;
  t.shapes <- t.shapes lor shape ~left ~right;
  let w = band_width t in
  let band = s.Subgraph.tree_size / w in
  let c, h =
    match t.mode with
    | Start_window ->
      (* Over a script of at most τ insert/delete/relabel operations,
         the postorder number of an untouched subgraph's image shifts
         by the number of node insertions and deletions placed before
         it, which is at most τ. *)
      (s.Subgraph.root_gpost, t.tau)
    | Paper_rank ->
      (* The paper's postorder pruning (Section 3.4): Δ' = τ - ⌊k/2⌋
         keyed by subgraph rank k.  Read end-relative, which is the
         interpretation consistent with the paper's proof sketch ("∆
         operations change the size of N_k by at most ∆").  NOT
         guaranteed complete: the fallback argument ("an earlier
         subgraph will be selected instead") does not cover operations
         that touch an early subgraph through a bridging edge while
         their node sits late — see the test suite.  Provided for
         ablation against the sound default. *)
      (s.Subgraph.tree_size - 1 - s.Subgraph.root_gpost, t.tau - (s.Subgraph.rank / 2))
    | Label_only ->
      (* Ablation: no postorder layer at all — every subgraph sits at
         position 0 and only the twig keys select. *)
      (0, 0)
  in
  let lo = max 0 (c - h) and hi = c + h in
  if lo <= hi then
    for bucket = lo / w to hi / w do
      let first = max lo (bucket * w) in
      let window = (first lsl t.len_bits) lor (min hi ((bucket * w) + w - 1) - first) in
      add_posting t (key ~band ~bucket ~label ~left ~right) ~window ~slot
    done;
  ignore (exchange t.bands band 0)

let n_subgraphs t = t.count

let n_groups t = t.chains.keys

(* Precomputed per-node twig labels of a probed tree.  Probing runs the
   same tree over every size band of a window — recomputing the twig of
   node [v] for every lookup showed up in join profiles.  A cursor
   computes all of them once. *)
type cursor = {
  c_l : int array;
  c_ll : int array; (* left-child label, ε when absent *)
  c_lr : int array;
  c_gpost : int array; (* shared with the source tree, not copied *)
  c_size : int;
}

let cursor (target : Binary_tree.t) =
  let { Binary_tree.size = n; label; left; right; gpost; _ } = target in
  let c_ll = Array.make n Label.epsilon and c_lr = Array.make n Label.epsilon in
  for v = 0 to n - 1 do
    if left.(v) >= 0 then c_ll.(v) <- label.(left.(v));
    if right.(v) >= 0 then c_lr.(v) <- label.(right.(v))
  done;
  { c_l = label (* shared, read-only *); c_ll; c_lr; c_gpost = gpost; c_size = n }

(* Calls [f sub v] on the chain from posting [p] for the postings
   whose window holds [pos], whose root label is [label], whose size is
   in [[lo, hi]] and whose twig slots are each ε or equal to the node's
   child label ([ll], [lr]). *)
let rec visit t ~lo ~hi ~pos label ll lr v f p =
  if p >= 0 then begin
    let chain = t.postings.(p lsr chunk_bits) and o = 3 * (p land (chunk - 1)) in
    let window = chain.(o) in
    let d = pos - (window lsr t.len_bits) in
    if d >= 0 && d <= window land ((1 lsl t.len_bits) - 1) then begin
      let slot = chain.(o + 1) in
      let c = slot lsr chunk_bits and fo = 4 * (slot land (chunk - 1)) in
      let fs = t.fields.(c) in
      let size = fs.(fo) in
      if
        lo <= size && size <= hi
        && fs.(fo + 1) = label
        && (fs.(fo + 2) = Label.epsilon || fs.(fo + 2) = ll)
        && (fs.(fo + 3) = Label.epsilon || fs.(fo + 3) = lr)
      then f t.subs.(c).(slot land (chunk - 1)) v
    end;
    visit t ~lo ~hi ~pos label ll lr v f chain.(o + 2)
  end

let[@inline] walk t k ~lo ~hi ~pos label ll lr v f =
  let p = find t.chains k in
  if p >= 0 then visit t ~lo ~hi ~pos label ll lr v f p

(* Walks the chains of node [v]'s twig variants (ll, lr), (ll, ε),
   (ε, lr), (ε, ε) in this band and in the bucket of position [pos],
   each distinct key once, and only the variants whose shape some
   indexed subgraph has.  A posting [visit] keeps has slots each ε or
   [v]'s child label, so its key is the variant of its own shape: a
   skipped variant holds none.  A side with no child makes two variants
   equal, and two variants whose keys collide share one chain, which
   [visit]'s twig check reads for both. *)
let scan t ~band ~lo ~hi ~pos (cur : cursor) v f =
  let label = cur.c_l.(v) and ll = cur.c_ll.(v) and lr = cur.c_lr.(v) in
  let e = Label.epsilon and bucket = pos / band_width t in
  let k1 = key ~band ~bucket ~label ~left:ll ~right:lr in
  let k2 = key ~band ~bucket ~label ~left:ll ~right:e in
  let k3 = key ~band ~bucket ~label ~left:e ~right:lr in
  let k4 = key ~band ~bucket ~label ~left:e ~right:e in
  let w1 = t.shapes land shape ~left:ll ~right:lr <> 0 in
  let w2 = t.shapes land shape ~left:ll ~right:e <> 0 && not (w1 && k2 = k1) in
  let w3 =
    t.shapes land shape ~left:e ~right:lr <> 0
    && not ((w1 && k3 = k1) || (w2 && k3 = k2))
  in
  let w4 =
    t.shapes land 1 <> 0 && not ((w1 && k4 = k1) || (w2 && k4 = k2) || (w3 && k4 = k3))
  in
  if w1 then walk t k1 ~lo ~hi ~pos label ll lr v f;
  if w2 then walk t k2 ~lo ~hi ~pos label ll lr v f;
  if w3 then walk t k3 ~lo ~hi ~pos label ll lr v f;
  if w4 then walk t k4 ~lo ~hi ~pos label ll lr v f

let probe t (cur : cursor) ~lo ~hi f =
  let w = band_width t and lo = max 1 lo in
  for band = lo / w to hi / w do
    let lo = max lo (band * w) and hi = min hi ((band * w) + w - 1) in
    if lo <= hi && find t.bands band >= 0 then
      for v = 0 to cur.c_size - 1 do
        let pos =
          match t.mode with
          | Start_window -> cur.c_gpost.(v)
          | Paper_rank -> cur.c_size - 1 - cur.c_gpost.(v)
          | Label_only -> 0
        in
        scan t ~band ~lo ~hi ~pos cur v f
      done
  done
