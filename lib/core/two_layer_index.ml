module Binary_tree = Tsj_tree.Binary_tree
module Label = Tsj_tree.Label

type mode = Two_sided | Paper_rank | Label_only

(* Packs (tree size, position, root label) 21 bits apart; wider fields
   overlap and collide, which the postings' exact fields make harmless. *)
let key ~size ~pos ~label = (((size lsl 21) + pos) lsl 21) + label

(* Mix the key: the packed key's low bits are the root label's.  With an
   identity hash, probing 2,000 swissprot trees took ~15x longer (2-vCPU
   host).  SplitMix64's finalizer, constants cut to 63 bits: a bijection,
   so distinct keys never share a hash. *)
let mix k =
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

   Most lookups of a probe miss (~610 lookups return ~5 postings on the
   swissprot [query] preload), and a bucket is a cache miss, so a
   presence filter sits in front: one bit per hash value modulo its
   length, 8 to 16 bits per key, rebuilt at twice the length when the
   keys outgrow it.  A clear bit answers a lookup without touching the
   buckets. *)

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

let filter_index filter h = (h lsr 17) land ((8 * Bytes.length filter) - 1)

let may_hold filter h =
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
  { dir = [| new_bucket 0 |]; depth = 0; keys = 0; filter = Bytes.make 64 '\000' }

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

(* The head stored for [k], or -1. *)
let find tbl k =
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
    if tbl.keys > Bytes.length tbl.filter then refilter tbl;
    mark tbl.filter h
  end;
  old

(* --- postings and subgraph slots -------------------------------------- *)

(* Postings are (position, subgraph slot, next posting) int triples and
   slots (size, root label, left slot, right slot) quadruples, both in
   chunks of [chunk] entries (96 and 128 words); the slot's subgraph
   sits in a parallel chunk of pointers.  Chunk [c] of a pool holds
   entries [c * chunk] to [(c + 1) * chunk - 1]. *)
let chunk_bits = 5
let chunk = 1 lsl chunk_bits

type t = {
  tau : int;
  mode : mode;
  by_start : table; (* position: general postorder number *)
  by_end : table; (* position: size - 1 - general postorder *)
  sizes : table; (* the tree sizes with indexed subgraphs *)
  mutable postings : int array array;
  mutable n_postings : int;
  mutable fields : int array array;
  mutable subs : Subgraph.t array array;
  mutable count : int; (* subgraphs inserted = slots used *)
}

let create ?(mode = Two_sided) ~tau () =
  if tau < 0 then invalid_arg "Two_layer_index.create: negative threshold";
  {
    tau;
    mode;
    by_start = table ();
    by_end = table ();
    sizes = table ();
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

let add_slot t (s : Subgraph.t) =
  let slot = t.count in
  if slot land (chunk - 1) = 0 then begin
    t.fields <- extend t.fields slot (Array.make (4 * chunk) 0);
    t.subs <- extend t.subs slot (Array.make chunk s)
  end;
  let label, left, right = Subgraph.label_key s in
  let fs = t.fields.(slot lsr chunk_bits) and o = 4 * (slot land (chunk - 1)) in
  fs.(o) <- s.Subgraph.tree_size;
  fs.(o + 1) <- label;
  fs.(o + 2) <- left;
  fs.(o + 3) <- right;
  t.subs.(slot lsr chunk_bits).(slot land (chunk - 1)) <- s;
  t.count <- slot + 1;
  label

(* Pushes a posting for [slot] at [pos] onto the chain of key [k]. *)
let add_posting t tbl k ~pos ~slot =
  let p = t.n_postings in
  if p land (chunk - 1) = 0 then
    t.postings <- extend t.postings p (Array.make (3 * chunk) 0);
  let chain = t.postings.(p lsr chunk_bits) and o = 3 * (p land (chunk - 1)) in
  chain.(o) <- pos;
  chain.(o + 1) <- slot;
  chain.(o + 2) <- exchange tbl k p;
  t.n_postings <- p + 1

let insert t (s : Subgraph.t) =
  let slot = t.count in
  let label = add_slot t s in
  let size = s.Subgraph.tree_size in
  let add tbl pos = add_posting t tbl (key ~size ~pos ~label) ~pos ~slot in
  let add_window tbl center half =
    for pos = max 0 (center - half) to center + half do
      add tbl pos
    done
  in
  let pk = s.Subgraph.root_gpost in
  let qk = size - 1 - pk in
  (match t.mode with
  | Two_sided ->
    (* Over a script of lambda <= tau insert/delete operations, the
       postorder number of an untouched subgraph's image shifts by the
       number of node insertions/deletions positioned before it, and its
       end-relative position by the number positioned after it.  The two
       shift budgets sum to <= tau, so one of them is <= tau/2: register
       the subgraph under both coordinates with half windows and probe
       both tables. *)
    let half = t.tau / 2 in
    add_window t.by_start pk half;
    add_window t.by_end qk half
  | Paper_rank ->
    (* The paper's postorder pruning (Section 3.4): Δ' = τ - ⌊k/2⌋ keyed by
       subgraph rank k.  Read end-relative, which is the interpretation
       consistent with the paper's proof sketch ("∆ operations change the
       size of N_k by at most ∆").  NOT guaranteed complete: the fallback
       argument ("an earlier subgraph will be selected instead") does not
       cover operations that touch an early subgraph through a bridging
       edge while their node sits late — see the test suite.  Provided for
       ablation against the sound default. *)
    add_window t.by_end qk (t.tau - (s.Subgraph.rank / 2))
  | Label_only ->
    (* Ablation: no postorder layer at all — every subgraph of a size
       sits at position 0 and only the twig keys select. *)
    add t.by_start 0);
  ignore (exchange t.sizes size 0)

let n_subgraphs t = t.count

let n_groups t = t.by_start.keys + t.by_end.keys

(* Precomputed per-node twig labels of a probed tree.  Probing runs the
   same tree over every size of a window and up to two coordinates —
   recomputing the twig of node [v] for every lookup showed up in join
   profiles.  A cursor computes all of them once. *)
type cursor = {
  c_l : int array;
  c_ll : int array; (* left-child label, ε when absent *)
  c_lr : int array;
  c_gpost : int array; (* shared with the source tree, not copied *)
  c_size : int;
}

let cursor (target : Binary_tree.t) =
  let n = target.Binary_tree.size in
  let label = target.Binary_tree.label in
  let child lane v =
    match lane.(v) with
    | -1 -> Label.epsilon
    | c -> label.(c)
  in
  {
    c_l = label; (* shared, read-only *)
    c_ll = Array.init n (child target.Binary_tree.left);
    c_lr = Array.init n (child target.Binary_tree.right);
    c_gpost = target.Binary_tree.gpost;
    c_size = n;
  }

(* Calls [f sub v] on the chain from posting [p] for the postings whose
   exact fields are (size, pos, label) and whose twig slots are each ε
   or equal to the node's child label ([ll], [lr]). *)
let rec visit t ~size ~pos label ll lr v f p =
  if p >= 0 then begin
    let chain = t.postings.(p lsr chunk_bits) and o = 3 * (p land (chunk - 1)) in
    if chain.(o) = pos then begin
      let slot = chain.(o + 1) in
      let c = slot lsr chunk_bits and fo = 4 * (slot land (chunk - 1)) in
      let fs = t.fields.(c) in
      if
        fs.(fo) = size
        && fs.(fo + 1) = label
        && (fs.(fo + 2) = Label.epsilon || fs.(fo + 2) = ll)
        && (fs.(fo + 3) = Label.epsilon || fs.(fo + 3) = lr)
      then f t.subs.(c).(slot land (chunk - 1)) v
    end;
    visit t ~size ~pos label ll lr v f chain.(o + 2)
  end

let scan t tbl ~size ~pos (cur : cursor) v f =
  let label = cur.c_l.(v) in
  let p = find tbl (key ~size ~pos ~label) in
  if p >= 0 then visit t ~size ~pos label cur.c_ll.(v) cur.c_lr.(v) v f p

let probe t (cur : cursor) ~lo ~hi f =
  for size = max 1 lo to hi do
    if find t.sizes size >= 0 then
      for v = 0 to cur.c_size - 1 do
        match t.mode with
        | Label_only -> scan t t.by_start ~size ~pos:0 cur v f
        | Two_sided ->
          let p = cur.c_gpost.(v) in
          scan t t.by_start ~size ~pos:p cur v f;
          scan t t.by_end ~size ~pos:(cur.c_size - 1 - p) cur v f
        | Paper_rank ->
          scan t t.by_end ~size ~pos:(cur.c_size - 1 - cur.c_gpost.(v)) cur v f
      done
  done
