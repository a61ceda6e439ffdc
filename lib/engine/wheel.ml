(* Hierarchical timing wheel keyed by (time, sequence number).

   The event queue of the discrete-event simulator, optimized for the
   short-horizon timers the simulations are dominated by: O(1) add and
   amortized O(1) pop, against the binary heap's O(log n), while popping
   in exactly the heap's (time, seqno) order.

   Structure. Simulated time (float µs) is quantized to integer ticks of
   1 µs (tick = floor time). The wheel has [levels] levels of [slots]
   buckets each; a level-l bucket spans 32^l ticks, so level 0 resolves
   single microseconds and each level above coarsens by a power of two
   (2^5). A pending event lives in the bucket found by the highest base-32
   digit in which its tick differs from the current tick — the classic
   hierarchical placement rule — and cascades one level down each time the
   wheel's current position reaches its bucket.

   Ordering. A level-0 bucket can hold several distinct float times (all
   within the same microsecond), so FIFO-within-bucket alone cannot
   reproduce the heap's contract. Instead, when the wheel advances onto a
   level-0 bucket it drains the bucket into a flat "run" and sorts it by
   (time, seq) — exactly the heap's key — and pops come from the run.
   Adds whose tick has already been reached (tick <= cur, e.g. an action
   scheduling at the current instant) are merge-inserted into the run at
   their (time, seq) position; every event still in the wheel proper has
   tick > cur and hence time >= cur + 1, strictly above everything in the
   run, so the run head is always the global minimum. This makes the pop
   sequence bit-identical to the heap's for any add/pop interleaving.

   Memory. Events are nodes in a structure-of-arrays pool (time/seq/value/
   next) chained through int indices; buckets are (head, tail) index pairs
   and a per-level occupancy bitmap gives find-next-nonempty-bucket in a
   few instructions. Steady state allocates nothing: nodes recycle through
   a free list and the run reuses its scratch arrays. *)

let slot_bits = 5
let slots = 1 lsl slot_bits (* 32: bucket bitmaps must fit an OCaml int *)
let slot_mask = slots - 1
let levels = 13 (* 32^13 ticks > 2^62: covers every representable tick *)
let nil = -1

(* Ticks are clamped to max_int; [lsl]s below stay within 5*13 = 65 only
   through the level-bounded loops, never as a literal shift. *)
let max_tick = max_int

let max_tick_float = float_of_int max_tick

let[@zygos.hot] tick_of_time time =
  (* NaN and +infinity both fail [time < max_tick_float] and clamp. *)
  if time < max_tick_float then int_of_float time else max_tick

(* Count trailing zeros of a nonzero value < 2^32 (de Bruijn multiply). *)
let ctz_table =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let[@zygos.hot] ctz x = ctz_table.(((x land -x) * 0x077CB531) lsr 27 land 31)

type t = {
  (* node pool (SoA) *)
  mutable times : float array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable nexts : int array;
  mutable free : int; (* free-list head threaded through [nexts], [nil] = none *)
  mutable n_alloc : int; (* fresh nodes handed out so far *)
  (* buckets: levels * slots entries, [nil] = empty *)
  heads : int array;
  tails : int array;
  maps : int array; (* per-level occupancy bitmaps *)
  mutable cur : int; (* current tick; every wheel node has tick > cur *)
  mutable wheel_count : int; (* live nodes in buckets (run excluded) *)
  mutable next_seq : int;
  (* the sorted ready run: indices [run_pos, run_len) are live *)
  mutable run_times : float array;
  mutable run_seqs : int array;
  mutable run_vals : int array;
  mutable run_pos : int;
  mutable run_len : int;
}

let create () =
  {
    times = Array.make 64 0.;
    seqs = Array.make 64 0;
    vals = Array.make 64 0;
    nexts = Array.make 64 nil;
    free = nil;
    n_alloc = 0;
    heads = Array.make (levels * slots) nil;
    tails = Array.make (levels * slots) nil;
    maps = Array.make levels 0;
    cur = 0;
    wheel_count = 0;
    next_seq = 0;
    run_times = Array.make 16 0.;
    run_seqs = Array.make 16 0;
    run_vals = Array.make 16 0;
    run_pos = 0;
    run_len = 0;
  }

let[@zygos.hot] length t = t.wheel_count + (t.run_len - t.run_pos)

let[@zygos.hot] is_empty t = length t = 0

(* ---- node pool ---- *)

let[@zygos.hot] grow_pool t =
  let cap = Array.length t.times in
  let new_cap = 2 * cap in
  (* amortized doubling: O(log n) growths over a run, zero steady-state *)
  let times = (Array.make new_cap 0. [@zygos.allow "hot-alloc"]) in
  let seqs = (Array.make new_cap 0 [@zygos.allow "hot-alloc"]) in
  let vals = (Array.make new_cap 0 [@zygos.allow "hot-alloc"]) in
  let nexts = (Array.make new_cap nil [@zygos.allow "hot-alloc"]) in
  Array.blit t.times 0 times 0 cap;
  Array.blit t.seqs 0 seqs 0 cap;
  Array.blit t.vals 0 vals 0 cap;
  Array.blit t.nexts 0 nexts 0 cap;
  t.times <- times;
  t.seqs <- seqs;
  t.vals <- vals;
  t.nexts <- nexts

let[@zygos.hot] alloc_node t =
  if t.free <> nil then begin
    let n = t.free in
    t.free <- t.nexts.(n);
    n
  end
  else begin
    if t.n_alloc = Array.length t.times then grow_pool t;
    let n = t.n_alloc in
    t.n_alloc <- n + 1;
    n
  end

let[@zygos.hot] free_node t n =
  t.nexts.(n) <- t.free;
  t.free <- n

(* ---- bucket placement ---- *)

(* Level of a node with [tick] relative to [cur]: the highest base-32
   digit in which they differ (0 when equal, for redistributed nodes
   landing exactly on [cur]). Short-horizon timers exit immediately. *)
let[@zygos.hot] level_of ~cur tick =
  let x = tick lxor cur in
  let l = ref 0 in
  while !l < levels - 1 && x >= 1 lsl (slot_bits * (!l + 1)) do
    incr l
  done;
  !l

let[@zygos.hot] push_bucket t ~level ~slot node =
  let b = (level lsl slot_bits) lor slot in
  let tail = t.tails.(b) in
  if tail = nil then begin
    t.heads.(b) <- node;
    t.maps.(level) <- t.maps.(level) lor (1 lsl slot)
  end
  else t.nexts.(tail) <- node;
  t.tails.(b) <- node;
  t.nexts.(node) <- nil

let[@zygos.hot] place t node =
  let tick = tick_of_time t.times.(node) in
  let level = level_of ~cur:t.cur tick in
  let slot = (tick lsr (slot_bits * level)) land slot_mask in
  push_bucket t ~level ~slot node

(* ---- the sorted run ---- *)

let[@zygos.hot] grow_run t =
  let cap = Array.length t.run_times in
  let new_cap = 2 * cap in
  (* amortized doubling: O(log n) growths over a run, zero steady-state *)
  let times = (Array.make new_cap 0. [@zygos.allow "hot-alloc"]) in
  let seqs = (Array.make new_cap 0 [@zygos.allow "hot-alloc"]) in
  let vals = (Array.make new_cap 0 [@zygos.allow "hot-alloc"]) in
  Array.blit t.run_times 0 times 0 t.run_len;
  Array.blit t.run_seqs 0 seqs 0 t.run_len;
  Array.blit t.run_vals 0 vals 0 t.run_len;
  t.run_times <- times;
  t.run_seqs <- seqs;
  t.run_vals <- vals

let[@zygos.hot] run_make_room t =
  if t.run_len = Array.length t.run_times then
    if t.run_pos > 0 then begin
      (* compact: discard popped prefix *)
      let live = t.run_len - t.run_pos in
      Array.blit t.run_times t.run_pos t.run_times 0 live;
      Array.blit t.run_seqs t.run_pos t.run_seqs 0 live;
      Array.blit t.run_vals t.run_pos t.run_vals 0 live;
      t.run_pos <- 0;
      t.run_len <- live
    end
    else grow_run t

(* Merge-insert at the (time, seq) position. The new seq is the largest
   live one, so the slot is after every entry with an equal time: first
   index whose time is strictly greater. The time arrives in [buf.(0)],
   like [add_key]'s, so this call boxes no float. *)
let[@zygos.hot] insert_into_run t buf ~seq v =
  let time = buf.(0) in
  run_make_room t;
  let lo = ref t.run_pos and hi = ref t.run_len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.run_times.(mid) > time then hi := mid else lo := mid + 1
  done;
  let i = !lo in
  let n = t.run_len - i in
  if n > 0 then begin
    Array.blit t.run_times i t.run_times (i + 1) n;
    Array.blit t.run_seqs i t.run_seqs (i + 1) n;
    Array.blit t.run_vals i t.run_vals (i + 1) n
  end;
  t.run_times.(i) <- time;
  t.run_seqs.(i) <- seq;
  t.run_vals.(i) <- v;
  t.run_len <- t.run_len + 1

(* Sort run[lo, hi) by (time, seq) in place: insertion sort for the small
   buckets steady state produces, parallel-array heapsort for pathological
   ones (thousands of events inside one microsecond). Keys are unique
   (seqs), so any comparison sort yields the one correct order. *)
(* Annotations matter: without them these generalize to polymorphic
   compare over ['a array], which boxes every float read. *)
let lt (times : float array) (seqs : int array) i j =
  let ti = times.(i) and tj = times.(j) in
  ti < tj || (ti = tj && seqs.(i) < seqs.(j))

let swap3 (times : float array) (seqs : int array) (vals : int array) i j =
  let tt = times.(i) and ss = seqs.(i) and vv = vals.(i) in
  times.(i) <- times.(j);
  seqs.(i) <- seqs.(j);
  vals.(i) <- vals.(j);
  times.(j) <- tt;
  seqs.(j) <- ss;
  vals.(j) <- vv

let heapsort_run times seqs vals lo hi =
  let n = hi - lo in
  let sift root size =
    let r = ref root in
    let continue = ref true in
    while !continue do
      let child = (2 * !r) + 1 in
      if child >= size then continue := false
      else begin
        let child =
          if child + 1 < size && lt times seqs (lo + child) (lo + child + 1) then child + 1
          else child
        in
        if lt times seqs (lo + !r) (lo + child) then begin
          swap3 times seqs vals (lo + !r) (lo + child);
          r := child
        end
        else continue := false
      end
    done
  in
  for root = (n / 2) - 1 downto 0 do
    sift root n
  done;
  for last = n - 1 downto 1 do
    swap3 times seqs vals lo (lo + last);
    sift 0 last
  done

let[@zygos.hot] sort_run t lo hi =
  (* heapsort is the pathological-bucket fallback (thousands of events in
     one tick); steady state takes the inline insertion sort below *)
  if hi - lo > 32 then
    (heapsort_run t.run_times t.run_seqs t.run_vals lo hi [@zygos.allow "r6"])
  else begin
    let times = t.run_times and seqs = t.run_seqs and vals = t.run_vals in
    for i = lo + 1 to hi - 1 do
      let tt = times.(i) and ss = seqs.(i) and vv = vals.(i) in
      let j = ref (i - 1) in
      while
        !j >= lo
        &&
        let tj = times.(!j) in
        tj > tt || (tj = tt && seqs.(!j) > ss)
      do
        times.(!j + 1) <- times.(!j);
        seqs.(!j + 1) <- seqs.(!j);
        vals.(!j + 1) <- vals.(!j);
        decr j
      done;
      times.(!j + 1) <- tt;
      seqs.(!j + 1) <- ss;
      vals.(!j + 1) <- vv
    done
  end

(* ---- advancing ---- *)

let[@zygos.hot] drain_level0_slot t slot =
  let b = slot in
  let node = ref t.heads.(b) in
  t.heads.(b) <- nil;
  t.tails.(b) <- nil;
  t.maps.(0) <- t.maps.(0) land lnot (1 lsl slot);
  (* run is empty here: reuse it from index 0 *)
  t.run_pos <- 0;
  t.run_len <- 0;
  while !node <> nil do
    if t.run_len = Array.length t.run_times then grow_run t;
    let n = !node in
    let i = t.run_len in
    t.run_times.(i) <- t.times.(n);
    t.run_seqs.(i) <- t.seqs.(n);
    t.run_vals.(i) <- t.vals.(n);
    t.run_len <- i + 1;
    t.wheel_count <- t.wheel_count - 1;
    node := t.nexts.(n);
    free_node t n
  done;
  sort_run t 0 t.run_len

(* Pull the next-nonempty higher-level bucket down: jump [cur] to the
   start of its span and re-place its nodes (they land strictly below this
   level, or on level 0's current slot when their tick equals [cur]). *)
(* Top-level rather than an inner [let rec] of [cascade]: an inner
   recursive function capturing [t] is a closure allocated on every
   cascade, which the advance path cannot afford. *)
let[@zygos.hot] rec cascade_from t l =
  if l >= levels then assert false (* wheel_count > 0 guarantees a bucket *)
  else begin
    let dl = (t.cur lsr (slot_bits * l)) land slot_mask in
    let m = t.maps.(l) lsr dl in
    if m = 0 then cascade_from t (l + 1)
    else begin
      let slot = dl + ctz m in
      let shift = slot_bits * l in
      t.cur <- ((t.cur lsr (shift + slot_bits)) lsl (shift + slot_bits)) lor (slot lsl shift);
      let b = (l lsl slot_bits) lor slot in
      let node = ref t.heads.(b) in
      t.heads.(b) <- nil;
      t.tails.(b) <- nil;
      t.maps.(l) <- t.maps.(l) land lnot (1 lsl slot);
      while !node <> nil do
        let n = !node in
        node := t.nexts.(n);
        place t n
      done
    end
  end

let[@zygos.hot] cascade t = cascade_from t 1

(* Ensure the run holds the global minimum; false iff the queue is empty.
   Every wheel node has tick > cur, hence time >= tick > run times, so a
   non-empty run needs no advancing. *)
let[@zygos.hot] rec ensure_run t =
  if t.run_pos < t.run_len then true
  else if t.wheel_count = 0 then false
  else begin
    let d0 = t.cur land slot_mask in
    let m = t.maps.(0) lsr d0 in
    if m <> 0 then begin
      let slot = d0 + ctz m in
      t.cur <- (t.cur land lnot slot_mask) lor slot;
      drain_level0_slot t slot
    end
    else cascade t;
    ensure_run t
  end

(* ---- public ops ---- *)

(* The key arrives in [buf.(0)] rather than as a float argument (see
   {!Heap.add_key}: floats crossing a call are boxed at the caller, flat
   array hand-off is not). *)
let[@zygos.hot] add_key t buf v =
  let time = buf.(0) in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let tick = tick_of_time time in
  if tick <= t.cur then insert_into_run t buf ~seq v
  else begin
    let node = alloc_node t in
    t.times.(node) <- time;
    t.seqs.(node) <- seq;
    t.vals.(node) <- v;
    let level = level_of ~cur:t.cur tick in
    let slot = (tick lsr (slot_bits * level)) land slot_mask in
    push_bucket t ~level ~slot node;
    t.wheel_count <- t.wheel_count + 1
  end

(* Remove the minimum, writing its time into [buf.(0)] (flat store, no
   boxed-float return) and returning its payload; -1 when empty. The
   simulator's step loop pops through this. The [t.run_pos < t.run_len
   || ...] guard repeats {!ensure_run}'s own fast path inline:
   [ensure_run] is recursive (so never inlined), and in steady state the
   run already holds the minimum, making the call pure overhead on
   every pop. *)
let[@zygos.hot] pop_into t buf =
  if t.run_pos < t.run_len || ensure_run t then begin
    let p = t.run_pos in
    buf.(0) <- t.run_times.(p);
    let v = t.run_vals.(p) in
    let p1 = p + 1 in
    if p1 = t.run_len then begin
      t.run_pos <- 0;
      t.run_len <- 0
    end
    else t.run_pos <- p1;
    v
  end
  else -1
