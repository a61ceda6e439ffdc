(* One node per event. A scheduled event is a node in one
   structure-of-arrays pool: its time, sequence number, handler, payload,
   generation and next link sit at the same index of six parallel arrays,
   and the event queue (a hierarchical timing wheel) chains those same
   node indices. The handle returned to the caller is an immediate int
   packing (generation, node).

   Generations. A node's generation is odd while its event is pending.
   Scheduling makes it odd; firing or cancelling makes it even, so a
   stale handle (fired or cancelled event, possibly with the node since
   reused) can never touch the wrong event: its packed generation no
   longer matches the node's. Cancelling is O(1) and leaves the node
   where it is; the wheel frees it when it next reaches it (a drain or a
   cascade drops it instead of placing it, a pop skips it), so a
   cancelled event never fires and never moves the clock.

   The wheel. Simulated time (float µs) is quantized to integer ticks of
   1 µs (tick = floor time). The wheel has [levels] levels of [slots]
   buckets each; a level-l bucket spans 32^l ticks. A pending node lives
   in the bucket found by the highest base-32 digit in which its tick
   differs from the current tick [cur], and cascades one level down each
   time [cur] reaches its bucket. A per-level occupancy bitmap finds the
   next non-empty bucket in a few instructions.

   Order. A level-0 bucket can hold several distinct float times (all
   within the same microsecond), so when the wheel reaches one it moves
   its live nodes into the "ready run", an int array of node indices,
   and sorts it by (time, seq). Pops come from the run. An event
   scheduled at a tick already reached (tick <= cur, e.g. one at the
   current instant) is merge-inserted into the run at its (time, seq)
   position; every node still in a bucket has tick > cur and hence a
   time above everything in the run, so the run head is always the
   global minimum. Pops therefore come in exactly (time, seq) order,
   ties FIFO; test/test_equeue.ml checks it against the binary heap
   ({!Heap}), the reference model.

   Hot-path notes. Every event is a long-lived [int -> unit] handler plus
   an immediate int payload, so scheduling allocates nothing. [fns] is a
   pointer array, so every store pays a write barrier; schedule skips
   the store when the node already holds the handler (steady state
   reuses a node for the same pre-bound handler), and freeing scrubs
   nothing: retaining a long-lived handler or a stale payload is
   harmless. The clock lives in a one-element float array: a mutable
   float field of a mixed record is a boxed pointer, so advancing it
   would allocate a fresh box per event, while a flat array stores the
   bits in place. A freshly popped node is freed before its handler
   runs, so a handler that reschedules reuses it. The pool and the run
   grow together by doubling; the run never holds more nodes than the
   pool, so neither growth nor compaction happens in steady state.
   Array indices are bounded by [t.fresh] (<= every pool array's
   length) or by [t.run_len]. *)

type handle = int

(* Real handles are (gen lsl node_bits) lor node >= 0, so any negative
   value is inert; [cancel] rejects negatives explicitly. *)
let no_handle = -1

let node_bits = 24
let node_mask = (1 lsl node_bits) - 1

let slot_bits = 5
let slots = 1 lsl slot_bits (* 32: bucket bitmaps must fit an OCaml int *)
let slot_mask = slots - 1
let levels = 13 (* 32^13 ticks > 2^62: covers every representable tick *)
let nil = -1

let max_tick_float = float_of_int max_int

let[@zygos.hot] tick_of_time time =
  (* +infinity fails [time < max_tick_float] and clamps (NaN never gets here). *)
  if time < max_tick_float then int_of_float time else max_int

(* Count trailing zeros of a nonzero value < 2^32 (de Bruijn multiply). *)
let ctz_table =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let[@zygos.hot] ctz x = ctz_table.(((x land -x) * 0x077CB531) lsr 27 land 31)

type stats = {
  scheduled : int;
  fired : int;
  cancelled : int;
  reused : int;
  pool_slots : int;
}

type t = {
  clock : float array; (* one element; flat storage, see header comment *)
  tbuf : float array; (* one element; carries event times in *)
  (* the node pool *)
  mutable times : float array;
  mutable seqs : int array;
  mutable fns : (int -> unit) array;
  mutable iargs : int array;
  mutable gens : int array; (* odd while the node's event is pending *)
  mutable nexts : int array; (* bucket chain, or the free list *)
  mutable free : int; (* free-list head, [nil] = none *)
  mutable fresh : int; (* nodes handed out so far *)
  (* buckets: levels * slots entries, [nil] = empty *)
  heads : int array;
  tails : int array;
  maps : int array; (* per-level occupancy bitmaps *)
  mutable cur : int; (* current tick; every bucket node has tick > cur *)
  mutable wheel_count : int; (* nodes in buckets, cancelled ones included *)
  (* the sorted ready run: node indices [run_pos, run_len) *)
  mutable run : int array;
  mutable run_pos : int;
  mutable run_len : int;
  mutable n_scheduled : int; (* also the next sequence number *)
  mutable n_fired : int;
  mutable n_cancelled : int;
  mutable max_pending : int;
}

let create () =
  {
    clock = [| 0. |];
    tbuf = [| 0. |];
    times = Array.make 64 0.;
    seqs = Array.make 64 0;
    fns = Array.make 64 ignore;
    iargs = Array.make 64 0;
    gens = Array.make 64 0;
    nexts = Array.make 64 nil;
    free = nil;
    fresh = 0;
    heads = Array.make (levels * slots) nil;
    tails = Array.make (levels * slots) nil;
    maps = Array.make levels 0;
    cur = 0;
    wheel_count = 0;
    run = Array.make 64 0;
    run_pos = 0;
    run_len = 0;
    n_scheduled = 0;
    n_fired = 0;
    n_cancelled = 0;
    max_pending = 0;
  }

let[@zygos.hot] now t = t.clock.(0)

let clock_buffer t = t.clock

let key_buffer t = t.tbuf

(* ---- the node pool ---- *)

(* Amortized doubling: O(log n) growths over a run, none in steady state. *)
let[@zygos.hot] doubled a fill =
  let n = Array.length a in
  let b = (Array.make (2 * n) fill [@zygos.allow "hot-alloc"]) in
  Array.blit a 0 b 0 n;
  b

let[@zygos.hot] grow_pool t =
  if Array.length t.times > node_mask then
    failwith "Sim: event pool exceeded 2^24 queued events";
  t.times <- doubled t.times 0.;
  t.seqs <- doubled t.seqs 0;
  t.fns <- doubled t.fns ignore;
  t.iargs <- doubled t.iargs 0;
  t.gens <- doubled t.gens 0;
  t.nexts <- doubled t.nexts nil;
  t.run <- doubled t.run 0

let[@zygos.hot] alloc_node t =
  let n = t.free in
  if n <> nil then begin
    t.free <- t.nexts.(n);
    n
  end
  else begin
    if t.fresh = Array.length t.times then grow_pool t;
    let n = t.fresh in
    t.fresh <- n + 1;
    n
  end

let[@zygos.hot] free_node t n =
  t.nexts.(n) <- t.free;
  t.free <- n

(* ---- bucket placement ---- *)

(* Level of a node with [tick] relative to [cur]: the highest base-32
   digit in which they differ (0 when equal, for cascaded nodes landing
   exactly on [cur]). Short-horizon timers exit immediately. *)
let[@zygos.hot] level_of ~cur tick =
  let x = tick lxor cur in
  let l = ref 0 in
  while !l < levels - 1 && x >= 1 lsl (slot_bits * (!l + 1)) do
    incr l
  done;
  !l

let[@zygos.hot] place t n tick =
  let level = level_of ~cur:t.cur tick in
  let slot = (tick lsr (slot_bits * level)) land slot_mask in
  let b = (level lsl slot_bits) lor slot in
  let tail = t.tails.(b) in
  if tail = nil then begin
    t.heads.(b) <- n;
    t.maps.(level) <- t.maps.(level) lor (1 lsl slot)
  end
  else t.nexts.(tail) <- n;
  t.tails.(b) <- n;
  t.nexts.(n) <- nil

(* ---- the ready run ---- *)

(* Merge-insert node [n] at its (time, seq) position. Its seq is the
   largest queued, so it goes after every entry with an equal time: at
   the first index whose time is strictly greater. The run never holds
   more nodes than the pool, and [n] is not in it yet, so a full run
   has a popped prefix to compact away. *)
let[@zygos.hot] insert_into_run t n =
  let run = t.run and times = t.times in
  if t.run_len = Array.length run then begin
    let live = t.run_len - t.run_pos in
    Array.blit run t.run_pos run 0 live;
    t.run_pos <- 0;
    t.run_len <- live
  end;
  let time = times.(n) in
  let lo = ref t.run_pos and hi = ref t.run_len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if times.(run.(mid)) > time then hi := mid else lo := mid + 1
  done;
  let i = !lo in
  if i < t.run_len then Array.blit run i run (i + 1) (t.run_len - i);
  run.(i) <- n;
  t.run_len <- t.run_len + 1

(* Sort the run by (time, seq) in place. A drained tick holds few events
   (at most 67 over the figures and perfbench's workloads, on the 4-server
   rack; at most 36 on one server), where insertion sort is cheap and
   allocates nothing. Keys are unique (seqs), so the sort yields the one
   correct order. *)
let[@zygos.hot] sort_run t =
  let run = t.run and times = t.times and seqs = t.seqs in
  for i = 1 to t.run_len - 1 do
    let n = run.(i) in
    let tn = times.(n) and sn = seqs.(n) in
    let j = ref (i - 1) in
    while
      !j >= 0
      &&
      let m = run.(!j) in
      let tm = times.(m) in
      tm > tn || (tm = tn && seqs.(m) > sn)
    do
      run.(!j + 1) <- run.(!j);
      decr j
    done;
    run.(!j + 1) <- n
  done

(* ---- advancing ---- *)

(* Move level-0 bucket [slot]'s live nodes into the (empty) run and sort
   it; cancelled nodes go back to the pool. *)
let[@zygos.hot] drain_level0_slot t slot =
  let node = ref t.heads.(slot) in
  t.heads.(slot) <- nil;
  t.tails.(slot) <- nil;
  t.maps.(0) <- t.maps.(0) land lnot (1 lsl slot);
  let run = t.run and gens = t.gens and len = ref 0 in
  while !node <> nil do
    let n = !node in
    node := t.nexts.(n);
    t.wheel_count <- t.wheel_count - 1;
    if gens.(n) land 1 = 1 then begin
      run.(!len) <- n;
      incr len
    end
    else free_node t n
  done;
  t.run_pos <- 0;
  t.run_len <- !len;
  sort_run t

(* Pull the next non-empty higher-level bucket down: jump [cur] to the
   start of its span and re-place its live nodes (they land strictly
   below this level, or on level 0's current slot when their tick equals
   [cur]); cancelled nodes go back to the pool. Top-level rather than an
   inner [let rec]: an inner recursive function capturing [t] is a
   closure allocated on every cascade. *)
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
        if t.gens.(n) land 1 = 1 then place t n (tick_of_time t.times.(n))
        else begin
          t.wheel_count <- t.wheel_count - 1;
          free_node t n
        end
      done
    end
  end

(* Ensure the run holds the global minimum; false iff nothing is queued.
   Every bucket node has tick > cur, hence time >= tick > run times, so
   a non-empty run needs no advancing. *)
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
    else cascade_from t 1;
    ensure_run t
  end

(* ---- public ops ---- *)

(* The caller stored the absolute time in [t.tbuf] (see {!key_buffer}),
   so no float crosses the call and nothing boxes. [not (at >= now)]
   also rejects a NaN time, which would otherwise fire last and leave the
   clock NaN. *)
let[@zygos.hot] schedule_fn_keyed t fn iarg =
  let time = t.tbuf.(0) in
  if not (time >= t.clock.(0)) then
    invalid_arg
      (Printf.sprintf "Sim.schedule_fn_keyed: at %g is in the past or NaN (now %g)"
         t.tbuf.(0) t.clock.(0));
  let n = alloc_node t in
  if t.fns.(n) != fn then t.fns.(n) <- fn;
  t.iargs.(n) <- iarg;
  t.times.(n) <- time;
  let seq = t.n_scheduled in
  t.seqs.(n) <- seq;
  t.n_scheduled <- seq + 1;
  let pending = seq + 1 - t.n_fired - t.n_cancelled in
  if pending > t.max_pending then t.max_pending <- pending;
  let gen = t.gens.(n) + 1 in
  t.gens.(n) <- gen;
  let tick = tick_of_time time in
  if tick <= t.cur then insert_into_run t n
  else begin
    place t n tick;
    t.wheel_count <- t.wheel_count + 1
  end;
  (gen lsl node_bits) lor n

let[@zygos.hot] cancel t h =
  let n = h land node_mask in
  let gen = h lsr node_bits in
  (* [h >= 0] rejects [no_handle]; [n < t.fresh] guards forged handles;
     past it, the (unchecked) access is in bounds. An odd matching
     generation means the event is still pending. *)
  if h >= 0 && n < t.fresh && t.gens.(n) = gen && gen land 1 = 1 then begin
    t.gens.(n) <- gen + 1;
    t.n_cancelled <- t.n_cancelled + 1
  end

(* Pop the run's head and free its node, then fire it unless it was
   cancelled; returns whether a handler ran. The run must be non-empty.
   The clock only advances on an actual fire, and the handler and
   payload are read before the handler runs (it may reschedule into
   this very node). *)
let[@zygos.hot] fire_head t =
  let p = t.run_pos in
  let n = t.run.(p) in
  if p + 1 = t.run_len then begin
    t.run_pos <- 0;
    t.run_len <- 0
  end
  else t.run_pos <- p + 1;
  free_node t n;
  let gen = t.gens.(n) in
  if gen land 1 = 0 then false
  else begin
    let fn = t.fns.(n) and iarg = t.iargs.(n) in
    t.gens.(n) <- gen + 1;
    t.n_fired <- t.n_fired + 1;
    t.clock.(0) <- t.times.(n);
    (* dynamic dispatch: every registered handler is itself a certified
       [@zygos.hot] root, so the edge is deliberately cut here *)
    (fn iarg [@zygos.allow "r6"]);
    true
  end

(* The [t.run_pos < t.run_len || ...] guards repeat {!ensure_run}'s own
   fast path inline: [ensure_run] is recursive (so never inlined), and
   in steady state the run already holds the minimum. *)
let[@zygos.hot] step t =
  let fired = ref false in
  while (not !fired) && (t.run_pos < t.run_len || ensure_run t) do
    fired := fire_head t
  done;
  !fired

let run t =
  while t.run_pos < t.run_len || ensure_run t do
    ignore (fire_head t : bool)
  done

(* At each schedule the pending count is [scheduled - fired - cancelled],
   so [max_pending] is the most events pending at once: the node count
   a pool that reused a node the moment its event fired or was cancelled
   would reach. *)
let stats t =
  {
    scheduled = t.n_scheduled;
    fired = t.n_fired;
    cancelled = t.n_cancelled;
    reused = t.n_scheduled - t.max_pending;
    pool_slots = t.max_pending;
  }
