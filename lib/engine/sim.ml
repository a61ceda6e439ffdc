(* Event records are pooled: a scheduled event is a slot in a set of
   parallel arrays (handler, payload, generation), and the handle returned
   to the caller is an immediate int packing (generation, slot). Firing
   or cancelling a slot bumps its generation and pushes it on a
   free-list stack, so steady-state scheduling recycles slots instead of
   allocating, and a stale handle (fired or cancelled event, possibly
   with the slot since reused) can never touch the wrong event: its
   packed generation no longer matches the slot's.

   Every event is a long-lived [int -> unit] handler plus an immediate
   int payload, so scheduling allocates nothing. Hot-path notes. [fns] is
   a pointer array, so every store pays a write barrier; schedule
   therefore skips the store when the slot already holds the handler
   (steady state reuses a slot for the same pre-bound handler, turning
   the store into a read + compare), and release scrubs nothing:
   retaining a long-lived handler or a stale int payload is harmless.
   The clock lives in a one-element float array: a mutable float field
   of a mixed record is a boxed pointer, so advancing it would allocate a
   fresh box per event, while a flat array stores the bits in place.
   Array indices are bounded by [t.fresh] (<= capacity of every pool
   array) or produced by [alloc_slot].

   The queue is the hierarchical timing wheel ({!Wheel}), which pops in
   exactly (time, seqno) order; test/test_equeue.ml checks that order
   against the binary heap ({!Heap}), its reference model. *)

type handle = int

(* Real handles are (gen lsl slot_bits) lor slot >= 0, so any negative
   value is inert; [cancel] rejects negatives explicitly. *)
let no_handle = -1

let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1

type stats = {
  scheduled : int;
  fired : int;
  cancelled : int;
  reused : int;
  pool_slots : int;
}

type t = {
  clock : float array; (* one element; flat storage, see header comment *)
  tbuf : float array; (* one element; carries event times to/from the queue *)
  queue : Wheel.t;
  mutable fns : (int -> unit) array;
  mutable iargs : int array;
  mutable gens : int array;
  mutable free : int array;  (* stack of recyclable slots *)
  mutable free_top : int;
  mutable fresh : int;  (* slots handed out so far *)
  mutable n_scheduled : int;
  mutable n_fired : int;
  mutable n_cancelled : int;
  mutable n_reused : int;
}

let create () =
  {
    clock = [| 0. |];
    tbuf = [| 0. |];
    queue = Wheel.create ();
    fns = Array.make 64 ignore;
    iargs = Array.make 64 0;
    gens = Array.make 64 0;
    free = Array.make 64 0;
    free_top = 0;
    fresh = 0;
    n_scheduled = 0;
    n_fired = 0;
    n_cancelled = 0;
    n_reused = 0;
  }

let[@zygos.hot] now t = t.clock.(0)

let clock_buffer t = t.clock

let key_buffer t = t.tbuf

let[@zygos.hot] grow_pool t =
  let cap = Array.length t.fns in
  if cap >= slot_mask + 1 then
    failwith "Sim: event pool exceeded 2^24 concurrent events";
  let new_cap = min (2 * cap) (slot_mask + 1) in
  (* amortized doubling: O(log n) growths over a run, zero steady-state *)
  let fns = (Array.make new_cap ignore [@zygos.allow "hot-alloc"]) in
  let iargs = (Array.make new_cap 0 [@zygos.allow "hot-alloc"]) in
  let gens = (Array.make new_cap 0 [@zygos.allow "hot-alloc"]) in
  let free = (Array.make new_cap 0 [@zygos.allow "hot-alloc"]) in
  Array.blit t.fns 0 fns 0 cap;
  Array.blit t.iargs 0 iargs 0 cap;
  Array.blit t.gens 0 gens 0 cap;
  Array.blit t.free 0 free 0 t.free_top;
  t.fns <- fns;
  t.iargs <- iargs;
  t.gens <- gens;
  t.free <- free

let[@zygos.hot] release_slot t slot =
  t.gens.(slot) <- t.gens.(slot) + 1;
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1

let[@zygos.hot] alloc_slot t =
  if t.free_top > 0 then begin
    t.free_top <- t.free_top - 1;
    t.n_reused <- t.n_reused + 1;
    t.free.(t.free_top)
  end
  else begin
    if t.fresh = Array.length t.fns then grow_pool t;
    let s = t.fresh in
    t.fresh <- s + 1;
    s
  end

(* The caller stored the absolute time in [t.tbuf] (see {!key_buffer}),
   which {!Wheel.add_key} reads in turn; no float crosses either call,
   so nothing boxes. [not (at >= now)] also rejects a NaN time, which
   would otherwise fire last and leave the clock NaN. *)
let[@zygos.hot] schedule_fn_keyed t fn iarg =
  if not (t.tbuf.(0) >= t.clock.(0)) then
    invalid_arg
      (Printf.sprintf "Sim.schedule_fn_keyed: at %g is in the past or NaN (now %g)"
         t.tbuf.(0) t.clock.(0));
  let slot = alloc_slot t in
  if t.fns.(slot) != fn then t.fns.(slot) <- fn;
  t.iargs.(slot) <- iarg;
  t.n_scheduled <- t.n_scheduled + 1;
  let h = (t.gens.(slot) lsl slot_bits) lor slot in
  Wheel.add_key t.queue t.tbuf h;
  h

let[@zygos.hot] cancel t h =
  let slot = h land slot_mask in
  let gen = h lsr slot_bits in
  (* [h >= 0] rejects [no_handle]; [slot < t.fresh] guards forged
     handles; past it, the (unchecked) access is in bounds. *)
  if h >= 0 && slot < t.fresh && t.gens.(slot) = gen then begin
    release_slot t slot;
    t.n_cancelled <- t.n_cancelled + 1
  end

let pending t = Wheel.length t.queue

let live t = t.n_scheduled - t.n_fired - t.n_cancelled

(* Fire the event behind [h] (whose time the pop left in [t.tbuf]), or
   skip it if its generation is stale (cancelled); returns whether a
   handler actually ran. The clock only advances on an actual fire, and
   is copied flat from [tbuf] before the handler runs (which may
   overwrite [tbuf] by scheduling). *)
let[@zygos.hot] fire t h =
  let slot = h land slot_mask in
  let gen = h lsr slot_bits in
  if t.gens.(slot) <> gen then false (* cancelled; slot recycled *)
  else begin
    (* read the handler and payload before releasing: the handler may
       reschedule into this very slot *)
    let fn = t.fns.(slot) and iarg = t.iargs.(slot) in
    release_slot t slot;
    t.n_fired <- t.n_fired + 1;
    t.clock.(0) <- t.tbuf.(0);
    (* dynamic dispatch: every registered handler is itself a certified
       [@zygos.hot] root, so the edge is deliberately cut here *)
    (fn iarg [@zygos.allow "r6"]);
    true
  end

let[@zygos.hot] step t =
  let fired = ref false in
  while (not !fired) && not (Wheel.is_empty t.queue) do
    fired := fire t (Wheel.pop_into t.queue t.tbuf)
  done;
  !fired

(* Stale (cancelled) pops need no retry here: the loop condition is
   queue emptiness, not "fired". *)
let run t =
  while not (Wheel.is_empty t.queue) do
    ignore (fire t (Wheel.pop_into t.queue t.tbuf) : bool)
  done

let stats t =
  {
    scheduled = t.n_scheduled;
    fired = t.n_fired;
    cancelled = t.n_cancelled;
    reused = t.n_reused;
    pool_slots = t.fresh;
  }
