(* Event records are pooled: a scheduled event is a slot in a set of
   parallel arrays (action + generation), and the handle returned to the
   caller is an immediate int packing (generation, slot). Firing or
   cancelling a slot bumps its generation and pushes it on a free-list
   stack, so steady-state scheduling recycles slots instead of allocating,
   and a stale handle (fired or cancelled event, possibly with the slot
   since reused) can never touch the wrong event: its packed generation no
   longer matches the slot's.

   Dispatch comes in two flavours per slot, one per schedule call: a
   closure ([actions], [schedule_after]) or a long-lived function plus
   an immediate int payload ([fns]/[iargs], [schedule_fn_keyed]). The
   closure path allocates the closure per schedule; the fn path
   allocates nothing, which is what every hot call site uses. A slot is
   a fn-slot iff its [fns] entry is not the [noop_fn] sentinel
   (physical equality).

   Hot-path notes. Both [actions] and [fns] are pointer arrays, so every
   store pays a write barrier; schedule and release therefore skip stores
   whose value is already in place (steady state reuses a slot for the
   same pre-bound fn, turning the store into a read + compare). Only
   closure slots are scrubbed on release — retaining a top-level fn or a
   stale int payload is harmless, retaining a closure is a space leak.
   The clock lives in a one-element float array: a mutable float field of
   a mixed record is a boxed pointer, so advancing it would allocate a
   fresh box per event, while a flat array stores the bits in place.
   Unsafe array accesses are confined to indices bounded by [t.fresh]
   (<= capacity of every pool array) or produced by [alloc_slot].

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
  live : int;
}

let noop () = ()

(* Sentinel for "this slot dispatches through [actions]"; compared with
   physical equality, so user fns are never misread as the sentinel. *)
let noop_fn (_ : int) = ()

type t = {
  clock : float array; (* one element; flat storage, see header comment *)
  tbuf : float array; (* one element; carries event times to/from the queue *)
  queue : Wheel.t;
  mutable actions : (unit -> unit) array;
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
    actions = Array.make 64 noop;
    fns = Array.make 64 noop_fn;
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
  let cap = Array.length t.actions in
  if cap >= slot_mask + 1 then
    failwith "Sim: event pool exceeded 2^24 concurrent events";
  let new_cap = min (2 * cap) (slot_mask + 1) in
  (* amortized doubling: O(log n) growths over a run, zero steady-state *)
  let actions = (Array.make new_cap noop [@zygos.allow "hot-alloc"]) in
  let fns = (Array.make new_cap noop_fn [@zygos.allow "hot-alloc"]) in
  let iargs = (Array.make new_cap 0 [@zygos.allow "hot-alloc"]) in
  let gens = (Array.make new_cap 0 [@zygos.allow "hot-alloc"]) in
  let free = (Array.make new_cap 0 [@zygos.allow "hot-alloc"]) in
  Array.blit t.actions 0 actions 0 cap;
  Array.blit t.fns 0 fns 0 cap;
  Array.blit t.iargs 0 iargs 0 cap;
  Array.blit t.gens 0 gens 0 cap;
  Array.blit t.free 0 free 0 t.free_top;
  t.actions <- actions;
  t.fns <- fns;
  t.iargs <- iargs;
  t.gens <- gens;
  t.free <- free

(* Scrub only what can leak: a closure slot drops its closure; a fn slot
   keeps its (top-level, long-lived) fn and int payload, so releasing it
   writes nothing through the barrier. *)
let[@zygos.hot] release_slot t slot =
  t.gens.(slot) <- t.gens.(slot) + 1;
  if t.actions.(slot) != noop then t.actions.(slot) <- noop;
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1

let[@zygos.hot] alloc_slot t =
  if t.free_top > 0 then begin
    t.free_top <- t.free_top - 1;
    t.n_reused <- t.n_reused + 1;
    t.free.(t.free_top)
  end
  else begin
    if t.fresh = Array.length t.actions then grow_pool t;
    let s = t.fresh in
    t.fresh <- s + 1;
    s
  end

(* The cold path's schedule: it allocates the closure its caller builds
   and boxes [delay] at the call. *)
let schedule_after t ~delay action =
  if delay < 0. then invalid_arg "Sim.schedule_after: negative delay";
  t.tbuf.(0) <- t.clock.(0) +. delay;
  let slot = alloc_slot t in
  if t.actions.(slot) != action then t.actions.(slot) <- action;
  if t.fns.(slot) != noop_fn then t.fns.(slot) <- noop_fn;
  t.n_scheduled <- t.n_scheduled + 1;
  let h = (t.gens.(slot) lsl slot_bits) lor slot in
  Wheel.add_key t.queue t.tbuf h;
  h

(* The hot path's schedule: the caller stored the absolute time in
   [t.tbuf] (see {!key_buffer}), which {!Wheel.add_key} reads in turn;
   no float crosses either call, so nothing boxes. *)
let[@zygos.hot] schedule_fn_keyed t fn iarg =
  if t.tbuf.(0) < t.clock.(0) then
    invalid_arg
      (Printf.sprintf "Sim.schedule_fn_keyed: at %g is in the past (now %g)"
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
  (* [h >= 0] rejects [no_handle]; [slot < t.fresh] guards stale handles
     from before a [clear]-style reset as well as forged ones; past it,
     the (unchecked) access is in bounds. *)
  if h >= 0 && slot < t.fresh && t.gens.(slot) = gen then begin
    release_slot t slot;
    t.n_cancelled <- t.n_cancelled + 1
  end

let pending t = Wheel.length t.queue

let live t = t.n_scheduled - t.n_fired - t.n_cancelled

(* Fire the event behind [h] (whose time the pop left in [t.tbuf]), or
   skip it if its generation is stale (cancelled); returns whether a
   callback actually ran. The clock only advances on an actual fire,
   and is copied flat from [tbuf] before the callback runs (which may
   overwrite [tbuf] by scheduling). *)
let[@zygos.hot] fire t h =
  let slot = h land slot_mask in
  let gen = h lsr slot_bits in
  if t.gens.(slot) <> gen then false (* cancelled; slot recycled *)
  else begin
    let fn = t.fns.(slot) in
    if fn != noop_fn then begin
      (* read the payload before releasing: the fn may reschedule into
         this very slot. A fn slot's release skips {!release_slot}'s
         [actions] scrub check — fn slots never hold a closure, and the
         check would drag the [actions] array into cache on every fire. *)
      let iarg = t.iargs.(slot) in
      t.gens.(slot) <- t.gens.(slot) + 1;
      t.free.(t.free_top) <- slot;
      t.free_top <- t.free_top + 1;
      t.n_fired <- t.n_fired + 1;
      t.clock.(0) <- t.tbuf.(0);
      (* dynamic dispatch: every registered handler is itself a certified
         [@zygos.hot] root, so the edge is deliberately cut here *)
      (fn iarg [@zygos.allow "r6"])
    end
    else begin
      let action = t.actions.(slot) in
      release_slot t slot;
      t.n_fired <- t.n_fired + 1;
      t.clock.(0) <- t.tbuf.(0);
      (action () [@zygos.allow "r6"])
    end;
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
    live = live t;
  }
