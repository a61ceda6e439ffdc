(** Discrete-event simulation core.

    A simulation is a virtual clock plus an event queue of timestamped
    callbacks. Simulated time is a float in microseconds. Events scheduled
    for the same instant fire in scheduling order, so runs are fully
    deterministic given deterministic callbacks and {!Rng} seeds.

    The hot path is allocation-free in steady state: each event is one
    node of a recycled structure-of-arrays pool (time, sequence number,
    handler, payload, generation, next link), handles are immediate
    integers carrying the node's generation, and the queue, a
    hierarchical timing wheel, chains the same nodes. There is one kind
    of event, scheduled by {!schedule_fn_keyed}: a long-lived
    [int -> unit] handler plus an immediate payload, with the event time
    written into {!key_buffer} slot 0 first. It allocates nothing: a
    float argument to a function in another module is boxed at the call,
    one stored in a float array is not. The wheel's pop order is checked
    against the binary heap ({!Heap}) in test/test_equeue.ml.

    Events can be cancelled through the handle {!schedule_fn_keyed}
    returns. Cancellation is O(1): it marks the node, which stays queued
    until the wheel next reaches it and then returns to the pool without
    firing and without moving the clock. *)

type t

type handle = private int
(** A scheduled event, usable for cancellation. Handles are immediate
    values (no allocation) and generation-checked: a handle whose event has
    fired or been cancelled is inert even after its pool node is reused. *)

val no_handle : handle
(** A sentinel no real handle ever equals (handles pack (generation, node)
    as a non-negative int; [no_handle] is negative). Lets callers store "no
    event armed" in a flat [handle] field instead of a [handle option],
    avoiding a [Some] allocation per armed event. [cancel t no_handle] is a
    no-op. *)

type stats = {
  scheduled : int;  (** events ever scheduled *)
  fired : int;  (** events whose callback ran *)
  cancelled : int;  (** live events cancelled (stale cancels excluded) *)
  reused : int;  (** [scheduled - pool_slots] *)
  pool_slots : int;  (** the most events pending (scheduled, neither fired
                         nor cancelled) at once *)
}
(** Event counters. [pool_slots] is the number of nodes a pool needs
    that reuses a node as soon as its event fires or is cancelled; a
    cancelled node that still waits in the wheel is not counted. In
    steady state [reused] tracks [scheduled] and [pool_slots] stays
    small — the signature of an allocation-free hot path. *)

val create : unit -> t
(** Fresh simulation with clock at 0. *)

val now : t -> float
(** Current simulated time (µs). *)

val clock_buffer : t -> float array
(** The one-element backing buffer of the simulation clock, so embedders'
    hot paths can read the current time with one inline array load
    instead of a call. Read-only: writing to it corrupts the clock. *)

val key_buffer : t -> float array
(** The one-element buffer through which event times travel to the
    queue. Write the absolute time into slot 0 and call
    {!schedule_fn_keyed}: the float never crosses a call boundary, so a
    steady-state schedule allocates nothing. A [delay] after now is
    [clock.(0) +. delay] (see {!clock_buffer}); sum a composite delay
    first, e.g. [clock.(0) +. (setup +. slice)], since float addition
    does not associate. *)

val schedule_fn_keyed : t -> (int -> unit) -> int -> handle
(** [schedule_fn_keyed t fn iarg] runs [fn iarg] at the time in
    {!key_buffer} slot 0 (raises [Invalid_argument] if it is in the past
    or NaN). [fn] must be long-lived (pre-bound at setup) and [iarg] is
    stored unboxed, so it allocates nothing. *)

val cancel : t -> handle -> unit
(** Prevent a pending event from firing. O(1): the event's node stays
    queued until the wheel reaches it. Cancelling a fired or already
    cancelled event is a no-op. *)

val step : t -> bool
(** Execute the next event, advancing the clock. Returns [false] when the
    queue is empty. *)

val run : t -> unit
(** Run until no events remain. *)

val stats : t -> stats
(** Snapshot of the event-pool counters. *)
