(** The ZygOS shuffle layer: per-core single-producer/multi-consumer queues
    of ready connections, the per-connection idle/ready/busy state machine,
    and work stealing (§4.2–§4.4 of the paper).

    A connection's protocol control block (PCB) is its connection id: its
    state, its home core and its pending events live in flat arrays and
    one shared {!Engine.Intqs} indexed by that id, and events are
    immediate ints (request handles). Each core's shuffle queue is an
    {!Engine.Intq} of ready connection ids.

    The design invariants this module maintains — and that the test suite
    checks with property tests — are:

    - a connection is present in its home core's shuffle queue exactly
      once when in the [Ready] state, and never otherwise (Figure 5);
    - whichever core dequeues a connection gains exclusive access to the
      socket until it completes the whole batch of events it grabbed, so
      events of one connection are never processed concurrently or
      reordered (§4.3);
    - events are grouped per socket, so one long-running connection can
      never block events of other connections queued behind it — this is
      what eliminates head-of-line blocking (§4.4);
    - pre-sorting by socket trades strict global FCFS for per-socket
      ordering; back-to-back events of one socket execute as one batch
      (the "implicit batching" of §6.2).

    Single-threaded: the discrete-event system models own the scheduler,
    so §5's per-queue spinlocks and the thieves' try-locks, which never
    contend inside one event, are not modelled. *)

type state = Idle | Ready | Busy  (** Figure 5's connection states *)

type t
(** A scheduler instance: one shuffle queue per core, one PCB per
    connection. *)

val create : cores:int -> conns:int -> t
(** Connections [0 .. conns - 1], all [Idle] and unregistered. Raises
    [Invalid_argument] when [cores < 1] or [conns < 0]. *)

val register : t -> conn:int -> home:int -> unit
(** Home connection [conn] on core [home] (as dictated by RSS); every
    connection must be registered before its first {!deliver}. Raises
    [Invalid_argument] if [home] is out of range. *)

val home : t -> int -> int
(** Home core of a registered connection. *)

val state : t -> int -> state

val deliver : t -> int -> int -> unit
(** [deliver t conn ev] is the TCP-in path: append an event to the
    connection. An [Idle] connection becomes [Ready] and is enqueued on
    its home core's shuffle queue; a [Ready] or [Busy] connection just
    accumulates the event. *)

(** {2 Dispatch}

    A successful {!poll} claims a batch into per-core scratch storage
    (one flat array walk, no list cons per event, no [option]
    allocation), read back through the accessors below. The scratch is
    valid until the same core's next [poll]/[poll_local]; consume it
    first. *)

val poll : t -> core:int -> steal_order:int array -> bool
(** Dispatch for [core]: first try its own shuffle queue, then steal from
    the queues in [steal_order]. On success the connection transitions
    [Ready -> Busy] and the whole batch of its pending events is drained
    into [core]'s scratch; the caller now holds exclusive access to the
    connection until it calls {!complete}. Returns [false] when every
    queue is empty (the core is idle). *)

val poll_local : t -> core:int -> bool
(** Like {!poll} with an empty steal order — dispatch only from the
    core's own queue. *)

val batch_conn : t -> core:int -> int
(** Connection of the batch claimed by [core]'s last successful poll.
    Raises [Invalid_argument] before the first dispatch. *)

val batch_size : t -> core:int -> int

val batch_event : t -> core:int -> int -> int
(** Events in arrival order, indices [0, batch_size). Raises
    [Invalid_argument] out of range. *)

val batch_stolen_from : t -> core:int -> int
(** Victim core of the last claimed batch, or [-1] if it was local. *)

val complete : t -> int -> unit
(** End of the connection's batch: it leaves [Busy]. If events arrived
    meanwhile it re-enters [Ready] (and the home shuffle queue);
    otherwise it goes [Idle]. Raises [Invalid_argument] when the
    connection is not [Busy]. *)

val queue_length : t -> core:int -> int
(** Current shuffle-queue length of a core (what idle cores poll). *)

val has_ready : t -> bool
(** Whether any core's shuffle queue is non-empty. *)

val local_events : t -> int
(** Events in batches that cores took from their own queues (Figure 8's
    steal-rate analysis). *)

val stolen_events : t -> int
(** Events in batches that cores stole from another core's queue. *)

val steal_fraction : t -> float
(** stolen events / all dispatched events; 0 when nothing dispatched. *)
