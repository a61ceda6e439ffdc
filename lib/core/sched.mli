(** The ZygOS shuffle layer: per-core single-producer/multi-consumer queues
    of ready connections, the per-connection idle/ready/busy state machine,
    and work stealing (§4.2–§4.4 of the paper).

    The design invariants this module maintains — and that the test suite
    checks with property tests — are:

    - a connection (PCB) is present in its home core's shuffle queue exactly
      once when in the [Ready] state, and never otherwise (Figure 5);
    - whichever core dequeues a PCB gains exclusive access to the socket
      until it completes the whole batch of events it grabbed, so events of
      one connection are never processed concurrently or reordered (§4.3);
    - events are grouped per socket, so one long-running connection can
      never block events of other connections queued behind it — this is
      what eliminates head-of-line blocking (§4.4);
    - pre-sorting by socket trades strict global FCFS for per-socket
      ordering; back-to-back events of one socket execute as one batch
      (the "implicit batching" of §6.2).

    The module is a functor over {!Platform.LOCK}; {!Sim_sched} and
    {!Mt_sched} are the two instantiations used by the simulator and by the
    real multicore runtime. *)

module type S = sig
  type lock

  type state = Idle | Ready | Busy  (** Figure 5's connection states *)

  type 'ev pcb
  (** Protocol control block: one per connection, holding its pending-event
      queue and scheduling state. ['ev] is the application event type. *)

  type 'ev t
  (** A scheduler instance: one shuffle queue per core. *)

  val create : cores:int -> 'ev t
  (** Raises [Invalid_argument] when [cores < 1]. *)

  val cores : 'ev t -> int

  val register : 'ev t -> conn:int -> home:int -> 'ev pcb
  (** Create the PCB for a connection homed on core [home] (as dictated by
      RSS). Raises [Invalid_argument] if [home] is out of range. *)

  val conn : 'ev pcb -> int

  val home : 'ev pcb -> int

  val state : 'ev pcb -> state

  val pending_events : 'ev pcb -> int

  val deliver : 'ev t -> 'ev pcb -> 'ev -> unit
  (** TCP-in path: append an event to the connection. An [Idle] connection
      becomes [Ready] and is enqueued on its home core's shuffle queue; a
      [Ready] or [Busy] connection just accumulates the event. *)

  (** {2 Dispatch}

      A successful {!poll} claims a batch into per-core scratch storage
      (one flat array walk, no list cons per event, no [option]
      allocation), read back through the accessors below. The scratch is
      valid until the same core's next [poll]/[poll_local]; consume it
      first. *)

  val poll : 'ev t -> core:int -> steal_order:int array -> bool
  (** Dispatch for [core]: first try its own shuffle queue, then attempt to
      steal from the queues in [steal_order] (each guarded by a try-lock,
      §5). On success the PCB transitions [Ready -> Busy] and the whole
      batch of its pending events is drained into [core]'s scratch; the
      caller now holds exclusive access to the connection until it calls
      {!complete}. Returns [false] when every queue is empty (the core is
      idle). *)

  val poll_local : 'ev t -> core:int -> bool
  (** Like {!poll} with an empty steal order — dispatch only from the
      core's own queue. *)

  val batch_pcb : 'ev t -> core:int -> 'ev pcb
  (** PCB of the batch claimed by [core]'s last successful poll. Raises
      [Invalid_argument] before the first dispatch. *)

  val batch_size : 'ev t -> core:int -> int

  val batch_event : 'ev t -> core:int -> int -> 'ev
  (** Events in arrival order, indices [0, batch_size). Raises
      [Invalid_argument] out of range. *)

  val batch_stolen_from : 'ev t -> core:int -> int
  (** Victim core of the last claimed batch, or [-1] if it was local. *)

  val complete : 'ev t -> 'ev pcb -> unit
  (** End of the batch: the PCB leaves [Busy]. If events arrived meanwhile
      it re-enters [Ready] (and the home shuffle queue); otherwise it goes
      [Idle]. Raises [Invalid_argument] when the PCB is not [Busy]. *)

  val queue_length : 'ev t -> core:int -> int
  (** Current shuffle-queue length of a core (what idle cores poll). *)

  val has_ready : 'ev t -> bool
  (** Whether any core's shuffle queue is non-empty. *)

  (** Dispatch counters, for Figure 8's steal-rate analysis. *)
  type counters = {
    local_dispatches : int;  (** batches a core took from its own queue *)
    steal_dispatches : int;  (** batches taken from another core's queue *)
    local_events : int;  (** events contained in local batches *)
    stolen_events : int;  (** events contained in stolen batches *)
  }

  val counters : 'ev t -> core:int -> counters

  val total_counters : 'ev t -> counters

  val steal_fraction : 'ev t -> float
  (** stolen events / all dispatched events; 0 when nothing dispatched. *)
end

module Make (L : Platform.LOCK) : S with type lock = L.t

module Sim_sched : S with type lock = Platform.Nolock.t
(** Instantiation used by the discrete-event system models. *)

module Mt_sched : S with type lock = Platform.Mutex_lock.t
(** Instantiation used by the real OCaml-domains runtime. *)
