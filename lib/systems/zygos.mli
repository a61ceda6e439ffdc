(** Simulated ZygOS server (§4–§5): the paper's three-layer architecture
    driven by the real scheduling code of [lib/core].

    Per core, the model keeps the paper's data structures:

    - a NIC hardware descriptor ring fed flow-consistently by RSS (lower
      networking layer, coherence-free, home-core only);
    - the shuffle queue of ready connections ({!Core.Sched}), which the
      home core consumes and idle remote cores steal from;
    - a FIFO of remote batched syscalls carrying the responses of stolen
      work back to the home core's TCP output path.

    The idle loop follows §5's polling order: own hardware ring, then
    others' shuffle queues, then others' pending packet queues — sending an
    exit-less IPI when it finds packets whose home core is busy executing
    application code with an empty shuffle queue. IPIs also force timely
    execution of remote batched syscalls. With [zy_interrupts = false] the
    model degenerates to the cooperative "ZygOS (no interrupts)" variant of
    Figures 6 and 8.

    A connection's events execute under exclusive ownership from dispatch
    until the home core has transmitted the batch's responses, giving the
    §4.3 ordering guarantee; the per-socket event grouping of the shuffle
    queue eliminates head-of-line blocking (§4.4). *)

(** Scheduling events, observable through [create]'s [trace] callback —
    the model's counterpart of a kernel tracepoint stream. *)
type trace_event =
  | Rx of { core : int; packets : int }
      (** the core ran its receive path over this many packets *)
  | Dispatch_local of { core : int; conn : int; events : int }
  | Steal of { thief : int; victim : int; conn : int; events : int }
  | Ipi of { src : int; dst : int }
      (** an inter-processor interrupt was sent *)
  | Remote_tx of { home : int; conn : int; responses : int }
      (** the home core transmitted a stolen batch's responses *)

val pp_trace_event : Format.formatter -> trace_event -> unit

val create :
  Engine.Sim.t ->
  Params.t ->
  rng:Engine.Rng.t ->
  pool:Net.Request.pool ->
  conns:int ->
  respond:(Net.Request.t -> unit) ->
  ?trace:(float -> trace_event -> unit) ->
  unit ->
  Iface.t
(** Raises [Invalid_argument] above 62 cores: the model keeps per-core
    idle-loop state as sets with one bit per core in an OCaml [int].

    Counters exposed through {!Iface.info}, in this order:
    - ["steal_fraction"]: stolen events / dispatched events (Figure 8);
    - ["ipis_sent"]: IPIs sent;
    - ["victim_orders"]: randomized victim orders drawn (one per steal
      attempt that meets work queued on another core, and one per IPI
      scan that sends);
    - ["ring_drops"]: packets dropped at full NIC rings;
    - ["local_events"], ["stolen_events"]: events dispatched from the
      home core's own shuffle queue and stolen by another core;
    - ["remote_batches"]: stolen batches whose responses were handed back
      to their home core;
    - ["wc_violations"]: see {!work_conservation_violations}.

    [trace], when given, receives every scheduling event with its
    simulated timestamp. *)

val work_conservation_violations : Iface.t -> int
(** Number of scheduler idle decisions that left a non-empty shuffle queue
    unserved somewhere (checked at every idle transition; must be 0 — this
    is the work-conservation property, validated in tests). Raises
    [Invalid_argument] on a non-ZygOS handle. *)
