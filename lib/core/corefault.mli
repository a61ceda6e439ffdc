(** Deterministic straggler / antagonist injection for worker cores.

    RackSched-style fault model: a core is slowed by a constant factor (or
    fully stalled) during a scheduled time window — an antagonist sharing
    the hyperthread, a power-management excursion, an interrupt storm. The
    same spec list is applied uniformly to the Linux, IX and ZygOS models
    so the degradation experiments compare schedulers, not fault models.

    The model is a piecewise-constant speed function per core: speed 1
    outside every window, [1 / slowdown] inside ([slowdown = infinity]
    stalls the core completely). {!completion_time} integrates work across
    that function exactly; with no window overlapping the execution it
    returns [now +. work] with bit-identical float arithmetic, so an empty
    spec list cannot perturb a fault-free simulation. *)

type spec = {
  core : int;  (** worker core index the fault applies to *)
  start : float;  (** window start (sim µs) *)
  duration : float;  (** window length (µs) *)
  slowdown : float;
      (** execution-time multiplier inside the window; >= 1, [infinity]
          for a full stall *)
}

val validate_spec : spec -> unit
(** Raises [Invalid_argument] on a negative core/start/duration or a
    slowdown < 1 (NaNs rejected too). *)

type t

val none : t
(** No faults: {!completion_time} is exactly [now +. work]. *)

val create : spec list -> t
(** Windows of one core may not overlap each other (raises
    [Invalid_argument]); windows of different cores are independent. *)

val is_none : t -> bool
(** [true] iff no spec mentions any core. *)

val completion_time : t -> core:int -> now:float -> work:float -> float
(** Absolute sim time at which [work] µs of nominal execution finishes
    when started at [now] on [core]. Requires [work >= 0]. *)
