(** Stale queue-length estimates: the dispatcher's delayed view of
    per-server outstanding work.

    The ToR tracks each server's outstanding requests exactly (the [live]
    array, owned by the dispatcher), but scheduling policies read a
    {e snapshot} of it that refreshes only every [delay] µs — modelling
    the feedback delay of real queue-length telemetry (piggybacked
    responses, switch counters). With [delay = 0] the snapshot {e is} the
    live array: reads are exact, and no simulator events are scheduled at
    all, so a zero-delay estimator cannot perturb a run. *)

type t

val create :
  Engine.Sim.t -> live:float array -> delay:float -> until:float -> unit -> t
(** [live] is aliased, not copied: the caller keeps mutating it and the
    estimator snapshots it every [delay] µs until sim time [until] (after
    which the view freezes so the simulation can drain). Raises
    [Invalid_argument] on a negative or NaN delay. *)

val visible : t -> float array
(** The policy-visible estimates by server, stale by up to the feedback
    delay: [live] itself when [delay = 0], else the snapshot that each
    refresh (and {!force}) overwrites in place. It is one array for the
    estimator's whole life, so a caller binds it once. *)

val force : t -> int -> unit
(** Synchronize server [i]'s visible estimate with the live value now
    (out-of-band correction, e.g. after failure-detection state changes). *)

val refreshes : t -> int
(** Snapshot count so far. *)
