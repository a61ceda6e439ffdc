(** Seeded, deterministic packet-fault injection for the simulated network.

    A {!plan} gives per-packet probabilities for the four classic network
    faults — drop, duplicate, reorder, corrupt — applied on the
    client→server path just before the request reaches the server's NIC
    ring. Corrupted packets model frames whose checksum fails validation:
    the NIC discards them, so for the simulation they are drops counted
    under a separate cause.

    All randomness is drawn from the dedicated [rng] stream handed to
    {!create} — never from the load generator's or the system's streams —
    so a plan whose rates are all [0.0] yields a bit-identical simulation
    to running with no plan at all (the fault layer then delivers every
    packet synchronously and schedules no events). *)

type plan = {
  drop : float;  (** P(packet silently lost) *)
  duplicate : float;  (** P(packet delivered twice) *)
  reorder : float;  (** P(packet delayed by 5 µs, letting later packets
                        overtake it) *)
  corrupt : float;  (** P(packet corrupted in flight and discarded by
                        checksum validation) *)
}

val zero : plan
(** All rates 0. *)

val plan : ?drop:float -> ?duplicate:float -> ?reorder:float -> ?corrupt:float -> unit -> plan
(** [zero] overridden field-wise; validates (rates in [0,1], rates
    summing <= 1 not required — drop/corrupt are exclusive, the rest
    independent). Raises [Invalid_argument] on out-of-range values. *)

val validate_plan : plan -> unit

type t

val create :
  Engine.Sim.t -> rng:Engine.Rng.t -> plan:plan -> deliver:(int -> unit) -> unit -> t
(** [rng] must be a dedicated stream (e.g. a {!Engine.Rng.split} of the
    master) so fault draws never perturb other components. [deliver]
    receives the packets that get through; it is long-lived, since late
    copies are scheduled as events on it. *)

val apply : t -> int -> unit
(** Run one packet through the plan. [deliver] is called zero, one or two
    times: never for a dropped/corrupted packet, immediately (same call
    stack) for a clean packet, 5 µs later for a reordered one, and an
    extra time 1 µs after the original for a duplicated one. *)

val injected : t -> int
(** Packets that suffered at least one fault. *)

val info : t -> (string * float) list
(** Per-kind counters for {!Systems.Iface.info}-style reporting:
    [fault_drops], [fault_corruptions], [fault_duplicates],
    [fault_reorders], [fault_injected], [fault_packets]. *)
