(** Seeded, deterministic packet-fault injection for the simulated network.

    A {!plan} gives per-packet probabilities for three classic network
    faults — drop, duplicate, reorder — applied on the client→server
    path just before the request reaches the server's NIC ring.

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
}

val plan : ?drop:float -> ?duplicate:float -> ?reorder:float -> unit -> plan
(** Each rate defaults to 0 and must lie in [0, 1]; the three are
    independent. Raises [Invalid_argument] on out-of-range values. *)

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
    times: never for a dropped packet, immediately (same call
    stack) for a clean packet, 5 µs later for a reordered one, and an
    extra time 1 µs after the original for a duplicated one. *)

val info : t -> (string * float) list
(** Per-kind counters for {!Systems.Iface.info}-style reporting:
    [fault_packets], [fault_drops], [fault_duplicates],
    [fault_reorders], and [fault_injected] (packets that suffered at
    least one fault). *)
