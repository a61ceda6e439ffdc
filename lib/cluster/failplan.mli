(** Scripted per-server failure plans for the rack tier.

    A plan is a list of failure events, each pinned to one server and a
    sim-time window — the rack-scale counterpart of
    {!Core.Corefault.spec}. Two kinds:

    - [Crash]: the server is absent during the window. Requests forwarded
      to it are lost on arrival, and responses it would emit during the
      window are lost too (the model keeps simulating the server's
      internals, so on recovery its backlog drains — a hung process, not
      a reboot).
    - [Degraded]: every core of the server runs [slowdown]x slower during
      the window — the rack-scale straggler that intra-server work
      stealing cannot route around, applied through the existing
      {!Core.Corefault} machinery.

    An empty plan composes to nothing: no straggler specs, no crash
    checks that could perturb a clean run. *)

type event =
  | Crash of { server : int; start : float; duration : float }
  | Degraded of { server : int; slowdown : float; start : float; duration : float }

type t = event list

val none : t

val validate : servers:int -> t -> unit
(** Raises [Invalid_argument] on out-of-range servers, empty/negative
    windows or slowdown < 1. *)

val crashed : t -> server:int -> now:float -> bool
(** Is the server inside a crash window at [now]? *)

val has_crash : t -> server:int -> bool

val stragglers : t -> server:int -> cores:int -> Core.Corefault.spec list
(** Straggler specs implementing the server's [Degraded] windows across
    all [cores] of that server (empty when none). *)
