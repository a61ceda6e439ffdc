(** Scripted per-server failure plans for the rack tier.

    A plan is a list of failure events, each pinned to one server and a
    sim-time window — the rack-scale counterpart of
    {!Core.Corefault.spec}. Three kinds:

    - [Crash]: the server is absent during the window. Requests forwarded
      to it are lost on arrival, and responses it would emit during the
      window are lost too (the model keeps simulating the server's
      internals, so on recovery its backlog drains — a hung process, not
      a reboot).
    - [Blackhole]: an ingress partition. The ToR→server link swallows
      requests during the window (implemented as the {!Net.Faults}
      partition fault, with its own counter); work already inside the
      server completes and its responses still return. At most one
      blackhole window per server.
    - [Degraded]: every core of the server runs [slowdown]x slower during
      the window — the rack-scale straggler that intra-server work
      stealing cannot route around, applied through the existing
      {!Core.Corefault} machinery.

    An empty plan composes to nothing: no link fault layers, no straggler
    specs, no crash checks that could perturb a clean run. *)

type event =
  | Crash of { server : int; start : float; duration : float }
  | Blackhole of { server : int; start : float; duration : float }
  | Degraded of { server : int; slowdown : float; start : float; duration : float }

type t = event list

val none : t

val validate : servers:int -> t -> unit
(** Raises [Invalid_argument] on out-of-range servers, empty/negative
    windows, slowdown < 1, or multiple blackhole windows for one
    server. *)

val crashed : t -> server:int -> now:float -> bool
(** Is the server inside a crash window at [now]? *)

val has_crash : t -> server:int -> bool

val link_plan : t -> server:int -> Net.Faults.plan option
(** The server's ingress-link fault plan (its blackhole window), or
    [None] so fault-free links are not composed at all. *)

val stragglers : t -> server:int -> cores:int -> Core.Corefault.spec list
(** Straggler specs implementing the server's [Degraded] windows across
    all [cores] of that server (empty when none). *)
