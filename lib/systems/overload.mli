(** Server-side admission control / load shedding.

    SWP-style overload handling: past saturation, an open-loop arrival
    process (and worse, a retrying client population) grows server queues
    without bound, so the latency of {e every} admitted request blows past
    the SLO and goodput collapses — the classic retry-storm metastable
    failure. Shedding keeps the backlog bounded: requests the server
    cannot serve in time are refused at the NIC boundary (the client sees
    a timeout and backs off), so the requests that {e are} admitted still
    meet the SLO and goodput degrades gracefully to the service capacity.

    The guard wraps a system's submit/respond pair and is policy-checked
    before a request reaches the model, so it composes with all of
    Linux/IX/ZygOS unchanged. With {!No_shed} the guard only counts
    in-flight requests — it draws no randomness and schedules no events,
    so it cannot perturb a simulation. *)

type policy =
  | No_shed  (** admit everything (observation only) *)
  | Queue_length of int
      (** refuse when the server already holds this many admitted,
          unanswered requests (>= 1) *)

val validate_policy : policy -> unit
(** Raises [Invalid_argument] on a non-positive bound. *)

type t

val create : Engine.Sim.t -> pool:Net.Request.pool -> policy:policy -> unit -> t
(** The pool is consulted only to read request ids; the guard never
    allocates or releases handles. *)

val admit : t -> Net.Request.t -> forward:(Net.Request.t -> unit) -> unit
(** Apply the policy: either [forward] the request into the server (and
    start tracking it) or shed it — the request is then never delivered
    and never completed, exactly like a drop at a full NIC ring. *)

val note_response : t -> Net.Request.t -> unit
(** Must be called on the server's respond path so the guard can retire
    the request from its in-flight accounting. *)

val info : t -> (string * float) list
(** [admitted], [shed], [inflight_peak], and the simulator's own queue
    depth at the time of the call: [sim_live] ({!Engine.Sim.live}) and
    [sim_pending] ({!Engine.Sim.pending}) — merged into the wrapped
    system's {!Iface.info} output by the experiment runner. *)
