(** Server-side admission control / load shedding.

    SWP-style overload handling: past saturation, an open-loop arrival
    process (and worse, a retrying client population) grows server queues
    without bound, so the latency of {e every} admitted request blows past
    the SLO and goodput collapses — the classic retry-storm metastable
    failure. Shedding keeps the backlog bounded: requests the server
    cannot serve in time are refused at the NIC boundary (the client sees
    a timeout and backs off), so the requests that {e are} admitted still
    meet the SLO and goodput degrades gracefully to the service capacity.

    The guard wraps a system's submit/respond pair and checks its bound
    before a request reaches the model, so it composes with all of
    Linux/IX/ZygOS unchanged. It draws no randomness and schedules no
    events. *)

val validate_bound : int -> unit
(** Raises [Invalid_argument] on an in-flight bound below 1. *)

type t

val create : pool:Net.Request.pool -> bound:int -> t
(** A guard that refuses a request when the server already holds [bound]
    admitted, unanswered requests. The pool is consulted only to read
    request ids; the guard never allocates or releases handles. Raises
    [Invalid_argument] as {!validate_bound}. *)

val admit : t -> Net.Request.t -> forward:(Net.Request.t -> unit) -> unit
(** Either [forward] the request into the server (and start tracking it)
    or shed it — the request is then never delivered and never completed,
    exactly like a drop at a full NIC ring. *)

val note_response : t -> Net.Request.t -> unit
(** Must be called on the server's respond path so the guard can retire
    the request from its in-flight accounting. *)

val info : t -> (string * float) list
(** [admitted], [shed] and [inflight_peak] — merged into the wrapped
    system's {!Iface.info} output by the experiment runner. *)
