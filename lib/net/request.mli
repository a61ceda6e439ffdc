(** A remote procedure call in flight.

    Requests are created by the load generator ({!Loadgen}), carried through
    a simulated server system (lib/systems), and completed when the response
    is written back "on the wire". Latency is measured client-side as
    [completion - arrival], exactly as the paper measures with mutilate.

    A request is an {e immediate int handle} into a per-experiment arena
    ({!pool}): all per-request state lives in parallel SoA arrays (flat
    float arrays for times, int arrays for ids/conns), mirroring the
    engine's event pool. Creating, touching, and completing a request
    allocates nothing on the OCaml heap. Handles carry a generation
    number; touching a handle whose slot was recycled raises, so
    use-after-release is caught deterministically rather than corrupting
    another request's state. Times are read and written by {!slot} in
    the pool's flat float columns: a float stored in a float array is not
    boxed, one passed to or returned from another module is. *)

type t = int
(** Handle: [(generation lsl slot_bits) lor slot]. Immediate, so it can
    ride in any int-payload channel (Sim.schedule_fn iargs, Sched event
    queues, Intq rings) without boxing. *)

type pool

val none : t
(** Sentinel "no request" handle ([-1]); never returned by {!alloc}. *)

val create_pool : ?recycle:bool -> unit -> pool
(** [recycle] (default [false]) controls whether {!release_at} actually
    returns slots for reuse. Paths that may touch a request after its
    first completion (duplicate deliveries, hedged copies, failover)
    must run with [recycle:false]: the pool then grows monotonically —
    bounded by the total request count — and every handle stays valid
    for the whole run. The clean fast path (no faults or retries; in a
    rack, no detection, hedging or retries) enables recycling and runs
    in O(outstanding) slots. *)

val alloc : pool -> id:int -> conn:int -> measured:bool -> float array -> t
(** [alloc p ~id ~conn ~measured times] takes the arrival from
    [times.(0)] and the service demand from [times.(1)]. [id] is explicit
    (not pool-assigned) because cluster re-dispatch creates fresh handles
    carrying the same logical request id. *)

val release_at : pool -> int -> unit
(** Return the slot ({!slot}) for reuse: its handle goes stale. No-op
    when the pool was created with [recycle:false]. *)

(** {2 Field access} — all raise [Invalid_argument] on a stale or
    [none] handle. *)

val slot : pool -> t -> int
(** The handle's slot in the float columns below. *)

val id : pool -> t -> int
(** Unique, increasing in arrival order (per load generator). *)

val conn : pool -> t -> int
(** Connection carrying this RPC. *)

val measured : pool -> t -> bool
(** Inside the measurement window (not warmup/drain)? *)

val id_at : pool -> int -> int
val conn_at : pool -> int -> int
val measured_at : pool -> int -> bool
(** {!id}, {!conn} and {!measured} at a slot {!slot} returned, unchecked:
    a path that reads several fields validates its handle once. *)

(** {2 Float columns} — index with {!slot}. Pool growth replaces them,
    so re-read a column after any {!alloc}. Latency is
    [completions.(s) -. arrivals.(s)]. *)

val arrivals : pool -> float array
(** Sim time each request hits the server NIC (µs). *)

val services : pool -> float array
(** Application service demand (µs). *)

val starteds : pool -> float array
(** Sim time application execution began; -1 until then. *)

val completions : pool -> float array
(** Sim time the response was sent; -1 while pending. *)

(** {2 Introspection} (experiment info / perf guards) *)

val live : pool -> int
(** Handles allocated and not yet released. *)

val allocated : pool -> int
(** Total {!alloc} calls over the pool's lifetime. *)

val hwm : pool -> int
(** High-water mark of distinct slots ever in use — with recycling on,
    [allocated / hwm] is the reuse ratio the perf guard checks. *)
