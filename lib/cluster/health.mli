(** Dispatcher-side failure detection: per-server health driven purely by
    observed timeouts and responses.

    The ToR has no oracle — it infers server health from its own traffic.
    Each response-detection timeout against a server bumps its
    consecutive-timeout count, and three in a row mark it down. A down
    server stops receiving traffic except for one probe request every
    500 µs; any response from the server (probe or straggler backlog)
    marks it up again and zeroes the count.

    Timeout arming, backoff, and failover re-dispatch live in
    {!Dispatch}; this module is only the state machine and its
    counters. *)

type t

val create : n:int -> t
(** [n] servers, all up. Raises [Invalid_argument] if [n < 1]. *)

val is_down : t -> int -> bool

val note_timeout : t -> int -> now:float -> unit
(** A dispatch to server [i] timed out. *)

val note_response : t -> int -> now:float -> unit
(** Server [i] responded: reset its count; down to up counts as a
    recovery and accumulates the outage into [health_down_time]. *)

val routable : t -> int -> now:float -> bool
(** May server [i] receive a request at [now]? Up: yes; down: only if
    its probe slot is open. Pure — the dispatcher calls {!note_probe}
    when it actually sends to a down server. *)

val note_probe : t -> int -> now:float -> unit
(** Consume server [i]'s probe slot (no-op unless down). *)

val down_count : t -> int

val info : t -> (string * float) list
(** [health_timeouts], [health_detections], [health_probes],
    [health_recoveries], [health_down] (currently down),
    [health_down_time] (µs, closed outages only). *)
