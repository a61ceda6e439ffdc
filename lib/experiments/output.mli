(** Plain-text table/series rendering for the benchmark harness.

    Everything renders through one process-wide sink: stdout by default,
    or an in-memory buffer under {!capture}. Rendering always happens in
    the calling domain (figure render steps run after the sweep pool has
    joined), so the sink needs no synchronization. *)

val printf : ('a, unit, string, unit) format4 -> 'a
(** [Printf]-style formatting into the current sink. *)

val capture : (unit -> unit) -> string
(** [capture f] runs [f] with the sink redirected to a fresh buffer and
    returns everything it rendered. Restores the previous sink on exit
    (exceptions included); nests. *)

val print_header : string -> unit
(** Boxed section title. *)

val print_subheader : string -> unit

val print_table : columns:string list -> rows:string list list -> unit
(** Aligned columns; every row must have the arity of [columns]. *)

val print_pool_stats : Runtime.Pool.stats -> unit
(** Sweep-pool counters (workers, points run, steals, total busy
    seconds, wall seconds, busy/wall speedup) plus a per-domain
    busy-time table. *)

val f1 : float -> string
(** Format helpers: fixed decimals. *)

val f2 : float -> string

val f3 : float -> string

val pct : float -> string
(** 0.753 -> "75.3%". *)
