(** Fixed-size OCaml 5 domain pool for independent coarse-grained tasks.

    The pool is the paper's §2 ideal, a single shared FCFS queue: the
    calling domain and [min workers n - 1] spawned domains each claim
    the next unclaimed task index from one atomic counter until every
    index is taken. Results are stored by task index, so the output
    array (and anything rendered from it) is independent of which
    worker ran which task, and of the worker count.

    Tasks must be independent: they run concurrently on separate domains
    and must not share mutable state. With [workers = 1] (or fewer than
    two tasks) everything runs in the calling domain and no domain is
    spawned. *)

val run : workers:int -> tasks:(unit -> 'a) array -> 'a array
(** [run ~workers ~tasks] executes every task exactly once and returns
    the results in task order. If any task raises, the remaining tasks
    still run and the first exception is re-raised after the join.
    Raises [Invalid_argument] if [workers < 1]. *)
