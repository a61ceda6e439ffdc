(** Serializable transactions: Silo's OCC commit protocol (Tu et al.,
    SOSP'13 §4.3–4.5).

    Execution reads record snapshots ({!Record.stable_read}) and buffers
    writes; nothing is locked until commit. Commit then runs the three
    phases:

    + lock every written record, in a global (table, key) order so writer
      pairs cannot deadlock; read the global epoch;
    + validate: every read record must still carry the TID observed (and
      not be locked by another transaction), and every index leaf recorded
      in the node-set must still carry the version observed — the defense
      against phantoms for scans and absent reads;
    + assign the commit TID — larger than every TID read or overwritten
      and than this worker's previous commit, in the current epoch — then
      install writes, apply inserts/deletes, and unlock.

    Structural changes (inserts/deletes) are applied while holding the
    affected tables' index locks {e across validation}, so no concurrent
    structural change can intervene between a transaction's node-set check
    and its own index updates. This is the coarse-lock counterpart of
    Masstree's lock-free node-version protocol; the conflict semantics are
    identical (see DESIGN.md). *)

type t

exception Rollback
(** User-initiated abort (e.g. TPC-C NewOrder's 1% invalid item). *)

val begin_ : Db.t -> Db.worker -> t

val read : t -> Db.table -> string -> string array option
(** Snapshot read; [None] for missing or logically deleted keys. Reads
    the transaction's own buffered writes/inserts. The observed record (or
    the leaf proving absence) joins the read/node set. *)

val scan : t -> Db.table -> lo:string -> hi:string -> (string * string array) list
(** Range scan, lo inclusive, hi exclusive. Every touched leaf joins the
    node-set; every returned record joins the read set. The transaction's
    own buffered inserts are {b not} merged into the result (not needed by
    TPC-C; documented limitation). *)

val write : t -> Db.table -> string -> string array -> unit
(** Buffer an update of an existing key. Raises [Not_found] if the key is
    absent (TPC-C never blind-writes). *)

val insert : t -> Db.table -> string -> string array -> unit
(** Buffer an insert of a fresh key. Commit aborts with [`Conflict] if the
    key exists by then. *)

val delete : t -> Db.table -> string -> unit
(** Buffer a delete. Raises [Not_found] if the key is absent. *)

val commit : t -> (Tid.t, [ `Conflict ]) result
(** Run the commit protocol. On [`Conflict] all effects are discarded and
    the caller may retry. The transaction must not be reused. *)

val abort : t -> unit
(** Discard the transaction (nothing to undo; buffers are dropped). *)

type 'a outcome = Committed of 'a * Tid.t | Rolled_back | Conflict_exhausted

val run : Db.t -> Db.worker -> (t -> 'a) -> 'a outcome
(** Execute [f] with automatic retry on conflicts, up to 64 attempts
    before [Conflict_exhausted]. {!Rollback} from [f] aborts cleanly and yields [Rolled_back].
    Aborts are counted on the worker. *)
