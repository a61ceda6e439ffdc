(** Database: a set of named ordered tables plus the epoch manager and
    per-worker commit state. *)

type table = { name : string; index : Record.t Btree.t }

type t

type worker
(** Per-worker transaction state: the last TID this worker committed (the
    commit protocol's TID assignment rule (c)) and abort/commit
    counters. *)

val create : unit -> t

val epoch : t -> Epoch.t

val add_table : t -> string -> table
(** Raises [Invalid_argument] on duplicate table names. *)

val find_table : t -> string -> table
(** Raises [Not_found]. *)

val tables : t -> table list

val worker : t -> id:int -> worker

val worker_id : worker -> int

val last_tid : worker -> Tid.t

val set_last_tid : worker -> Tid.t -> unit

val note_commit : worker -> unit

val note_abort : worker -> unit

val commits : worker -> int

val aborts : worker -> int
