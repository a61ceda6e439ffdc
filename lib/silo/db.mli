(** Database: a set of named ordered tables plus the epoch manager and
    per-worker commit state. *)

type table = { name : string; index : Record.t Btree.t }

type t

type worker
(** Per-worker transaction state: the last TID this worker committed (the
    commit protocol's TID assignment rule (c)) and an abort counter. *)

val create : unit -> t

val epoch : t -> Epoch.t

val add_table : t -> string -> table
(** Raises [Invalid_argument] on duplicate table names. *)

val find_table : t -> string -> table
(** Raises [Not_found]. *)

val worker : unit -> worker

val last_tid : worker -> Tid.t

val set_last_tid : worker -> Tid.t -> unit

val note_abort : worker -> unit

val aborts : worker -> int
