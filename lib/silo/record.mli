(** Versioned in-memory records with word-sized OCC metadata.

    A record is a TID word (atomic, for lock-free readers and CAS locking)
    plus its column values. Readers use Silo's stable-read protocol: read
    the TID, spin while locked, read the data, re-read the TID; equal TIDs
    mean a consistent snapshot. *)

type t

val create : string array -> t
(** New record with {!Tid.zero} and the given column values. *)

val create_committed : string array -> tid:Tid.t -> t
(** New record already carrying a commit TID — used when the commit
    protocol inserts a record while holding the index lock, so the record
    is fully committed by the time it becomes visible. [tid] must be
    unlocked. *)

val tid : t -> Tid.t
(** Current TID word (may have status bits set). *)

val columns : t -> int

val stable_read : t -> Tid.t * string array
(** Consistent (tid, data) snapshot; spins across concurrent writers. The
    returned array is the internal one — treat as read-only. *)

val try_lock : t -> bool
(** CAS the lock bit; false if already locked. *)

val lock : t -> unit
(** Spin until the lock is acquired. *)

val unlock : t -> unit
(** Clear the lock bit. Raises [Invalid_argument] if not locked. *)

val install : t -> data:string array -> tid:Tid.t -> unit
(** Writer-side commit: store new data, then release the lock by
    publishing [tid] (which must be unlocked; raises otherwise). The caller
    must hold the lock. *)

val mark_absent : t -> tid:Tid.t -> unit
(** Commit a logical delete: publish [tid] with the absent bit. Caller
    must hold the lock. *)
