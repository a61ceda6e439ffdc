type t = { meta : int Atomic.t; mutable data : string array }

let create data = { meta = Atomic.make Tid.zero; data }

let create_committed data ~tid =
  if Tid.is_locked tid then invalid_arg "Record.create_committed: tid has lock bit";
  { meta = Atomic.make tid; data }

let tid t = Atomic.get t.meta

let columns t = Array.length t.data

let rec stable_read t =
  let before = Atomic.get t.meta in
  if Tid.is_locked before then begin
    Domain.cpu_relax ();
    stable_read t
  end
  else begin
    let data = t.data in
    let after = Atomic.get t.meta in
    if before = after then (before, data) else stable_read t
  end

let try_lock t =
  let current = Atomic.get t.meta in
  (not (Tid.is_locked current))
  && Atomic.compare_and_set t.meta current (Tid.locked current)

let rec lock t =
  if not (try_lock t) then begin
    Domain.cpu_relax ();
    lock t
  end

let unlock t =
  let current = Atomic.get t.meta in
  if not (Tid.is_locked current) then invalid_arg "Record.unlock: not locked";
  Atomic.set t.meta (Tid.unlocked current)

let install t ~data ~tid =
  if not (Tid.is_locked (Atomic.get t.meta)) then invalid_arg "Record.install: not locked";
  if Tid.is_locked tid then invalid_arg "Record.install: new tid has lock bit";
  t.data <- data;
  (* Publishing the unlocked TID releases the lock and versions the data
     in one atomic store. *)
  Atomic.set t.meta tid

let mark_absent t ~tid =
  if not (Tid.is_locked (Atomic.get t.meta)) then invalid_arg "Record.mark_absent: not locked";
  Atomic.set t.meta (Tid.absent (Tid.unlocked tid))
