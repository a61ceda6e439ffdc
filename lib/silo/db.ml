type table = { name : string; index : Record.t Btree.t }

type t = { epoch_mgr : Epoch.t; tables : (string, table) Hashtbl.t }

type worker = { mutable last : Tid.t; mutable abort_count : int }

let create () = { epoch_mgr = Epoch.create (); tables = Hashtbl.create 16 }

let epoch t = t.epoch_mgr

let add_table t name =
  if Hashtbl.mem t.tables name then invalid_arg ("Db.add_table: duplicate table " ^ name);
  let table = { name; index = Btree.create () } in
  Hashtbl.add t.tables name table;
  table

let find_table t name =
  match Hashtbl.find_opt t.tables name with
  | Some table -> table
  | None -> raise Not_found

let worker () = { last = Tid.zero; abort_count = 0 }

let last_tid w = w.last

let set_last_tid w tid = w.last <- tid

let note_abort w = w.abort_count <- w.abort_count + 1

let aborts w = w.abort_count
