type pending_write = { wtable : Db.table; wkey : string; wrecord : Record.t; mutable wdata : string array }

type pending_insert = { itable : Db.table; ikey : string; mutable idata : string array }

type pending_delete = { dtable : Db.table; dkey : string; drecord : Record.t }

type t = {
  db : Db.t;
  worker : Db.worker;
  mutable reads : (Record.t * Tid.t) list;
  mutable node_set : (Record.t Btree.leaf * int) list;
  mutable writes : pending_write list;
  mutable inserts : pending_insert list;
  mutable deletes : pending_delete list;
  mutable finished : bool;
}

exception Rollback

let begin_ db worker =
  {
    db;
    worker;
    reads = [];
    node_set = [];
    writes = [];
    inserts = [];
    deletes = [];
    finished = false;
  }

let check_active t = if t.finished then invalid_arg "Txn: transaction already finished"

let find_own_insert t (table : Db.table) key =
  List.find_opt (fun i -> i.itable == table && String.equal i.ikey key) t.inserts

let find_own_write t (table : Db.table) key =
  List.find_opt (fun w -> w.wtable == table && String.equal w.wkey key) t.writes

let find_own_delete t (table : Db.table) key =
  List.find_opt (fun d -> d.dtable == table && String.equal d.dkey key) t.deletes

let read t (table : Db.table) key =
  check_active t;
  match find_own_insert t table key with
  | Some i -> Some i.idata
  | None -> (
      if Option.is_some (find_own_delete t table key) then None
      else
        match find_own_write t table key with
        | Some w -> Some w.wdata
        | None -> (
            let value, leaf = Btree.get table.index key in
            match value with
            | None ->
                (* Absent key: remember the leaf version so a concurrent
                   insert of this key aborts us (anti-phantom). *)
                t.node_set <- (leaf, Btree.leaf_version leaf) :: t.node_set;
                None
            | Some record ->
                let tid, data = Record.stable_read record in
                t.reads <- (record, tid) :: t.reads;
                if Tid.is_absent tid then None else Some data))

let scan t (table : Db.table) ~lo ~hi =
  check_active t;
  let on_leaf leaf = t.node_set <- (leaf, Btree.leaf_version leaf) :: t.node_set in
  let entries = Btree.scan_range table.index ~lo ~hi ~on_leaf () in
  List.filter_map
    (fun (key, record) ->
      if Option.is_some (find_own_delete t table key) then None
      else
        match find_own_write t table key with
        | Some w -> Some (key, w.wdata)
        | None ->
            let tid, data = Record.stable_read record in
            t.reads <- (record, tid) :: t.reads;
            if Tid.is_absent tid then None else Some (key, data))
    entries

let live_record (table : Db.table) key =
  let value, _leaf = Btree.get table.index key in
  match value with
  | None -> None
  | Some record -> if Tid.is_absent (Record.tid record) then None else Some record

let write t (table : Db.table) key data =
  check_active t;
  match find_own_insert t table key with
  | Some i -> i.idata <- data
  | None -> (
      match find_own_write t table key with
      | Some w -> w.wdata <- data
      | None -> (
          match live_record table key with
          | Some record -> t.writes <- { wtable = table; wkey = key; wrecord = record; wdata = data } :: t.writes
          | None -> raise Not_found))

let insert t (table : Db.table) key data =
  check_active t;
  if Option.is_some (find_own_insert t table key) then invalid_arg "Txn.insert: duplicate buffered insert";
  t.inserts <- { itable = table; ikey = key; idata = data } :: t.inserts

let delete t (table : Db.table) key =
  check_active t;
  match find_own_insert t table key with
  | Some i -> t.inserts <- List.filter (fun x -> x != i) t.inserts
  | None -> (
      match live_record table key with
      | Some record ->
          t.deletes <- { dtable = table; dkey = key; drecord = record } :: t.deletes;
          (* A buffered write of the same key is subsumed by the delete. *)
          t.writes <- List.filter (fun w -> not (w.wtable == table && String.equal w.wkey key)) t.writes
      | None -> raise Not_found)

let abort t = t.finished <- true

(* ---- commit protocol ---- *)

let lock_order (na, ka) (nb, kb) =
  let c = String.compare na nb in
  if c <> 0 then c else String.compare ka kb

(* Records to lock in phase 1: all update and delete targets, in global
   (table, key) order, without duplicates. *)
let lock_targets t =
  let entries =
    List.map (fun w -> ((w.wtable.Db.name, w.wkey), w.wrecord)) t.writes
    @ List.map (fun d -> ((d.dtable.Db.name, d.dkey), d.drecord)) t.deletes
  in
  let sorted = List.sort (fun (a, _) (b, _) -> lock_order a b) entries in
  let rec dedup = function
    | (ka, ra) :: ((kb, rb) :: _ as rest) when lock_order ka kb = 0 && ra == rb -> dedup rest
    | x :: rest -> x :: dedup rest
    | [] -> []
  in
  List.map snd (dedup sorted)

(* Tables whose indexes change structurally, in name order (so concurrent
   committers acquire tree locks consistently). *)
let structural_tables t =
  let names =
    List.map (fun i -> i.itable) t.inserts @ List.map (fun d -> d.dtable) t.deletes
  in
  let sorted = List.sort_uniq (fun (a : Db.table) b -> String.compare a.Db.name b.Db.name) names in
  sorted

let validate t ~locked =
  let nodes_ok =
    List.for_all (fun (leaf, v) -> Btree.leaf_version leaf = v) t.node_set
  in
  nodes_ok
  && List.for_all
       (fun (record, observed) ->
         let current = Record.tid record in
         if Tid.unlocked current <> observed then false
         else (not (Tid.is_locked current)) || List.memq record locked)
       t.reads

let commit_tid t ~locked ~epoch_now =
  let max_tid acc tid = if Tid.compare_data tid acc > 0 then tid else acc in
  let acc = Db.last_tid t.worker in
  let acc = List.fold_left (fun acc (_, tid) -> max_tid acc tid) acc t.reads in
  let acc = List.fold_left (fun acc r -> max_tid acc (Tid.unlocked (Record.tid r))) acc locked in
  let epoch = max epoch_now (Tid.epoch acc) in
  Tid.next_after acc ~epoch

let commit t =
  check_active t;
  t.finished <- true;
  let locked = lock_targets t in
  List.iter Record.lock locked;
  let epoch_now = Epoch.current (Db.epoch t.db) in
  let trees = structural_tables t in
  List.iter (fun (table : Db.table) -> Btree.lock_tree table.index) trees;
  let release_trees () = List.iter (fun (table : Db.table) -> Btree.unlock_tree table.index) trees in
  let fail () =
    release_trees ();
    List.iter Record.unlock locked;
    Db.note_abort t.worker;
    Error `Conflict
  in
  if not (validate t ~locked) then fail ()
  else begin
    let tid = commit_tid t ~locked ~epoch_now in
    (* Apply inserts first; a duplicate key is a conflict and requires
       undoing the inserts already applied. *)
    let rec apply_inserts applied = function
      | [] -> Ok ()
      | i :: rest -> (
          let record = Record.create_committed i.idata ~tid in
          match Btree.insert_unlocked i.itable.Db.index i.ikey record with
          | `Inserted -> apply_inserts (i :: applied) rest
          | `Duplicate _ ->
              List.iter
                (fun j -> ignore (Btree.remove_unlocked j.itable.Db.index j.ikey : Record.t option))
                applied;
              Error `Conflict)
    in
    match apply_inserts [] t.inserts with
    | Error `Conflict -> fail ()
    | Ok () ->
        List.iter
          (fun d ->
            ignore (Btree.remove_unlocked d.dtable.Db.index d.dkey : Record.t option);
            Record.mark_absent d.drecord ~tid)
          t.deletes;
        let deleted = List.map (fun d -> d.drecord) t.deletes in
        List.iter
          (fun w -> if not (List.memq w.wrecord deleted) then Record.install w.wrecord ~data:w.wdata ~tid)
          t.writes;
        release_trees ();
        Db.set_last_tid t.worker tid;
        Epoch.on_commit (Db.epoch t.db);
        Ok tid
  end

type 'a outcome = Committed of 'a * Tid.t | Rolled_back | Conflict_exhausted

(* Attempts before [run] gives up on a conflicting transaction. *)
let max_attempts = 64

let run db worker f =
  let rec attempt n =
    if n > max_attempts then Conflict_exhausted
    else begin
      let txn = begin_ db worker in
      match f txn with
      | x -> (
          match commit txn with
          | Ok tid -> Committed (x, tid)
          | Error `Conflict -> attempt (n + 1))
      | exception Rollback ->
          abort txn;
          Rolled_back
    end
  in
  attempt 1
