(* Tests for lib/silo: TIDs, records, the B+-tree (model-based), the OCC
   commit protocol (conflict/phantom semantics, multicore serializability)
   and TPC-C. *)

module Tid = Silo.Tid
module Record = Silo.Record
module Btree = Silo.Btree
module Key = Silo.Key
module Db = Silo.Db
module Txn = Silo.Txn
module Tpcc = Silo.Tpcc

(* ---- Tid ---- *)

let test_tid_fields () =
  let t = Tid.make ~epoch:5 ~seq:1234 in
  Alcotest.(check int) "epoch" 5 (Tid.epoch t);
  Alcotest.(check int) "seq" 1234 (Tid.seq t);
  Alcotest.(check bool) "not locked" false (Tid.is_locked t);
  Alcotest.(check bool) "not absent" false (Tid.is_absent t)

let test_tid_status_bits () =
  let t = Tid.make ~epoch:1 ~seq:2 in
  let l = Tid.locked t in
  Alcotest.(check bool) "locked" true (Tid.is_locked l);
  Alcotest.(check int) "lock keeps epoch" 1 (Tid.epoch l);
  Alcotest.(check int) "lock keeps seq" 2 (Tid.seq l);
  Alcotest.(check bool) "unlock" false (Tid.is_locked (Tid.unlocked l));
  let a = Tid.absent t in
  Alcotest.(check bool) "absent" true (Tid.is_absent a)

let test_tid_compare_and_next () =
  let a = Tid.make ~epoch:1 ~seq:5 and b = Tid.make ~epoch:2 ~seq:0 in
  Alcotest.(check bool) "epoch dominates" true (Tid.compare_data a b < 0);
  let n = Tid.next_after a ~epoch:1 in
  Alcotest.(check int) "same epoch increments seq" 6 (Tid.seq n);
  let n2 = Tid.next_after a ~epoch:3 in
  Alcotest.(check int) "new epoch resets seq" 0 (Tid.seq n2);
  Alcotest.(check int) "new epoch" 3 (Tid.epoch n2);
  Alcotest.check_raises "past epoch" (Invalid_argument "Tid.next_after: epoch in the past")
    (fun () -> ignore (Tid.next_after b ~epoch:1 : Tid.t))

let prop_tid_roundtrip =
  QCheck.Test.make ~name:"tid make/epoch/seq roundtrip" ~count:500
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (epoch, seq) ->
      let t = Tid.make ~epoch ~seq in
      Tid.epoch t = epoch && Tid.seq t = seq
      && (not (Tid.is_locked t))
      && not (Tid.is_absent t))

(* ---- Record ---- *)

let test_record_stable_read_and_install () =
  let r = Record.create [| "a"; "b" |] in
  let tid0, data0 = Record.stable_read r in
  Alcotest.(check int) "initial tid" Tid.zero tid0;
  Alcotest.(check string) "initial data" "a" data0.(0);
  Alcotest.(check bool) "lock" true (Record.try_lock r);
  Alcotest.(check bool) "second lock fails" false (Record.try_lock r);
  Record.install r ~data:[| "x"; "y" |] ~tid:(Tid.make ~epoch:1 ~seq:1);
  let tid1, data1 = Record.stable_read r in
  Alcotest.(check int) "new seq" 1 (Tid.seq tid1);
  Alcotest.(check string) "new data" "x" data1.(0);
  Alcotest.(check bool) "unlocked after install" false (Tid.is_locked (Record.tid r))

let test_record_errors () =
  let r = Record.create [| "a" |] in
  Alcotest.check_raises "unlock unlocked" (Invalid_argument "Record.unlock: not locked")
    (fun () -> Record.unlock r);
  Alcotest.check_raises "install without lock" (Invalid_argument "Record.install: not locked")
    (fun () -> Record.install r ~data:[| "b" |] ~tid:(Tid.make ~epoch:1 ~seq:1));
  Record.lock r;
  Alcotest.check_raises "install locked tid"
    (Invalid_argument "Record.install: new tid has lock bit") (fun () ->
      Record.install r ~data:[| "b" |] ~tid:(Tid.locked (Tid.make ~epoch:1 ~seq:1)));
  Record.unlock r

(* ---- Key ---- *)

let test_key_ordering () =
  Alcotest.(check bool) "numeric order preserved" true
    (String.compare (Key.of_int 2) (Key.of_int 10) < 0);
  Alcotest.(check bool) "tuple order" true
    (String.compare (Key.of_ints [ 1; 9 ]) (Key.of_ints [ 2; 0 ]) < 0);
  Alcotest.(check (list int)) "roundtrip" [ 3; 7; 42 ] (Key.to_ints (Key.of_ints [ 3; 7; 42 ]));
  Alcotest.(check bool) "succ is greater" true (String.compare (Key.succ "abc") "abc" > 0);
  Alcotest.check_raises "negative" (Invalid_argument "Key.of_int: negative") (fun () ->
      ignore (Key.of_int (-1) : string))

let prop_key_order_matches_int_order =
  QCheck.Test.make ~name:"key encoding is order-preserving" ~count:500
    QCheck.(pair (int_bound 1_000_000_000) (int_bound 1_000_000_000))
    (fun (a, b) -> compare a b = String.compare (Key.of_int a) (Key.of_int b))

(* ---- Btree: model-based ---- *)

type btree_op = Insert of int | Remove of int | Get of int | Scan of int * int

let btree_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun k -> Insert (k mod 500)) small_nat);
        (2, map (fun k -> Remove (k mod 500)) small_nat);
        (2, map (fun k -> Get (k mod 500)) small_nat);
        (1, map2 (fun a b -> Scan (a mod 500, b mod 500)) small_nat small_nat);
      ])

let prop_btree_model =
  QCheck.Test.make ~name:"btree matches Map model" ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 400) btree_op_gen)
       ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops)))
    (fun ops ->
      let tree = Btree.create () in
      let module M = Map.Make (String) in
      let model = ref M.empty in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Insert k ->
              let key = Key.of_int k in
              let r = Btree.insert tree key k in
              let expected = if M.mem key !model then `Dup else `Ins in
              (match (r, expected) with
              | `Inserted, `Ins -> model := M.add key k !model
              | `Duplicate _, `Dup -> ()
              | _ -> ok := false)
          | Remove k ->
              let key = Key.of_int k in
              let r = Btree.remove tree key in
              if (r <> None) <> M.mem key !model then ok := false;
              model := M.remove key !model
          | Get k ->
              let key = Key.of_int k in
              let v, _leaf = Btree.get tree key in
              if v <> M.find_opt key !model then ok := false
          | Scan (a, b) ->
              let lo = Key.of_int (min a b) and hi = Key.of_int (max a b) in
              let got = List.map fst (Btree.scan_range tree ~lo ~hi ()) in
              let expected =
                M.bindings !model
                |> List.filter (fun (k, _) ->
                       String.compare k lo >= 0 && String.compare k hi < 0)
                |> List.map fst
              in
              if got <> expected then ok := false)
        ops;
      Btree.check_invariants tree;
      if M.cardinal !model <> Btree.length tree then ok := false;
      !ok)

let test_btree_leaf_versions () =
  let tree = Btree.create () in
  ignore (Btree.insert tree (Key.of_int 1) 1 : [ `Inserted | `Duplicate of int ]);
  let _, leaf = Btree.get tree (Key.of_int 2) in
  let v0 = Btree.leaf_version leaf in
  ignore (Btree.insert tree (Key.of_int 2) 2 : [ `Inserted | `Duplicate of int ]);
  Alcotest.(check bool) "insert bumps version" true (Btree.leaf_version leaf > v0);
  let v1 = Btree.leaf_version leaf in
  ignore (Btree.remove tree (Key.of_int 1) : int option);
  Alcotest.(check bool) "remove bumps version" true (Btree.leaf_version leaf > v1)

let test_btree_split_bumps_version () =
  (* Filling one leaf past the fanout moves keys into a new node; the old
     leaf's version must change so that scans revalidate. *)
  let tree = Btree.create () in
  let _, leaf = Btree.get tree (Key.of_int 0) in
  let v0 = Btree.leaf_version leaf in
  for i = 0 to 40 do
    ignore (Btree.insert tree (Key.of_int i) i : [ `Inserted | `Duplicate of int ])
  done;
  Btree.check_invariants tree;
  Alcotest.(check bool) "version changed across split" true (Btree.leaf_version leaf > v0)

let test_btree_scan_reports_leaves () =
  let tree = Btree.create () in
  for i = 0 to 200 do
    ignore (Btree.insert tree (Key.of_int i) i : [ `Inserted | `Duplicate of int ])
  done;
  let leaves = ref 0 in
  let entries =
    Btree.scan_range tree ~lo:(Key.of_int 50) ~hi:(Key.of_int 100)
      ~on_leaf:(fun _ -> incr leaves)
      ()
  in
  Alcotest.(check int) "scan size" 50 (List.length entries);
  Alcotest.(check bool) "visited at least one leaf" true (!leaves >= 1)

(* ---- Epoch ---- *)

let test_epoch_advance () =
  let e = Silo.Epoch.create () in
  Alcotest.(check int) "initial" 1 (Silo.Epoch.current e);
  for _ = 1 to 4_095 do
    Silo.Epoch.on_commit e
  done;
  Alcotest.(check int) "not yet" 1 (Silo.Epoch.current e);
  Silo.Epoch.on_commit e;
  Alcotest.(check int) "advanced" 2 (Silo.Epoch.current e);
  Alcotest.(check int) "manual advance" 3 (Silo.Epoch.advance e)

(* ---- Txn ---- *)

let fresh_db () =
  let db = Db.create () in
  let t = Db.add_table db "t" in
  (db, t)

let commit_exn txn =
  match Txn.commit txn with
  | Ok tid -> tid
  | Error `Conflict -> Alcotest.fail "unexpected conflict"

let seed_key db t k v =
  let w = Db.worker db in
  let txn = Txn.begin_ db w in
  Txn.insert txn t k [| v |];
  ignore (commit_exn txn : Tid.t)

let test_txn_insert_and_read () =
  let db, t = fresh_db () in
  let w = Db.worker db in
  let txn = Txn.begin_ db w in
  Alcotest.(check bool) "absent before" true (Txn.read txn t "k" = None);
  Txn.insert txn t "k" [| "v" |];
  (match Txn.read txn t "k" with
  | Some d -> Alcotest.(check string) "reads own insert" "v" d.(0)
  | None -> Alcotest.fail "own insert invisible");
  ignore (commit_exn txn : Tid.t);
  let txn2 = Txn.begin_ db w in
  match Txn.read txn2 t "k" with
  | Some d -> Alcotest.(check string) "committed visible" "v" d.(0)
  | None -> Alcotest.fail "committed insert invisible"

let test_txn_write_and_delete () =
  let db, t = fresh_db () in
  seed_key db t "k" "v0";
  let w = Db.worker db in
  let txn = Txn.begin_ db w in
  Txn.write txn t "k" [| "v1" |];
  (match Txn.read txn t "k" with
  | Some d -> Alcotest.(check string) "reads own write" "v1" d.(0)
  | None -> Alcotest.fail "own write invisible");
  ignore (commit_exn txn : Tid.t);
  let txn2 = Txn.begin_ db w in
  Txn.delete txn2 t "k";
  Alcotest.(check bool) "reads own delete" true (Txn.read txn2 t "k" = None);
  ignore (commit_exn txn2 : Tid.t);
  let txn3 = Txn.begin_ db w in
  Alcotest.(check bool) "deleted invisible" true (Txn.read txn3 t "k" = None);
  Txn.abort txn3

let test_txn_write_absent_raises () =
  let db, t = fresh_db () in
  let w = Db.worker db in
  let txn = Txn.begin_ db w in
  Alcotest.check_raises "write absent" Not_found (fun () -> Txn.write txn t "nope" [| "x" |]);
  Alcotest.check_raises "delete absent" Not_found (fun () -> Txn.delete txn t "nope");
  Txn.abort txn

let test_txn_read_validation_conflict () =
  let db, t = fresh_db () in
  seed_key db t "a" "0";
  seed_key db t "b" "0";
  let w1 = Db.worker db and w2 = Db.worker db in
  (* t1 reads a, then t2 updates a and commits, then t1 tries to write b:
     t1's read of a is stale -> conflict. *)
  let t1 = Txn.begin_ db w1 in
  ignore (Txn.read t1 t "a" : string array option);
  let t2 = Txn.begin_ db w2 in
  Txn.write t2 t "a" [| "1" |];
  ignore (commit_exn t2 : Tid.t);
  Txn.write t1 t "b" [| "1" |];
  (match Txn.commit t1 with
  | Error `Conflict -> ()
  | Ok _ -> Alcotest.fail "stale read committed");
  Alcotest.(check int) "abort recorded" 1 (Db.aborts w1)

let test_txn_write_write_not_lost () =
  let db, t = fresh_db () in
  seed_key db t "a" "0";
  let w1 = Db.worker db and w2 = Db.worker db in
  (* Two read-modify-write increments, interleaved: the second to commit
     must abort (it read the pre-image). *)
  let t1 = Txn.begin_ db w1 in
  let v1 = match Txn.read t1 t "a" with Some d -> int_of_string d.(0) | None -> -1 in
  let t2 = Txn.begin_ db w2 in
  let v2 = match Txn.read t2 t "a" with Some d -> int_of_string d.(0) | None -> -1 in
  Txn.write t1 t "a" [| string_of_int (v1 + 1) |];
  Txn.write t2 t "a" [| string_of_int (v2 + 1) |];
  ignore (commit_exn t1 : Tid.t);
  (match Txn.commit t2 with
  | Error `Conflict -> ()
  | Ok _ -> Alcotest.fail "lost update committed");
  let w = Db.worker db in
  let txn = Txn.begin_ db w in
  (match Txn.read txn t "a" with
  | Some d -> Alcotest.(check string) "exactly one increment" "1" d.(0)
  | None -> Alcotest.fail "record vanished");
  Txn.abort txn

let test_txn_phantom_scan_conflict () =
  let db, t = fresh_db () in
  seed_key db t (Key.of_int 1) "x";
  seed_key db t (Key.of_int 5) "y";
  let w1 = Db.worker db and w2 = Db.worker db in
  (* t1 scans [0, 10); t2 inserts key 3 and commits; t1 then commits a
     write -> node-set validation must fail (phantom). *)
  let t1 = Txn.begin_ db w1 in
  let seen = Txn.scan t1 t ~lo:(Key.of_int 0) ~hi:(Key.of_int 10) in
  Alcotest.(check int) "initial scan" 2 (List.length seen);
  let t2 = Txn.begin_ db w2 in
  Txn.insert t2 t (Key.of_int 3) [| "z" |];
  ignore (commit_exn t2 : Tid.t);
  Txn.write t1 t (Key.of_int 1) [| "x2" |];
  match Txn.commit t1 with
  | Error `Conflict -> ()
  | Ok _ -> Alcotest.fail "phantom not detected"

let test_txn_absent_read_conflict () =
  let db, t = fresh_db () in
  seed_key db t (Key.of_int 100) "seed";
  let w1 = Db.worker db and w2 = Db.worker db in
  (* t1 reads a missing key; t2 inserts exactly that key; t1's commit must
     fail. *)
  let t1 = Txn.begin_ db w1 in
  Alcotest.(check bool) "missing" true (Txn.read t1 t (Key.of_int 7) = None);
  let t2 = Txn.begin_ db w2 in
  Txn.insert t2 t (Key.of_int 7) [| "new" |];
  ignore (commit_exn t2 : Tid.t);
  Txn.write t1 t (Key.of_int 100) [| "update" |];
  match Txn.commit t1 with
  | Error `Conflict -> ()
  | Ok _ -> Alcotest.fail "absent-read conflict not detected"

let test_txn_duplicate_insert_conflict () =
  let db, t = fresh_db () in
  let w1 = Db.worker db and w2 = Db.worker db in
  let t1 = Txn.begin_ db w1 in
  Txn.insert t1 t "dup" [| "a" |];
  let t2 = Txn.begin_ db w2 in
  Txn.insert t2 t "dup" [| "b" |];
  ignore (commit_exn t1 : Tid.t);
  (match Txn.commit t2 with
  | Error `Conflict -> ()
  | Ok _ -> Alcotest.fail "duplicate insert committed");
  let w = Db.worker db in
  let txn = Txn.begin_ db w in
  (match Txn.read txn t "dup" with
  | Some d -> Alcotest.(check string) "first wins" "a" d.(0)
  | None -> Alcotest.fail "record missing");
  Txn.abort txn

let test_txn_tid_monotonic_per_worker () =
  let db, t = fresh_db () in
  seed_key db t "k" "0";
  let w = Db.worker db in
  let tids =
    List.init 20 (fun i ->
        let txn = Txn.begin_ db w in
        Txn.write txn t "k" [| string_of_int i |];
        commit_exn txn)
  in
  let rec check = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "strictly increasing" true (Tid.compare_data a b < 0);
        check rest
    | _ -> ()
  in
  check tids

let test_txn_rollback_outcome () =
  let db, t = fresh_db () in
  let w = Db.worker db in
  (match Txn.run db w (fun txn ->
       Txn.insert txn t "never" [| "x" |];
       raise Txn.Rollback)
   with
  | Txn.Rolled_back -> ()
  | _ -> Alcotest.fail "expected Rolled_back");
  let txn = Txn.begin_ db w in
  Alcotest.(check bool) "rollback left no state" true (Txn.read txn t "never" = None);
  Txn.abort txn

(* Serializability under real concurrency: bank transfers between accounts
   on several domains preserve the total balance. *)
let test_txn_multicore_bank () =
  let db, t = fresh_db () in
  let accounts = 8 and domains = 4 and transfers = 400 in
  for a = 0 to accounts - 1 do
    seed_key db t (Key.of_int a) "1000"
  done;
  let body did =
    let w = Db.worker db in
    let rng = Engine.Rng.create ~seed:(1000 + did) in
    let committed = ref 0 in
    while !committed < transfers do
      let src = Engine.Rng.int rng accounts in
      let dst = (src + 1 + Engine.Rng.int rng (accounts - 1)) mod accounts in
      let amount = 1 + Engine.Rng.int rng 10 in
      match
        Txn.run db w (fun txn ->
            let read k =
              match Txn.read txn t (Key.of_int k) with
              | Some d -> int_of_string d.(0)
              | None -> Alcotest.fail "account missing"
            in
            let s = read src and d = read dst in
            Txn.write txn t (Key.of_int src) [| string_of_int (s - amount) |];
            Txn.write txn t (Key.of_int dst) [| string_of_int (d + amount) |])
      with
      | Txn.Committed ((), _) -> incr committed
      | Txn.Rolled_back | Txn.Conflict_exhausted -> ()
    done
  in
  let ds = List.init domains (fun i -> Domain.spawn (fun () -> body i)) in
  List.iter Domain.join ds;
  let w = Db.worker db in
  let txn = Txn.begin_ db w in
  let total =
    List.fold_left
      (fun acc a ->
        match Txn.read txn t (Key.of_int a) with
        | Some d -> acc + int_of_string d.(0)
        | None -> Alcotest.fail "account missing")
      0
      (List.init accounts Fun.id)
  in
  Txn.abort txn;
  Alcotest.(check int) "total balance conserved" (accounts * 1000) total

(* ---- TPC-C ---- *)

let tpcc = lazy (Tpcc.load ())

let test_tpcc_load_counts () =
  let t = Lazy.force tpcc in
  let db = Tpcc.db t in
  Alcotest.(check int) "item rows" 10_000 (Btree.length (Db.find_table db "item").Db.index);
  Alcotest.(check int) "customer rows" 3_000
    (Btree.length (Db.find_table db "customer").Db.index);
  Alcotest.(check int) "stock rows" 10_000 (Btree.length (Db.find_table db "stock").Db.index);
  Btree.check_invariants (Db.find_table db "order_line").Db.index

let test_tpcc_mix_ratios () =
  let rng = Engine.Rng.create ~seed:3 in
  let n = 50_000 in
  let counts = Hashtbl.create 8 in
  for _ = 1 to n do
    let tx = Tpcc.standard_mix rng in
    Hashtbl.replace counts tx (1 + Option.value ~default:0 (Hashtbl.find_opt counts tx))
  done;
  let frac tx = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts tx)) /. float_of_int n in
  Alcotest.(check bool) "NewOrder ~45%" true (abs_float (frac Tpcc.New_order -. 0.45) < 0.02);
  Alcotest.(check bool) "Payment ~43%" true (abs_float (frac Tpcc.Payment -. 0.43) < 0.02);
  Alcotest.(check bool) "OrderStatus ~4%" true (abs_float (frac Tpcc.Order_status -. 0.04) < 0.01);
  Alcotest.(check bool) "Delivery ~4%" true (abs_float (frac Tpcc.Delivery -. 0.04) < 0.01);
  Alcotest.(check bool) "StockLevel ~4%" true (abs_float (frac Tpcc.Stock_level -. 0.04) < 0.01)

let test_tpcc_each_type_commits () =
  let t = Lazy.force tpcc in
  let w = Db.worker (Tpcc.db t) in
  let rng = Engine.Rng.create ~seed:4 in
  List.iter
    (fun tx ->
      let committed = ref false in
      (* NewOrder occasionally rolls back by design; try a few times. *)
      for _ = 1 to 10 do
        if (not !committed) && Tpcc.execute t w rng tx = Tpcc.Committed then committed := true
      done;
      Alcotest.(check bool) (Tpcc.tx_name tx ^ " commits") true !committed)
    Tpcc.all_tx_types

let test_tpcc_consistency_after_run () =
  let t = Lazy.force tpcc in
  let w = Db.worker (Tpcc.db t) in
  let rng = Engine.Rng.create ~seed:5 in
  for _ = 1 to 3_000 do
    ignore (Tpcc.execute t w rng (Tpcc.standard_mix rng) : Tpcc.outcome)
  done;
  List.iter
    (fun (name, ok) -> if not ok then Alcotest.failf "consistency violated: %s" name)
    (Tpcc.consistency_check t)

let () =
  Alcotest.run "silo"
    [
      ( "tid",
        [
          Alcotest.test_case "fields" `Quick test_tid_fields;
          Alcotest.test_case "status bits" `Quick test_tid_status_bits;
          Alcotest.test_case "compare/next" `Quick test_tid_compare_and_next;
          QCheck_alcotest.to_alcotest prop_tid_roundtrip;
        ] );
      ( "record",
        [
          Alcotest.test_case "stable read/install" `Quick test_record_stable_read_and_install;
          Alcotest.test_case "errors" `Quick test_record_errors;
        ] );
      ( "key",
        [
          Alcotest.test_case "ordering" `Quick test_key_ordering;
          QCheck_alcotest.to_alcotest prop_key_order_matches_int_order;
        ] );
      ( "btree",
        [
          QCheck_alcotest.to_alcotest prop_btree_model;
          Alcotest.test_case "leaf versions" `Quick test_btree_leaf_versions;
          Alcotest.test_case "split bumps version" `Quick test_btree_split_bumps_version;
          Alcotest.test_case "scan reports leaves" `Quick test_btree_scan_reports_leaves;
        ] );
      ("epoch", [ Alcotest.test_case "advance" `Quick test_epoch_advance ]);
      ( "txn",
        [
          Alcotest.test_case "insert/read" `Quick test_txn_insert_and_read;
          Alcotest.test_case "write/delete" `Quick test_txn_write_and_delete;
          Alcotest.test_case "write absent raises" `Quick test_txn_write_absent_raises;
          Alcotest.test_case "read validation" `Quick test_txn_read_validation_conflict;
          Alcotest.test_case "no lost update" `Quick test_txn_write_write_not_lost;
          Alcotest.test_case "phantom via scan" `Quick test_txn_phantom_scan_conflict;
          Alcotest.test_case "absent-read conflict" `Quick test_txn_absent_read_conflict;
          Alcotest.test_case "duplicate insert" `Quick test_txn_duplicate_insert_conflict;
          Alcotest.test_case "tid monotonic" `Quick test_txn_tid_monotonic_per_worker;
          Alcotest.test_case "rollback" `Quick test_txn_rollback_outcome;
          Alcotest.test_case "multicore bank" `Slow test_txn_multicore_bank;
        ] );
      ( "tpcc",
        [
          Alcotest.test_case "load counts" `Slow test_tpcc_load_counts;
          Alcotest.test_case "mix ratios" `Quick test_tpcc_mix_ratios;
          Alcotest.test_case "each type commits" `Slow test_tpcc_each_type_commits;
          Alcotest.test_case "consistency after run" `Slow test_tpcc_consistency_after_run;
        ] );
    ]
