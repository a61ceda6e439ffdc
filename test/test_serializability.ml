(* Serializability checking for the Silo OCC engine.

   Property: for any two transactions (random mixes of reads, writes,
   inserts and deletes over a small keyspace) executed with a random
   interleaving of their operations, the set of outcomes that actually
   commit must be explainable by SOME serial order of the committed
   transactions executed on a copy of the initial database. This is the
   definition of serializability, tested directly rather than through
   invariants. *)

module Key = Silo.Key
module Txn = Silo.Txn
module Db = Silo.Db

let keyspace = 6

(* A transaction program: a list of operations over int-valued cells.
   Writes store [base + observed] so that write values depend on reads
   (making lost updates and write skew visible). *)
type op = Read of int | Add of int * int (* key, delta *) | Put of int * int | Del of int

let pp_op = function
  | Read k -> Printf.sprintf "R%d" k
  | Add (k, d) -> Printf.sprintf "A%d+%d" k d
  | Put (k, v) -> Printf.sprintf "P%d=%d" k v
  | Del k -> Printf.sprintf "D%d" k

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun k -> Read (abs k mod keyspace)) int);
        (3, map2 (fun k d -> Add (abs k mod keyspace, 1 + (abs d mod 9))) int int);
        (2, map2 (fun k v -> Put (abs k mod keyspace, abs v mod 100)) int int);
        (1, map (fun k -> Del (abs k mod keyspace)) int);
      ])

let program_gen = QCheck.Gen.(list_size (int_range 1 6) op_gen)

(* Fresh database with cells 0..keyspace/2 present (so deletes and absent
   reads both occur). *)
let make_db () =
  let db = Db.create () in
  let table = Db.add_table db "cells" in
  let w = Db.worker () in
  let txn = Txn.begin_ db w in
  for k = 0 to (keyspace / 2) - 1 do
    Txn.insert txn table (Key.of_int k) [| string_of_int (10 * k) |]
  done;
  (match Txn.commit txn with Ok _ -> () | Error `Conflict -> assert false);
  (db, table)

(* Run one op inside a transaction; all exceptions from missing keys are
   absorbed into no-ops so programs are total. *)
let apply_op table txn = function
  | Read k -> ignore (Txn.read txn table (Key.of_int k) : string array option)
  | Add (k, d) -> (
      match Txn.read txn table (Key.of_int k) with
      | Some data -> Txn.write txn table (Key.of_int k) [| string_of_int (int_of_string data.(0) + d) |]
      | None -> ())
  | Put (k, v) -> (
      match Txn.read txn table (Key.of_int k) with
      | Some _ -> Txn.write txn table (Key.of_int k) [| string_of_int v |]
      | None -> Txn.insert txn table (Key.of_int k) [| string_of_int v |])
  | Del k -> (
      match Txn.read txn table (Key.of_int k) with
      | Some _ -> Txn.delete txn table (Key.of_int k)
      | None -> ())

(* Database snapshot as an assoc list. *)
let snapshot table =
  List.init keyspace (fun k ->
      let v, _ = Silo.Btree.get table.Db.index (Key.of_int k) in
      match v with
      | Some record ->
          let tid, data = Silo.Record.stable_read record in
          if Silo.Tid.is_absent tid then (k, None) else (k, Some data.(0))
      | None -> (k, None))

(* Execute programs serially in the given order on a fresh database;
   return the final snapshot. Serial execution cannot conflict. *)
let run_serial order =
  let db, table = make_db () in
  List.iter
    (fun program ->
      let w = Db.worker () in
      let txn = Txn.begin_ db w in
      List.iter (apply_op table txn) program;
      match Txn.commit txn with
      | Ok _ -> ()
      | Error `Conflict -> failwith "serial execution conflicted")
    order;
  snapshot table

let run_interleaved (p1, p2, schedule) =
  let db, table = make_db () in
  let w1 = Db.worker () and w2 = Db.worker () in
  let t1 = Txn.begin_ db w1 and t2 = Txn.begin_ db w2 in
  let q1 = ref p1 and q2 = ref p2 in
  let step use_first =
    match (use_first, !q1, !q2) with
    | true, op :: rest, _ ->
        apply_op table t1 op;
        q1 := rest
    | false, _, op :: rest ->
        apply_op table t2 op;
        q2 := rest
    | _ -> ()
  in
  List.iter step schedule;
  List.iter (fun op -> apply_op table t1 op) !q1;
  List.iter (fun op -> apply_op table t2 op) !q2;
  let ok1 = match Txn.commit t1 with Ok _ -> true | Error `Conflict -> false in
  let ok2 = match Txn.commit t2 with Ok _ -> true | Error `Conflict -> false in
  (snapshot table, ok1, ok2)

let serial_candidates (p1, p2) ~ok1 ~ok2 =
  match (ok1, ok2) with
  | true, true -> [ [ p1; p2 ]; [ p2; p1 ] ]
  | true, false -> [ [ p1 ] ]
  | false, true -> [ [ p2 ] ]
  | false, false -> [ [] ]

let prop_serializable =
  QCheck.Test.make ~name:"interleaved execution equals some serial order" ~count:500
    (QCheck.make
       QCheck.Gen.(triple program_gen program_gen (list_size (int_range 0 12) bool))
       ~print:(fun (p1, p2, schedule) ->
         Printf.sprintf "T1=[%s] T2=[%s] sched=[%s]"
           (String.concat ";" (List.map pp_op p1))
           (String.concat ";" (List.map pp_op p2))
           (String.concat "" (List.map (fun b -> if b then "1" else "2") schedule))))
    (fun (p1, p2, schedule) ->
      let observed, ok1, ok2 = run_interleaved (p1, p2, schedule) in
      let candidates = serial_candidates (p1, p2) ~ok1 ~ok2 in
      List.exists (fun order -> run_serial order = observed) candidates)

(* Three transactions, fully random round-robin-ish schedules: committed
   programs must still admit a serial explanation (all permutations of the
   committed subset are candidates). *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y != x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

let prop_three_txn_serializable =
  QCheck.Test.make ~name:"three interleaved txns equal some serial order" ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair
           (triple program_gen program_gen program_gen)
           (list_size (int_range 0 15) (int_range 0 2)))
       ~print:(fun ((p1, p2, p3), _) ->
         Printf.sprintf "T1=[%s] T2=[%s] T3=[%s]"
           (String.concat ";" (List.map pp_op p1))
           (String.concat ";" (List.map pp_op p2))
           (String.concat ";" (List.map pp_op p3))))
    (fun ((p1, p2, p3), schedule) ->
      let db, table = make_db () in
      let txns =
        Array.map
          (fun program -> (Txn.begin_ db (Db.worker ()), ref program))
          [| p1; p2; p3 |]
      in
      let step i =
        let txn, q = txns.(i) in
        match !q with
        | op :: rest ->
            apply_op table txn op;
            q := rest
        | [] -> ()
      in
      List.iter step schedule;
      Array.iteri
        (fun i _ ->
          let txn, q = txns.(i) in
          List.iter (fun op -> apply_op table txn op) !q)
        txns;
      (* Tag with the transaction index so duplicate programs (physically
         shared lists, e.g. two empty programs) stay distinct during
         permutation. *)
      let committed =
        List.filteri
          (fun i _ ->
            let txn, _ = txns.(i) in
            match Txn.commit txn with Ok _ -> true | Error `Conflict -> false)
          [ (0, p1); (1, p2); (2, p3) ]
      in
      let observed = snapshot table in
      List.exists
        (fun order -> run_serial (List.map snd order) = observed)
        (permutations committed))

let () =
  Alcotest.run "serializability"
    [
      ( "occ",
        [
          QCheck_alcotest.to_alcotest prop_serializable;
          QCheck_alcotest.to_alcotest prop_three_txn_serializable;
        ] );
    ]
