(* Edge cases and secondary behaviours across all libraries — boundary
   inputs, rare code paths, and cross-checks that the main suites do not
   cover. *)

module Rng = Engine.Rng
module Dist = Engine.Dist
module Sim = Engine.Sim

(* ---- engine ---- *)

let test_sim_cancel_after_fire () =
  let sim = Sim.create () in
  let h = Later.after sim ~delay:1. (fun () -> ()) in
  Sim.run sim;
  (* cancelling a fired event is a harmless no-op *)
  Sim.cancel sim h;
  Sim.cancel sim h;
  Alcotest.(check int) "queue empty" 0 (Sim.pending sim)

let test_sim_zero_delay_event () =
  let sim = Sim.create () in
  let fired = ref false in
  ignore (Later.after sim ~delay:0. (fun () -> fired := true) : Sim.handle);
  Sim.run sim;
  Alcotest.(check bool) "zero-delay fires" true !fired

let test_dist_names () =
  let check_name d expected = Alcotest.(check string) expected expected (Dist.name d) in
  check_name (Dist.deterministic 1.) "fixed";
  check_name (Dist.exponential 1.) "exp";
  check_name (Dist.bimodal1 ~mean:1.) "bimodal1";
  check_name (Dist.bimodal2 ~mean:1.) "bimodal2";
  check_name (Dist.empirical [| 1. |]) "empirical"

(* ---- stats ---- *)

let test_tally_invalid_percentile () =
  let t = Stats.Tally.create () in
  Stats.Tally.record t 1.;
  Alcotest.check_raises "p out of range" (Invalid_argument "Tally.percentile: p out of [0,100]")
    (fun () -> ignore (Stats.Tally.percentile t 101. : float));
  Alcotest.check_raises "p NaN" (Invalid_argument "Tally.percentile: p out of [0,100]")
    (fun () -> ignore (Stats.Tally.percentile t nan : float))

let test_tally_single_sample () =
  let t = Stats.Tally.create () in
  Stats.Tally.record t 42.;
  Alcotest.(check (float 0.)) "p1" 42. (Stats.Tally.percentile t 1.);
  Alcotest.(check (float 0.)) "p99" 42. (Stats.Tally.p99 t)

(* ---- net ---- *)

let test_rss_odd_queue_counts () =
  List.iter
    (fun queues ->
      let rss = Net.Rss.create ~queues () in
      let hist = Array.make queues 0 in
      for c = 0 to 999 do
        let q = Net.Rss.queue_of_conn rss c in
        hist.(q) <- hist.(q) + 1
      done;
      Alcotest.(check int) "queue count" queues (Array.length hist);
      Alcotest.(check int) "total" 1000 (Array.fold_left ( + ) 0 hist))
    [ 1; 3; 7; 16 ]

let test_loadgen_conn_validation () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:22 in
  let pool = Net.Request.create_pool () in
  Alcotest.check_raises "conns" (Invalid_argument "Loadgen.create: conns < 1") (fun () ->
      ignore
        (Net.Loadgen.create sim ~rng ~pool ~conns:0 ~rate:1.
           ~service:(Dist.deterministic 1.) ()
          : Net.Loadgen.t));
  Alcotest.check_raises "rate" (Invalid_argument "Loadgen.create: rate <= 0") (fun () ->
      ignore
        (Net.Loadgen.create sim ~rng ~pool ~conns:1 ~rate:0.
           ~service:(Dist.deterministic 1.) ()
          : Net.Loadgen.t));
  let gen = Net.Loadgen.create sim ~rng ~pool ~conns:1 ~rate:1. ~service:(Dist.deterministic 1.) () in
  Net.Loadgen.set_target gen ignore;
  let measure_msg = "Loadgen.start: measure must be finite and > 0" in
  let warmup_msg = "Loadgen.start: warmup must be finite and >= 0" in
  List.iter
    (fun (name, warmup, measure, msg) ->
      Alcotest.check_raises name (Invalid_argument msg) (fun () ->
          Net.Loadgen.start gen ~warmup ~measure))
    [
      ("measure 0", 0., 0., measure_msg);
      ("measure NaN", 0., nan, measure_msg);
      ("measure infinite", 0., infinity, measure_msg);
      ("warmup < 0", -1., 10., warmup_msg);
      ("warmup NaN", nan, 10., warmup_msg);
    ]

(* ---- silo ---- *)

let test_btree_empty_ops () =
  let t : int Silo.Btree.t = Silo.Btree.create () in
  Alcotest.(check int) "empty length" 0 (Silo.Btree.length t);
  let v, _leaf = Silo.Btree.get t "missing" in
  Alcotest.(check (option int)) "get on empty" None v;
  Alcotest.(check (option int)) "remove on empty" None (Silo.Btree.remove t "missing");
  Alcotest.(check int) "scan on empty" 0
    (List.length (Silo.Btree.scan_range t ~lo:"" ~hi:"\xff" ()));
  Silo.Btree.check_invariants t

let test_btree_commit_interface () =
  let t = Silo.Btree.create () in
  Silo.Btree.lock_tree t;
  (match Silo.Btree.insert_unlocked t "k" 1 with
  | `Inserted -> ()
  | `Duplicate _ -> Alcotest.fail "unexpected duplicate");
  (match Silo.Btree.insert_unlocked t "k" 2 with
  | `Duplicate 1 -> ()
  | _ -> Alcotest.fail "duplicate not detected");
  Alcotest.(check (option int)) "remove unlocked" (Some 1) (Silo.Btree.remove_unlocked t "k");
  Silo.Btree.unlock_tree t;
  Silo.Btree.check_invariants t

let test_btree_reverse_insertion () =
  let t = Silo.Btree.create () in
  for i = 500 downto 0 do
    match Silo.Btree.insert t (Silo.Key.of_int i) i with
    | `Inserted -> ()
    | `Duplicate _ -> Alcotest.fail "dup"
  done;
  Silo.Btree.check_invariants t;
  let all = Silo.Btree.scan_range t ~lo:"" ~hi:"\xff\xff\xff\xff\xff\xff\xff\xff" () in
  Alcotest.(check int) "all present" 501 (List.length all);
  Alcotest.(check bool) "sorted ascending" true
    (List.map snd all = List.init 501 Fun.id)

let test_key_of_ints_str_ordering () =
  (* composite (ints, string) keys group by the int prefix. *)
  let a = Silo.Key.of_ints_str [ 1; 2 ] "SMITH" in
  let b = Silo.Key.of_ints_str [ 1; 2 ] "SMYTH" in
  let c = Silo.Key.of_ints_str [ 1; 3 ] "ADAMS" in
  Alcotest.(check bool) "string orders within prefix" true (String.compare a b < 0);
  Alcotest.(check bool) "prefix dominates" true (String.compare b c < 0)

let test_txn_reuse_rejected () =
  let db = Silo.Db.create () in
  let table = Silo.Db.add_table db "t" in
  let w = Silo.Db.worker db in
  let txn = Silo.Txn.begin_ db w in
  Silo.Txn.insert txn table "x" [| "1" |];
  (match Silo.Txn.commit txn with Ok _ -> () | Error `Conflict -> Alcotest.fail "conflict");
  Alcotest.check_raises "reuse after commit"
    (Invalid_argument "Txn: transaction already finished") (fun () ->
      ignore (Silo.Txn.read txn table "x" : string array option))

let test_db_duplicate_table () =
  let db = Silo.Db.create () in
  ignore (Silo.Db.add_table db "t" : Silo.Db.table);
  Alcotest.check_raises "duplicate" (Invalid_argument "Db.add_table: duplicate table t")
    (fun () -> ignore (Silo.Db.add_table db "t" : Silo.Db.table));
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Silo.Db.find_table db "nope" : Silo.Db.table))

let test_record_absent_lifecycle () =
  let r = Silo.Record.create [| "ghost" |] in
  Silo.Record.lock r;
  Silo.Record.mark_absent r ~tid:(Silo.Tid.make ~epoch:1 ~seq:0);
  let tid, _ = Silo.Record.stable_read r in
  Alcotest.(check bool) "deleted absent" true (Silo.Tid.is_absent tid);
  Silo.Record.lock r;
  Silo.Record.install r ~data:[| "alive" |] ~tid:(Silo.Tid.make ~epoch:1 ~seq:1);
  let tid2, data = Silo.Record.stable_read r in
  Alcotest.(check bool) "install clears nothing implicitly" false (Silo.Tid.is_absent tid2);
  Alcotest.(check string) "data installed" "alive" data.(0)

(* ---- memcached workloads ---- *)

(* An ETC SET moves its 37 B key and an 11 B-4 KB value at 0.2 ns/B on
   top of 1 µs; a GET is the lookup price. *)
let test_workload_etc_value_range () =
  let get = 0.7 +. (0.0001 *. float_of_int (37 + 64)) in
  let lo = 1.0 +. (0.0002 *. float_of_int (37 + 11))
  and hi = 1.0 +. (0.0002 *. float_of_int (37 + 4096)) in
  match Experiments.Figures.memcached_service Etc ~samples:3_000 with
  | Dist.Empirical a ->
      Array.iter
        (fun x ->
          if x <> get && (x < lo || x > hi) then
            Alcotest.failf "ETC sample %g outside [%g, %g]" x lo hi)
        a
  | _ -> Alcotest.fail "not an empirical distribution"

(* ---- models ---- *)

let test_queueing_bimodal2_partitioned_pathological () =
  (* §3.4 omits bimodal-2 because multi-queue FCFS is pathological there;
     verify the pathology: partitioned p99 at moderate load is an order of
     magnitude above centralized. *)
  let open Models.Queueing in
  let service = Dist.bimodal2 ~mean:1. in
  let p99 topology =
    let r = simulate { servers = 16; policy = Fcfs; topology } ~service ~load:0.5
        ~requests:60_000 ~seed:9
    in
    Stats.Tally.p99 r.latencies
  in
  let central = p99 Central and partitioned = p99 Partitioned in
  Alcotest.(check bool)
    (Printf.sprintf "partitioned %.1f >> central %.1f" partitioned central)
    true
    (partitioned > 5. *. central)

let () =
  Alcotest.run "edge-cases"
    [
      ( "engine",
        [
          Alcotest.test_case "cancel after fire" `Quick test_sim_cancel_after_fire;
          Alcotest.test_case "zero-delay event" `Quick test_sim_zero_delay_event;
          Alcotest.test_case "dist names/pp" `Quick test_dist_names;
        ] );
      ( "stats",
        [
          Alcotest.test_case "invalid percentile" `Quick test_tally_invalid_percentile;
          Alcotest.test_case "single sample" `Quick test_tally_single_sample;
        ] );
      ( "net",
        [
          Alcotest.test_case "rss odd queues" `Quick test_rss_odd_queue_counts;
          Alcotest.test_case "loadgen validation" `Quick test_loadgen_conn_validation;
        ] );
      ( "silo",
        [
          Alcotest.test_case "btree empty" `Quick test_btree_empty_ops;
          Alcotest.test_case "btree commit interface" `Quick test_btree_commit_interface;
          Alcotest.test_case "btree reverse insertion" `Quick test_btree_reverse_insertion;
          Alcotest.test_case "composite keys" `Quick test_key_of_ints_str_ordering;
          Alcotest.test_case "txn reuse rejected" `Quick test_txn_reuse_rejected;
          Alcotest.test_case "duplicate table" `Quick test_db_duplicate_table;
          Alcotest.test_case "absent record" `Quick test_record_absent_lifecycle;
        ] );
      ( "kvstore",
        [ Alcotest.test_case "etc value range" `Quick test_workload_etc_value_range ] );
      ( "models",
        [
          Alcotest.test_case "bimodal-2 pathology" `Slow
            test_queueing_bimodal2_partitioned_pathological;
        ] );
    ]
