(* Tests for lib/core: the ZygOS shuffle layer — PCB state machine,
   per-connection ordering, work conservation, steal accounting — plus the
   steal policy. Includes a model-based property test and a real multicore
   stress test of the Mutex instantiation. *)

module S = Core.Sched.Sim_sched
module Mt = Core.Sched.Mt_sched
module Policy = Core.Steal_policy

(* A dispatch read back through the batch accessors as
   [(pcb, events in arrival order, victim)], with victim = -1 for a local
   dispatch. Without [steal_order] it polls only the core's own queue. *)
module View (X : Core.Sched.S) = struct
  let next ?steal_order sched ~core =
    let claimed =
      match steal_order with
      | None -> X.poll_local sched ~core
      | Some steal_order -> X.poll sched ~core ~steal_order
    in
    if claimed then
      Some
        ( X.batch_pcb sched ~core,
          List.init (X.batch_size sched ~core) (X.batch_event sched ~core),
          X.batch_stolen_from sched ~core )
    else None
end

module V = View (S)
module Mt_view = View (Mt)

(* ---- unit tests on the state machine ---- *)

let mk ?(cores = 4) ?(conns = 8) () =
  let sched = S.create ~cores in
  let pcbs = Array.init conns (fun c -> S.register sched ~conn:c ~home:(c mod cores)) in
  (sched, pcbs)

let test_deliver_makes_ready () =
  let sched, pcbs = mk () in
  Alcotest.(check bool) "idle initially" true (S.state pcbs.(0) = S.Idle);
  S.deliver sched pcbs.(0) "a";
  Alcotest.(check bool) "ready" true (S.state pcbs.(0) = S.Ready);
  Alcotest.(check int) "in home queue" 1 (S.queue_length sched ~core:0);
  S.deliver sched pcbs.(0) "b";
  Alcotest.(check int) "still once in queue" 1 (S.queue_length sched ~core:0);
  Alcotest.(check int) "two events pending" 2 (S.pending_events pcbs.(0))

let test_dispatch_batches () =
  let sched, pcbs = mk () in
  S.deliver sched pcbs.(0) "a";
  S.deliver sched pcbs.(0) "b";
  (match V.next sched ~core:0 with
  | Some (pcb, batch, -1) ->
      Alcotest.(check (list string)) "whole batch in order" [ "a"; "b" ] batch;
      Alcotest.(check bool) "busy" true (S.state pcb = S.Busy);
      S.complete sched pcb;
      Alcotest.(check bool) "idle after" true (S.state pcb = S.Idle)
  | _ -> Alcotest.fail "expected local dispatch");
  Alcotest.(check (option unit)) "queue drained" None
    (Option.map (fun _ -> ()) (V.next sched ~core:0))

let test_events_during_busy_reready () =
  let sched, pcbs = mk () in
  S.deliver sched pcbs.(0) "a";
  match V.next sched ~core:0 with
  | Some (pcb, _, _) ->
      S.deliver sched pcbs.(0) "late";
      Alcotest.(check bool) "still busy" true (S.state pcb = S.Busy);
      Alcotest.(check int) "not re-queued while busy" 0 (S.queue_length sched ~core:0);
      S.complete sched pcb;
      Alcotest.(check bool) "ready again" true (S.state pcb = S.Ready);
      Alcotest.(check int) "re-enqueued" 1 (S.queue_length sched ~core:0)
  | None -> Alcotest.fail "expected dispatch"

let test_steal () =
  let sched, pcbs = mk () in
  S.deliver sched pcbs.(0) "a";
  (* core 1 steals from core 0 *)
  match V.next sched ~core:1 ~steal_order:[| 0; 2; 3 |] with
  | Some (pcb, [ "a" ], 0) ->
      S.complete sched pcb;
      let c = S.counters sched ~core:1 in
      Alcotest.(check int) "steal counted" 1 c.S.steal_dispatches;
      Alcotest.(check int) "stolen events" 1 c.S.stolen_events;
      Alcotest.(check (float 1e-9)) "steal fraction" 1.0 (S.steal_fraction sched)
  | _ -> Alcotest.fail "expected steal from core 0"

let test_local_preferred_over_steal () =
  let sched, pcbs = mk () in
  S.deliver sched pcbs.(0) "remote";
  S.deliver sched pcbs.(1) "local";
  (* conn 1 homes on core 1; core 1 must take its own work first. *)
  match V.next sched ~core:1 ~steal_order:[| 0; 2; 3 |] with
  | Some (pcb, [ "local" ], -1) -> S.complete sched pcb
  | _ -> Alcotest.fail "expected local dispatch first"

let test_complete_non_busy_raises () =
  let sched, pcbs = mk () in
  Alcotest.check_raises "complete idle pcb" (Invalid_argument "Sched.complete: pcb not busy")
    (fun () -> S.complete sched pcbs.(0))

let test_register_validation () =
  let sched, _ = mk () in
  Alcotest.check_raises "home out of range" (Invalid_argument "Sched.register: home out of range")
    (fun () -> ignore (S.register sched ~conn:99 ~home:7 : string S.pcb));
  Alcotest.check_raises "cores < 1" (Invalid_argument "Sched.create: cores < 1") (fun () ->
      ignore (S.create ~cores:0 : string S.t))

let test_has_ready () =
  let sched, pcbs = mk () in
  Alcotest.(check bool) "nothing ready" false (S.has_ready sched);
  S.deliver sched pcbs.(3) "x";
  Alcotest.(check bool) "ready somewhere" true (S.has_ready sched)

(* ---- model-based property test ----

   Drive the scheduler with random operations and check the §4.3/§4.4
   invariants against a reference model: per-connection event order is
   preserved across arbitrary interleavings of dispatch/steal/complete,
   no event is lost or duplicated, and a connection is never dispatched
   concurrently. *)

type op = Deliver of int (* conn *) | Dispatch of int (* core *) | Complete of int (* conn *)

let op_gen ~conns ~cores =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun c -> Deliver (c mod conns)) small_nat);
        (3, map (fun c -> Dispatch (c mod cores)) small_nat);
        (3, map (fun c -> Complete (c mod conns)) small_nat);
      ])

let prop_scheduler_model =
  let conns = 6 and cores = 3 in
  QCheck.Test.make ~name:"random ops preserve ordering and conservation" ~count:500
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 200) (op_gen ~conns ~cores))
       ~print:(fun ops -> string_of_int (List.length ops)))
    (fun ops ->
      let sched = S.create ~cores in
      let pcbs = Array.init conns (fun c -> S.register sched ~conn:c ~home:(c mod cores)) in
      let next_event_id = ref 0 in
      let delivered = Array.make conns [] in
      let executed = Array.make conns [] in
      let in_flight : (int, (int S.pcb * int list)) Hashtbl.t = Hashtbl.create 8 in
      let rng = Engine.Rng.create ~seed:1 in
      List.iter
        (fun op ->
          match op with
          | Deliver conn ->
              let id = !next_event_id in
              incr next_event_id;
              delivered.(conn) <- id :: delivered.(conn);
              S.deliver sched pcbs.(conn) id
          | Dispatch core -> (
              let order = Array.init cores (fun i -> i) in
              Engine.Rng.shuffle_in_place rng order;
              match V.next sched ~core ~steal_order:order with
              | None -> ()
              | Some (pcb, batch, _) ->
                  let conn = S.conn pcb in
                  if Hashtbl.mem in_flight conn then
                    QCheck.Test.fail_report "connection dispatched twice concurrently";
                  Hashtbl.add in_flight conn (pcb, batch))
          | Complete conn -> (
              match Hashtbl.find_opt in_flight conn with
              | None -> ()
              | Some (pcb, batch) ->
                  Hashtbl.remove in_flight conn;
                  (* executed logs are kept newest-first *)
                  executed.(conn) <- List.rev_append batch executed.(conn);
                  S.complete sched pcb))
        ops;
      (* Drain: finish in-flight batches, then dispatch until empty. *)
      let flushed = Hashtbl.fold (fun conn v acc -> (conn, v) :: acc) in_flight [] in
      List.iter
        (fun (conn, (pcb, batch)) ->
          Hashtbl.remove in_flight conn;
          executed.(conn) <- List.rev_append batch executed.(conn);
          S.complete sched pcb)
        flushed;
      let rec drain () =
        match V.next sched ~core:0 ~steal_order:(Array.init cores (fun i -> i)) with
        | Some (pcb, batch, _) ->
            executed.(S.conn pcb) <- List.rev_append batch executed.(S.conn pcb);
            S.complete sched pcb;
            drain ()
        | None -> ()
      in
      drain ();
      (* Work conservation: nothing ready remains. *)
      if S.has_ready sched then QCheck.Test.fail_report "events left behind";
      (* Per-connection order and no loss/duplication. *)
      Array.iteri
        (fun conn log ->
          let got = List.rev executed.(conn) in
          let want = List.rev log in
          if got <> want then
            QCheck.Test.fail_reportf "conn %d: executed %s, delivered %s" conn
              (String.concat "," (List.map string_of_int got))
              (String.concat "," (List.map string_of_int want)))
        delivered;
      true)

(* ---- steal policy ---- *)

let test_policy_permutation () =
  let rng = Engine.Rng.create ~seed:2 in
  let p = Policy.create ~rng ~cores:8 ~self:3 in
  for _ = 1 to 50 do
    let order = Policy.victim_order p in
    let sorted = List.sort compare (Array.to_list order) in
    Alcotest.(check (list int)) "permutation of others" [ 0; 1; 2; 4; 5; 6; 7 ] sorted
  done

let test_policy_round_robin () =
  let rng = Engine.Rng.create ~seed:3 in
  let p = Policy.create ~rng ~cores:4 ~self:2 in
  Alcotest.(check (list int)) "rr order" [ 3; 0; 1 ] (Array.to_list (Policy.round_robin_order p))

let test_policy_randomizes () =
  let rng = Engine.Rng.create ~seed:4 in
  let p = Policy.create ~rng ~cores:16 ~self:0 in
  let a = Array.copy (Policy.victim_order p) in
  let differs = ref false in
  for _ = 1 to 20 do
    if Policy.victim_order p <> a then differs := true
  done;
  Alcotest.(check bool) "order varies across calls" true !differs

let test_policy_validation () =
  let rng = Engine.Rng.create ~seed:5 in
  Alcotest.check_raises "self out of range"
    (Invalid_argument "Steal_policy.create: self out of range") (fun () ->
      ignore (Policy.create ~rng ~cores:4 ~self:4 : Policy.t))

(* ---- real multicore stress of the Mutex instantiation ---- *)

let test_mt_sched_stress () =
  let cores = 4 and conns = 16 and per_conn = 300 in
  let sched = Mt.create ~cores in
  let pcbs = Array.init conns (fun c -> Mt.register sched ~conn:c ~home:(c mod cores)) in
  let executed = Array.init conns (fun _ -> Atomic.make []) in
  let total = Atomic.make 0 in
  let stop = Atomic.make false in
  let worker core =
    let rng = Engine.Rng.create ~seed:(100 + core) in
    let policy = Policy.create ~rng ~cores ~self:core in
    let rec loop () =
      match Mt_view.next sched ~core ~steal_order:(Policy.victim_order policy) with
      | Some (pcb, batch, _) ->
          let conn = Mt.conn pcb in
          List.iter
            (fun ev ->
              let log = executed.(conn) in
              let rec push () =
                let old = Atomic.get log in
                if not (Atomic.compare_and_set log old (ev :: old)) then push ()
              in
              push ();
              ignore (Atomic.fetch_and_add total 1 : int))
            batch;
          Mt.complete sched pcb;
          loop ()
      | None -> if not (Atomic.get stop) then loop ()
    in
    loop ()
  in
  let domains = List.init cores (fun core -> Domain.spawn (fun () -> worker core)) in
  (* Producer: deliver events with per-conn sequence numbers. *)
  for seq = 0 to per_conn - 1 do
    for conn = 0 to conns - 1 do
      Mt.deliver sched pcbs.(conn) seq
    done
  done;
  let deadline = Unix.gettimeofday () +. 30. in
  while Atomic.get total < conns * per_conn && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  Atomic.set stop true;
  List.iter Domain.join domains;
  Alcotest.(check int) "all events executed" (conns * per_conn) (Atomic.get total);
  Array.iteri
    (fun conn log ->
      let got = List.rev (Atomic.get log) in
      let want = List.init per_conn Fun.id in
      if got <> want then Alcotest.failf "conn %d out of order or lossy" conn)
    executed

let () =
  Alcotest.run "core"
    [
      ( "sched",
        [
          Alcotest.test_case "deliver makes ready" `Quick test_deliver_makes_ready;
          Alcotest.test_case "dispatch batches" `Quick test_dispatch_batches;
          Alcotest.test_case "busy re-ready" `Quick test_events_during_busy_reready;
          Alcotest.test_case "steal" `Quick test_steal;
          Alcotest.test_case "local first" `Quick test_local_preferred_over_steal;
          Alcotest.test_case "complete non-busy" `Quick test_complete_non_busy_raises;
          Alcotest.test_case "register validation" `Quick test_register_validation;
          Alcotest.test_case "has_ready" `Quick test_has_ready;
          QCheck_alcotest.to_alcotest prop_scheduler_model;
        ] );
      ( "steal-policy",
        [
          Alcotest.test_case "permutation" `Quick test_policy_permutation;
          Alcotest.test_case "round robin" `Quick test_policy_round_robin;
          Alcotest.test_case "randomizes" `Quick test_policy_randomizes;
          Alcotest.test_case "validation" `Quick test_policy_validation;
        ] );
      ("multicore", [ Alcotest.test_case "mt stress" `Slow test_mt_sched_stress ]);
    ]
