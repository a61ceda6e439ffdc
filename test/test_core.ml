(* Tests for lib/core: the ZygOS shuffle layer — PCB state machine,
   per-connection ordering, work conservation, steal accounting — plus the
   steal policy. Includes a model-based property test. *)

module S = Core.Sched
module Policy = Core.Steal_policy

(* A dispatch read back through the batch accessors as
   [(conn, events in arrival order, victim)], with victim = -1 for a local
   dispatch. Without [steal_order] it polls only the core's own queue. *)
module V = struct
  let next ?steal_order sched ~core =
    let claimed =
      match steal_order with
      | None -> S.poll_local sched ~core
      | Some steal_order -> S.poll sched ~core ~steal_order
    in
    if claimed then
      Some
        ( S.batch_conn sched ~core,
          List.init (S.batch_size sched ~core) (S.batch_event sched ~core),
          S.batch_stolen_from sched ~core )
    else None
end

(* ---- unit tests on the state machine ---- *)

let mk ?(cores = 4) ?(conns = 8) () =
  let sched = S.create ~cores ~conns in
  for c = 0 to conns - 1 do
    S.register sched ~conn:c ~home:(c mod cores)
  done;
  sched

let test_deliver_makes_ready () =
  let sched = mk () in
  Alcotest.(check bool) "idle initially" true (S.state sched 0 = S.Idle);
  S.deliver sched 0 10;
  Alcotest.(check bool) "ready" true (S.state sched 0 = S.Ready);
  Alcotest.(check int) "in home queue" 1 (S.queue_length sched ~core:0);
  S.deliver sched 0 11;
  Alcotest.(check int) "still once in queue" 1 (S.queue_length sched ~core:0);
  Alcotest.(check bool) "still ready" true (S.state sched 0 = S.Ready)

let test_dispatch_batches () =
  let sched = mk () in
  S.deliver sched 0 10;
  S.deliver sched 0 11;
  (match V.next sched ~core:0 with
  | Some (conn, batch, -1) ->
      Alcotest.(check (list int)) "whole batch in order" [ 10; 11 ] batch;
      Alcotest.(check bool) "busy" true (S.state sched conn = S.Busy);
      S.complete sched conn;
      Alcotest.(check bool) "idle after" true (S.state sched conn = S.Idle)
  | _ -> Alcotest.fail "expected local dispatch");
  Alcotest.(check (option unit)) "queue drained" None
    (Option.map (fun _ -> ()) (V.next sched ~core:0))

let test_events_during_busy_reready () =
  let sched = mk () in
  S.deliver sched 0 10;
  match V.next sched ~core:0 with
  | Some (conn, _, _) ->
      S.deliver sched 0 12;
      Alcotest.(check bool) "still busy" true (S.state sched conn = S.Busy);
      Alcotest.(check int) "not re-queued while busy" 0 (S.queue_length sched ~core:0);
      S.complete sched conn;
      Alcotest.(check bool) "ready again" true (S.state sched conn = S.Ready);
      Alcotest.(check int) "re-enqueued" 1 (S.queue_length sched ~core:0)
  | None -> Alcotest.fail "expected dispatch"

let test_steal () =
  let sched = mk () in
  S.deliver sched 0 10;
  (* core 1 steals from core 0 *)
  match V.next sched ~core:1 ~steal_order:[| 0; 2; 3 |] with
  | Some (conn, [ 10 ], 0) ->
      S.complete sched conn;
      Alcotest.(check int) "stolen events" 1 (S.stolen_events sched);
      Alcotest.(check int) "no local events" 0 (S.local_events sched);
      Alcotest.(check (float 1e-9)) "steal fraction" 1.0 (S.steal_fraction sched)
  | _ -> Alcotest.fail "expected steal from core 0"

let test_local_preferred_over_steal () =
  let sched = mk () in
  S.deliver sched 0 10;
  S.deliver sched 1 20;
  (* conn 1 homes on core 1; core 1 must take its own work first. *)
  match V.next sched ~core:1 ~steal_order:[| 0; 2; 3 |] with
  | Some (1, [ 20 ], -1) -> S.complete sched 1
  | _ -> Alcotest.fail "expected local dispatch first"

let test_complete_non_busy_raises () =
  let sched = mk () in
  Alcotest.check_raises "complete idle pcb" (Invalid_argument "Sched.complete: pcb not busy")
    (fun () -> S.complete sched 0)

let test_register_validation () =
  let sched = mk () in
  Alcotest.check_raises "home out of range" (Invalid_argument "Sched.register: home out of range")
    (fun () -> S.register sched ~conn:7 ~home:7);
  Alcotest.check_raises "cores < 1" (Invalid_argument "Sched.create: cores < 1") (fun () ->
      ignore (S.create ~cores:0 ~conns:1 : S.t));
  Alcotest.check_raises "conns < 0" (Invalid_argument "Sched.create: conns < 0") (fun () ->
      ignore (S.create ~cores:1 ~conns:(-1) : S.t))

let test_has_ready () =
  let sched = mk () in
  Alcotest.(check bool) "nothing ready" false (S.has_ready sched);
  S.deliver sched 3 10;
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
      let sched = mk ~cores ~conns () in
      let next_event_id = ref 0 in
      let delivered = Array.make conns [] in
      let executed = Array.make conns [] in
      let in_flight : (int, int list) Hashtbl.t = Hashtbl.create 8 in
      let rng = Engine.Rng.create ~seed:1 in
      List.iter
        (fun op ->
          match op with
          | Deliver conn ->
              let id = !next_event_id in
              incr next_event_id;
              delivered.(conn) <- id :: delivered.(conn);
              S.deliver sched conn id
          | Dispatch core -> (
              let order = Array.init cores (fun i -> i) in
              Engine.Rng.shuffle_in_place rng order;
              match V.next sched ~core ~steal_order:order with
              | None -> ()
              | Some (conn, batch, _) ->
                  if Hashtbl.mem in_flight conn then
                    QCheck.Test.fail_report "connection dispatched twice concurrently";
                  Hashtbl.add in_flight conn batch)
          | Complete conn -> (
              match Hashtbl.find_opt in_flight conn with
              | None -> ()
              | Some batch ->
                  Hashtbl.remove in_flight conn;
                  (* executed logs are kept newest-first *)
                  executed.(conn) <- List.rev_append batch executed.(conn);
                  S.complete sched conn))
        ops;
      (* Drain: finish in-flight batches, then dispatch until empty. *)
      let flushed = Hashtbl.fold (fun conn v acc -> (conn, v) :: acc) in_flight [] in
      List.iter
        (fun (conn, batch) ->
          Hashtbl.remove in_flight conn;
          executed.(conn) <- List.rev_append batch executed.(conn);
          S.complete sched conn)
        flushed;
      let rec drain () =
        match V.next sched ~core:0 ~steal_order:(Array.init cores (fun i -> i)) with
        | Some (conn, batch, _) ->
            executed.(conn) <- List.rev_append batch executed.(conn);
            S.complete sched conn;
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
    ]
