(* White-box scenario tests of the Linux models: per-request cost
   accounting, partitioned vs floating rebalancing, per-socket
   serialization, and the shared-pool hand-off bottleneck. *)

module Sim = Engine.Sim
module Request = Net.Request
module Params = Systems.Params

let mk pool ~id ~conn ~service arrival =
  Request.alloc pool ~id ~conn ~measured:true [| arrival; service |]

let completion responses r =
  match List.assoc_opt r !responses with
  | Some t -> t
  | None -> Alcotest.fail "request not completed"

let make_part ?(cores = 2) ~conns () =
  let sim = Sim.create () in
  let pool = Request.create_pool () in
  let p = Params.default ~cores () in
  let responses = ref [] in
  let iface =
    Systems.Linux.partitioned sim p ~pool ~conns ~respond:(fun req ->
        responses := (req, Sim.now sim) :: !responses)
  in
  (sim, p, pool, iface, responses)

let make_float ?(cores = 2) ~conns () =
  let sim = Sim.create () in
  let pool = Request.create_pool () in
  let p = Params.default ~cores () in
  let responses = ref [] in
  let iface =
    Systems.Linux.floating sim p ~pool ~conns ~respond:(fun req ->
        responses := (req, Sim.now sim) :: !responses)
  in
  (sim, p, pool, iface, responses)

let conns_on_core_0 ~cores ~n =
  let rss = Net.Rss.create ~queues:cores () in
  let rec find c acc =
    if List.length acc = n then List.rev acc
    else find (c + 1) (if Net.Rss.queue_of_conn rss c = 0 then c :: acc else acc)
  in
  find 0 []

let test_partitioned_request_cost () =
  (* wakeup + epoll + 2 syscalls + 2 stack crossings + service. *)
  let sim, p, pool, iface, responses = make_part ~conns:4 () in
  let r = mk pool ~id:0 ~conn:0 ~service:10. 0. in
  iface.Systems.Iface.submit r;
  Sim.run sim;
  let expected =
    p.Params.linux_wakeup +. p.Params.linux_epoll
    +. (2. *. p.Params.linux_syscall)
    +. (2. *. p.Params.linux_netstack)
    +. 10.
  in
  Alcotest.(check (float 1e-9)) "exact cost" expected (completion responses r)

let test_floating_request_cost () =
  (* pool hand-off (lock) + wakeup + epoll + syscalls + stack + service. *)
  let sim, p, pool, iface, responses = make_float ~conns:4 () in
  let r = mk pool ~id:0 ~conn:0 ~service:10. 0. in
  iface.Systems.Iface.submit r;
  Sim.run sim;
  let expected =
    p.Params.linux_lock +. p.Params.linux_wakeup +. p.Params.linux_epoll
    +. (2. *. p.Params.linux_syscall)
    +. (2. *. p.Params.linux_netstack)
    +. 10.
  in
  Alcotest.(check (float 1e-9)) "exact cost" expected (completion responses r)

let test_partitioned_no_rescue_floating_rescues () =
  (* A long and a short request homed on core 0: partitioned makes the
     short one wait; floating dispatches it to the idle thread. *)
  match conns_on_core_0 ~cores:2 ~n:2 with
  | [ a; b ] ->
      let run make =
        let sim, _, pool, iface, responses = make ~conns:(b + 1) () in
        let long_req = mk pool ~id:0 ~conn:a ~service:100. 0. in
        let short_req = mk pool ~id:1 ~conn:b ~service:1. 0. in
        iface.Systems.Iface.submit long_req;
        iface.Systems.Iface.submit short_req;
        Sim.run sim;
        completion responses short_req
      in
      let partitioned = run (fun ~conns () -> make_part ~conns ()) in
      let floating = run (fun ~conns () -> make_float ~conns ()) in
      Alcotest.(check bool)
        (Printf.sprintf "partitioned %.1f blocks, floating %.1f rescues" partitioned floating)
        true
        (partitioned > 100. && floating < 30.)
  | _ -> Alcotest.fail "need 2 conns on core 0"

let test_floating_socket_serialization () =
  (* Two requests on ONE connection never run concurrently even with idle
     threads: the second completes after the first (§4.3's problem, solved
     in the floating model by the locking protocol). *)
  let sim, _, pool, iface, responses = make_float ~cores:4 ~conns:2 () in
  let r1 = mk pool ~id:0 ~conn:0 ~service:20. 0. in
  let r2 = mk pool ~id:1 ~conn:0 ~service:1. 0. in
  iface.Systems.Iface.submit r1;
  iface.Systems.Iface.submit r2;
  Sim.run sim;
  let t1 = completion responses r1 and t2 = completion responses r2 in
  Alcotest.(check bool)
    (Printf.sprintf "serialized: r2 at %.1f after r1 at %.1f" t2 t1)
    true
    (t2 > t1 && t2 > 21.)

let test_floating_dispatch_serializes () =
  (* The pool hand-off is a serial section: 16 simultaneous arrivals on 16
     idle cores still start at lock-interval spacing. *)
  let cores = 16 in
  let sim = Sim.create () in
  let pool = Request.create_pool () in
  let p = Params.default ~cores () in
  let responses = ref [] in
  let iface =
    Systems.Linux.floating sim p ~pool ~conns:cores ~respond:(fun req ->
        responses := (req, Sim.now sim) :: !responses)
  in
  let reqs = List.init cores (fun i -> mk pool ~id:i ~conn:i ~service:5. 0.) in
  List.iter iface.Systems.Iface.submit reqs;
  Sim.run sim;
  let times = List.map (fun r -> completion responses r) reqs in
  let span = List.fold_left Float.max 0. times -. List.fold_left Float.min infinity times in
  (* 16 hand-offs x 0.5µs lock = at least ~7.5µs of spread. *)
  Alcotest.(check bool)
    (Printf.sprintf "dispatch spread %.2fus >= 7.5" span)
    true (span >= 7.5)

let test_partitioned_batches_wakeup () =
  (* Requests queued behind the first one do not pay the wakeup again. *)
  match conns_on_core_0 ~cores:2 ~n:2 with
  | [ a; b ] ->
      let sim, p, pool, iface, responses = make_part ~conns:(b + 1) () in
      let r1 = mk pool ~id:0 ~conn:a ~service:10. 0. in
      let r2 = mk pool ~id:1 ~conn:b ~service:10. 0. in
      iface.Systems.Iface.submit r1;
      iface.Systems.Iface.submit r2;
      Sim.run sim;
      let per_req =
        p.Params.linux_epoll
        +. (2. *. p.Params.linux_syscall)
        +. (2. *. p.Params.linux_netstack)
        +. 10.
      in
      Alcotest.(check (float 1e-9)) "second request pays no wakeup"
        (p.Params.linux_wakeup +. (2. *. per_req))
        (completion responses r2)
  | _ -> Alcotest.fail "need 2 conns on core 0"

let () =
  Alcotest.run "linux-model"
    [
      ( "scenarios",
        [
          Alcotest.test_case "partitioned cost" `Quick test_partitioned_request_cost;
          Alcotest.test_case "floating cost" `Quick test_floating_request_cost;
          Alcotest.test_case "rescue semantics" `Quick test_partitioned_no_rescue_floating_rescues;
          Alcotest.test_case "socket serialization" `Quick test_floating_socket_serialization;
          Alcotest.test_case "dispatch serial section" `Quick test_floating_dispatch_serializes;
          Alcotest.test_case "wakeup batching" `Quick test_partitioned_batches_wakeup;
        ] );
    ]
