(* White-box scenario tests of the ZygOS system model: hand-crafted
   packet sequences through a small simulated machine, checking exact cost
   accounting, steal-based rescue of short requests stuck behind long
   ones, and the role of IPIs (§4.4–§4.5). *)

module Sim = Engine.Sim
module Rng = Engine.Rng
module Request = Net.Request

let default_params cores = Systems.Params.default ~cores ()

(* Build a tiny ZygOS machine and return (sim, submit, responses, iface).
   Responses are recorded as (request, completion time). *)
let make_machine ?(cores = 2) ?(params = None) ~conns () =
  let sim = Sim.create () in
  let pool = Request.create_pool () in
  let p = match params with Some p -> p | None -> default_params cores in
  let responses = ref [] in
  let iface =
    Systems.Zygos.create sim p ~rng:(Rng.create ~seed:1) ~pool ~conns
      ~respond:(fun req -> responses := (req, Sim.now sim) :: !responses)
      ()
  in
  (sim, pool, iface, responses)

let mk_req pool ~id ~conn ~service arrival =
  Request.alloc pool ~id ~conn ~arrival ~service ~measured:true

(* Two connections homed on the same core, as computed by the same RSS
   configuration the system uses. *)
let two_conns_same_home ~cores =
  let rss = Net.Rss.create ~queues:cores () in
  let rec find c acc =
    match acc with
    | a :: b :: _ -> (a, b)
    | _ ->
        if Net.Rss.queue_of_conn rss c = 0 then find (c + 1) (acc @ [ c ])
        else find (c + 1) acc
  in
  find 0 []

let test_single_request_cost () =
  (* One request through an idle machine: wake (dp_loop) + rx (dp_loop +
     dp_rx) + shuffle handoff + service + tx. Locks in the model's cost
     accounting. *)
  let p = default_params 2 in
  let sim, pool, iface, responses = make_machine ~cores:2 ~conns:4 () in
  let req = mk_req pool ~id:0 ~conn:0 ~service:10. 0. in
  iface.Systems.Iface.submit req;
  Sim.run sim;
  match !responses with
  | [ (r, at) ] ->
      Alcotest.(check bool) "same request" true (r = req);
      let expected =
        p.Systems.Params.dp_loop (* idle wakeup poll *)
        +. p.Systems.Params.dp_loop +. p.Systems.Params.dp_rx (* rx *)
        +. p.Systems.Params.zy_shuffle +. 10. (* user *)
        +. p.Systems.Params.dp_tx (* eager tx *)
      in
      Alcotest.(check (float 1e-9)) "exact completion time" expected at
  | other -> Alcotest.failf "expected 1 response, got %d" (List.length other)

let test_idle_machine_draws_no_victim_order () =
  (* One request through an idle 16-core machine: the home core claims
     it from its own queue and no core can steal it or needs an IPI, so
     no victim order is drawn (drawing one per poll took 34). *)
  let sim, pool, iface, responses = make_machine ~cores:16 ~conns:64 () in
  iface.Systems.Iface.submit (mk_req pool ~id:0 ~conn:0 ~service:10. 0.);
  Sim.run sim;
  Alcotest.(check int) "one response" 1 (List.length !responses);
  match Systems.Iface.info_value iface "victim_orders" with
  | Some n -> Alcotest.(check (float 0.)) "victim orders drawn" 0. n
  | None -> Alcotest.fail "no victim_orders counter"

let test_steal_rescues_short_request () =
  (* Long request on conn A and short request on conn B, both homed on
     core 0, arriving together: core 0 takes A; the idle core 1 must steal
     B so it completes long before A (no head-of-line blocking, §4.4). *)
  let a, b = two_conns_same_home ~cores:2 in
  let sim, pool, iface, responses = make_machine ~cores:2 ~conns:(max a b + 1) () in
  let long_req = mk_req pool ~id:0 ~conn:a ~service:100. 0. in
  let short_req = mk_req pool ~id:1 ~conn:b ~service:5. 0. in
  iface.Systems.Iface.submit long_req;
  iface.Systems.Iface.submit short_req;
  Sim.run sim;
  let completion r =
    match List.assoc_opt r !responses with
    | Some t -> t
    | None -> Alcotest.fail "request not completed"
  in
  Alcotest.(check bool) "short request not blocked behind long one" true
    (completion short_req < 30. && completion long_req >= 100.);
  (match Systems.Iface.info_value iface "stolen_events" with
  | Some n -> Alcotest.(check bool) "a steal happened" true (n >= 1.)
  | None -> Alcotest.fail "no counter");
  Alcotest.(check int) "work conserving" 0 (Systems.Zygos.work_conservation_violations iface)

let test_ipi_rescues_packet_behind_user_code () =
  (* Conn A starts a long task on core 0; then a packet for conn B (same
     home) arrives. Without an IPI, core 0 cannot run its network stack
     until A finishes; with IPIs, core 1 notices, interrupts core 0, the
     handler refills the shuffle queue, and core 1 steals B (§4.5). *)
  let run ~interrupts =
    let a, b = two_conns_same_home ~cores:2 in
    let params =
      let p = default_params 2 in
      if interrupts then p else Systems.Params.no_interrupts p
    in
    let sim, pool, iface, responses =
      make_machine ~cores:2 ~params:(Some params) ~conns:(max a b + 1) ()
    in
    let long_req = mk_req pool ~id:0 ~conn:a ~service:200. 0. in
    iface.Systems.Iface.submit long_req;
    (* B arrives once core 0 is deep in user code. *)
    let short_req = ref None in
    let _ : Sim.handle =
      Sim.schedule sim ~at:20. (fun () ->
          let r = mk_req pool ~id:1 ~conn:b ~service:5. 20. in
          short_req := Some r;
          iface.Systems.Iface.submit r)
    in
    Sim.run sim;
    let r = Option.get !short_req in
    (match List.assoc_opt r !responses with
    | Some t -> t -. 20.
    | None -> Alcotest.fail "short request never completed")
  in
  let with_ipi = run ~interrupts:true in
  let without_ipi = run ~interrupts:false in
  Alcotest.(check bool)
    (Printf.sprintf "IPI latency %.1f << cooperative %.1f" with_ipi without_ipi)
    true
    (with_ipi < 30. && without_ipi > 150.)

let test_remote_syscalls_return_home () =
  (* A stolen batch's responses are transmitted by the home core: the
     remote_batches counter must tick and ordering must hold. *)
  let a, b = two_conns_same_home ~cores:2 in
  let sim, pool, iface, _responses = make_machine ~cores:2 ~conns:(max a b + 1) () in
  iface.Systems.Iface.submit (mk_req pool ~id:0 ~conn:a ~service:50. 0.);
  iface.Systems.Iface.submit (mk_req pool ~id:1 ~conn:b ~service:5. 0.);
  Sim.run sim;
  match Systems.Iface.info_value iface "remote_batches" with
  | Some n -> Alcotest.(check bool) "remote batch pushed" true (n >= 1.)
  | None -> Alcotest.fail "no counter"

let test_per_conn_batching () =
  (* Back-to-back events on one connection execute as one exclusive batch
     (implicit batching, §6.2): both responses appear and in order. *)
  let sim, pool, iface, responses = make_machine ~cores:2 ~conns:4 () in
  let r1 = mk_req pool ~id:0 ~conn:0 ~service:5. 0. in
  let r2 = mk_req pool ~id:1 ~conn:0 ~service:5. 0. in
  iface.Systems.Iface.submit r1;
  iface.Systems.Iface.submit r2;
  Sim.run sim;
  let t1 = List.assoc_opt r1 !responses and t2 = List.assoc_opt r2 !responses in
  match (t1, t2) with
  | Some t1, Some t2 -> Alcotest.(check bool) "in order" true (t1 < t2)
  | _ -> Alcotest.fail "responses missing"

let test_interrupt_extends_current_task () =
  (* The IPI handler's work is charged to the interrupted request: with a
     concurrent short request arriving mid-execution, the long request's
     completion slips by roughly the handler cost. *)
  let run ~second_arrives =
    let a, b = two_conns_same_home ~cores:2 in
    let sim, pool, iface, responses = make_machine ~cores:2 ~conns:(max a b + 1) () in
    let long_req = mk_req pool ~id:0 ~conn:a ~service:100. 0. in
    iface.Systems.Iface.submit long_req;
    if second_arrives then begin
      let _ : Sim.handle =
        Sim.schedule sim ~at:10. (fun () ->
            iface.Systems.Iface.submit (mk_req pool ~id:1 ~conn:b ~service:1. 10.))
      in
      ()
    end;
    Sim.run sim;
    List.assoc_opt long_req !responses |> Option.get
  in
  let alone = run ~second_arrives:false in
  let interrupted = run ~second_arrives:true in
  Alcotest.(check bool)
    (Printf.sprintf "interrupted (%.2f) slightly later than alone (%.2f)" interrupted alone)
    true
    (interrupted > alone && interrupted < alone +. 5.)

let test_zero_load_idle_terminates () =
  (* No requests: the machine schedules nothing and the simulation ends
     immediately (no busy polling loops in sim time). *)
  let sim, _pool, _iface, responses = make_machine ~cores:4 ~conns:8 () in
  Sim.run sim;
  Alcotest.(check int) "no responses" 0 (List.length !responses);
  Alcotest.(check (float 0.)) "no time passed" 0. (Sim.now sim)

let test_rx_batching_bounded () =
  (* 200 packets for one core: receive-side batching processes at most
     zy_rx_batch per kernel segment, but everything completes. *)
  let p = { (default_params 2) with Systems.Params.zy_rx_batch = 16 } in
  let sim, pool, iface, responses = make_machine ~cores:2 ~params:(Some p) ~conns:64 () in
  for i = 0 to 199 do
    iface.Systems.Iface.submit (mk_req pool ~id:i ~conn:(i mod 64) ~service:1. 0.)
  done;
  Sim.run sim;
  Alcotest.(check int) "all completed" 200 (List.length !responses)

let test_trace_consistency () =
  (* The trace stream must agree with the aggregate counters. *)
  let sim = Sim.create () in
  let p = default_params 2 in
  let steals = ref 0 and ipis = ref 0 and rx_packets = ref 0 and remote = ref 0 in
  let trace _at = function
    | Systems.Zygos.Steal _ -> incr steals
    | Systems.Zygos.Ipi _ -> incr ipis
    | Systems.Zygos.Rx { packets; _ } -> rx_packets := !rx_packets + packets
    | Systems.Zygos.Remote_tx _ -> incr remote
    | Systems.Zygos.Dispatch_local _ -> ()
  in
  let responses = ref 0 in
  let pool = Request.create_pool () in
  let iface =
    Systems.Zygos.create sim p ~rng:(Rng.create ~seed:3) ~pool ~conns:16
      ~respond:(fun _ -> incr responses)
      ~trace ()
  in
  for i = 0 to 99 do
    iface.Systems.Iface.submit (mk_req pool ~id:i ~conn:(i mod 16) ~service:8. 0.)
  done;
  Sim.run sim;
  Alcotest.(check int) "all responded" 100 !responses;
  Alcotest.(check int) "all packets seen by rx trace" 100 !rx_packets;
  let get k = Option.get (Systems.Iface.info_value iface k) in
  Alcotest.(check int) "ipi trace = counter" (int_of_float (get "ipis_sent")) !ipis;
  Alcotest.(check int) "remote trace = counter" (int_of_float (get "remote_batches")) !remote;
  Alcotest.(check bool) "steals traced" true (!steals > 0)

let () =
  Alcotest.run "zygos-model"
    [
      ( "scenarios",
        [
          Alcotest.test_case "single request cost" `Quick test_single_request_cost;
          Alcotest.test_case "idle machine draws no victim order" `Quick
            test_idle_machine_draws_no_victim_order;
          Alcotest.test_case "steal rescues short request" `Quick
            test_steal_rescues_short_request;
          Alcotest.test_case "IPI rescues stuck packet" `Quick
            test_ipi_rescues_packet_behind_user_code;
          Alcotest.test_case "remote syscalls return home" `Quick
            test_remote_syscalls_return_home;
          Alcotest.test_case "per-conn batching order" `Quick test_per_conn_batching;
          Alcotest.test_case "IPI extends current task" `Quick
            test_interrupt_extends_current_task;
          Alcotest.test_case "idle machine terminates" `Quick test_zero_load_idle_terminates;
          Alcotest.test_case "bounded rx batching" `Quick test_rx_batching_bounded;
          Alcotest.test_case "trace consistency" `Quick test_trace_consistency;
        ] );
    ]
