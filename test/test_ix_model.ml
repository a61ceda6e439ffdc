(* White-box scenario tests of the IX model: run-to-completion order,
   batch formation, batched-syscall transmit semantics, and flow
   partitioning (no cross-core rescue). *)

module Sim = Engine.Sim
module Request = Net.Request
module Params = Systems.Params

let make ?(batch = 1) ?(cores = 2) ~conns () =
  let sim = Sim.create () in
  let pool = Request.create_pool () in
  let p = Params.with_ix_batch (Params.default ~cores ()) batch in
  let responses = ref [] in
  let iface =
    Systems.Ix.create sim p ~pool ~conns ~respond:(fun req ->
        responses := (req, Sim.now sim) :: !responses)
  in
  (sim, p, pool, iface, responses)

let mk pool ~id ~conn ~service =
  Request.alloc pool ~id ~conn ~measured:true [| 0.; service |]

let completion responses r =
  match List.assoc_opt r !responses with
  | Some t -> t
  | None -> Alcotest.fail "request not completed"

(* Connections homed on core 0 under the model's own RSS config. *)
let conns_on_core_0 ~cores ~n =
  let rss = Net.Rss.create ~queues:cores () in
  let rec find c acc =
    if List.length acc = n then List.rev acc
    else find (c + 1) (if Net.Rss.queue_of_conn rss c = 0 then c :: acc else acc)
  in
  find 0 []

let test_single_request_cost () =
  (* poll-notice + loop + rx + service + tx, exactly. *)
  let sim, p, pool, iface, responses = make ~conns:4 () in
  let r = mk pool ~id:0 ~conn:0 ~service:10. in
  iface.Systems.Iface.submit r;
  Sim.run sim;
  let expected =
    p.Params.dp_loop (* idle poll notice *)
    +. p.Params.dp_loop +. p.Params.dp_rx (* batch rx *)
    +. 10. +. p.Params.dp_tx
  in
  Alcotest.(check (float 1e-9)) "exact cost" expected (completion responses r)

let test_run_to_completion_order () =
  (* Requests on one core complete strictly in arrival order regardless of
     service times — FCFS with no preemption and no stealing. *)
  match conns_on_core_0 ~cores:2 ~n:3 with
  | [ a; b; c ] ->
      let sim, _, pool, iface, responses = make ~conns:(c + 1) () in
      let r1 = mk pool ~id:0 ~conn:a ~service:50. in
      let r2 = mk pool ~id:1 ~conn:b ~service:1. in
      let r3 = mk pool ~id:2 ~conn:c ~service:1. in
      List.iter iface.Systems.Iface.submit [ r1; r2; r3 ];
      Sim.run sim;
      let t1 = completion responses r1
      and t2 = completion responses r2
      and t3 = completion responses r3 in
      Alcotest.(check bool)
        (Printf.sprintf "FCFS: %.1f < %.1f < %.1f" t1 t2 t3)
        true
        (t1 < t2 && t2 < t3);
      (* the 1µs requests waited behind the 50µs one: head-of-line
         blocking, the paper's core criticism of IX *)
      Alcotest.(check bool) "HOL blocking occurred" true (t2 > 50.)
  | _ -> Alcotest.fail "need 3 conns on core 0"

let test_no_stealing_across_cores () =
  (* With one core overloaded and the other idle, the idle core never
     helps: per-core completion sets are disjoint by home. *)
  match conns_on_core_0 ~cores:2 ~n:2 with
  | [ a; b ] ->
      let sim, _, pool, iface, responses = make ~conns:(b + 1) () in
      let long_req = mk pool ~id:0 ~conn:a ~service:100. in
      let short_req = mk pool ~id:1 ~conn:b ~service:1. in
      iface.Systems.Iface.submit long_req;
      iface.Systems.Iface.submit short_req;
      Sim.run sim;
      (* The short request waits the full 100µs — no rescue. *)
      Alcotest.(check bool) "no cross-core rescue" true
        (completion responses short_req > 100.)
  | _ -> Alcotest.fail "need 2 conns on core 0"

let test_batched_tx_delays_first_response () =
  (* With B >= 2 and two requests in the ring, the first request's
     response is transmitted only after the second finishes executing. *)
  match conns_on_core_0 ~cores:2 ~n:2 with
  | [ a; b ] ->
      let run ~batch =
        let sim, _, pool, iface, responses = make ~batch ~conns:(b + 1) () in
        let r1 = mk pool ~id:0 ~conn:a ~service:10. in
        let r2 = mk pool ~id:1 ~conn:b ~service:10. in
        iface.Systems.Iface.submit r1;
        iface.Systems.Iface.submit r2;
        Sim.run sim;
        completion responses r1
      in
      let eager = run ~batch:1 and batched = run ~batch:64 in
      Alcotest.(check bool)
        (Printf.sprintf "batched first response %.2f > unbatched %.2f" batched eager)
        true
        (batched > eager +. 9.)
  | _ -> Alcotest.fail "need 2 conns on core 0"

let test_batch_amortizes_loop_cost () =
  (* Aggregate completion of k requests is faster with batching: one loop
     iteration instead of k. *)
  match conns_on_core_0 ~cores:2 ~n:4 with
  | a :: _ :: _ :: d :: _ ->
      ignore (a, d);
      let reqs_on_core0 = conns_on_core_0 ~cores:2 ~n:4 in
      let run ~batch =
        let sim, _, pool, iface, responses =
          make ~batch ~conns:(List.fold_left max 0 reqs_on_core0 + 1) ()
        in
        let reqs = List.mapi (fun i c -> mk pool ~id:i ~conn:c ~service:2.) reqs_on_core0 in
        List.iter iface.Systems.Iface.submit reqs;
        Sim.run sim;
        List.fold_left (fun acc r -> Float.max acc (completion responses r)) 0. reqs
      in
      let all_b1 = run ~batch:1 and all_b64 = run ~batch:64 in
      Alcotest.(check bool)
        (Printf.sprintf "last completion: B=64 %.2f <= B=1 %.2f" all_b64 all_b1)
        true (all_b64 <= all_b1)
  | _ -> Alcotest.fail "need 4 conns on core 0"

let test_rpc_packets_cost () =
  (* Multi-packet requests multiply rx and tx stack costs. *)
  let cost ~packets =
    let sim = Sim.create () in
    let pool = Request.create_pool () in
    let p = Params.with_rpc_packets (Params.default ~cores:2 ()) packets in
    let responses = ref [] in
    let iface =
      Systems.Ix.create sim p ~pool ~conns:4 ~respond:(fun req ->
          responses := (req, Sim.now sim) :: !responses)
    in
    let r = mk pool ~id:0 ~conn:0 ~service:10. in
    iface.Systems.Iface.submit r;
    Sim.run sim;
    completion responses r
  in
  let p = Params.default ~cores:2 () in
  let delta = cost ~packets:3 -. cost ~packets:1 in
  Alcotest.(check (float 1e-9)) "2 extra packets each way"
    (2. *. (p.Params.dp_rx +. p.Params.dp_tx))
    delta

let () =
  Alcotest.run "ix-model"
    [
      ( "scenarios",
        [
          Alcotest.test_case "single request cost" `Quick test_single_request_cost;
          Alcotest.test_case "run-to-completion order" `Quick test_run_to_completion_order;
          Alcotest.test_case "no stealing" `Quick test_no_stealing_across_cores;
          Alcotest.test_case "batched tx delays response" `Quick
            test_batched_tx_delays_first_response;
          Alcotest.test_case "batch amortizes loop" `Quick test_batch_amortizes_loop_cost;
          Alcotest.test_case "rpc packets cost" `Quick test_rpc_packets_cost;
        ] );
    ]
