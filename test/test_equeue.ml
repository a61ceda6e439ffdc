(* The PR-4 acceptance property: the timing wheel is observationally
   identical to the binary heap — same (time, seq) pop order for any
   interleaving of adds, pops and clears, the same simulation traces
   under either dispatch API, and byte-identical figure output — so
   flipping the default queue can never change results, only speed. *)

module Sim = Engine.Sim
module Equeue = Engine.Equeue
module Wheel = Engine.Wheel
module Heap = Engine.Heap
module Output = Experiments.Output

(* ---- queue-level equivalence (heap is the reference model) ---- *)

let drain_both heap wheel =
  let rec go acc =
    let eh = Equeue.is_empty heap and ew = Equeue.is_empty wheel in
    if eh <> ew then Alcotest.failf "emptiness disagrees: heap=%b wheel=%b" eh ew;
    if eh then List.rev acc
    else begin
      let th = Equeue.min_time heap and tw = Equeue.min_time wheel in
      let vh = Equeue.min_elt heap and vw = Equeue.min_elt wheel in
      if th <> tw || vh <> vw then
        Alcotest.failf "pop disagrees: heap (%g, %d) wheel (%g, %d)" th vh tw vw;
      Equeue.drop_min heap;
      Equeue.drop_min wheel;
      go ((th, vh) :: acc)
    end
  in
  go []

(* Random add/pop/clear interleavings; times on a half-integer grid so
   sub-microsecond ties (several floats within one tick) are frequent,
   with occasional far-future adds to force multi-level cascades. *)
let prop_wheel_matches_heap =
  let op_gen =
    QCheck.Gen.(
      list
        (pair (int_bound 9) (map (fun k -> float_of_int k /. 2.) (int_bound 40))))
  in
  QCheck.Test.make ~name:"wheel pops exactly like the heap" ~count:300
    (QCheck.make ~print:(fun ops -> string_of_int (List.length ops)) op_gen)
    (fun ops ->
      let heap = Equeue.create Equeue.Heap and wheel = Equeue.create Equeue.Wheel in
      List.iter
        (fun (op, time) ->
          if op <= 4 then begin
            (* the wheel refuses nothing: times at or before the current
               tick are legal and must still pop in (time, seq) order *)
            let time = if op = 4 then time +. 1e6 else time in
            Equeue.add heap ~time 0;
            Equeue.add wheel ~time 0
          end
          else if op <= 7 then begin
            let eh = Equeue.is_empty heap and ew = Equeue.is_empty wheel in
            if eh <> ew then Alcotest.failf "emptiness disagrees mid-run";
            if not eh then begin
              let th = Equeue.min_time heap and tw = Equeue.min_time wheel in
              let vh = Equeue.min_elt heap and vw = Equeue.min_elt wheel in
              if th <> tw || vh <> vw then
                Alcotest.failf "pop disagrees: heap (%g, %d) wheel (%g, %d)" th vh tw vw;
              Equeue.drop_min heap;
              Equeue.drop_min wheel
            end
          end
          else if op = 8 then begin
            Equeue.clear heap;
            Equeue.clear wheel
          end
          (* op = 9: no-op, length agreement *)
          else if Equeue.length heap <> Equeue.length wheel then
            Alcotest.failf "length disagrees")
        ops;
      ignore (drain_both heap wheel : (float * int) list);
      true)

(* Values must ride along correctly, not just keys: tag every add. *)
let prop_wheel_payloads_match =
  let op_gen = QCheck.Gen.(list (pair bool (int_bound 30))) in
  QCheck.Test.make ~name:"payloads track their keys" ~count:200
    (QCheck.make ~print:(fun ops -> string_of_int (List.length ops)) op_gen)
    (fun ops ->
      let heap = Equeue.create Equeue.Heap and wheel = Equeue.create Equeue.Wheel in
      List.iteri
        (fun i (pop, k) ->
          let time = float_of_int k /. 4. in
          Equeue.add heap ~time i;
          Equeue.add wheel ~time i;
          if pop then begin
            let vh = Equeue.min_elt heap and vw = Equeue.min_elt wheel in
            if vh <> vw then Alcotest.failf "payload disagrees: %d vs %d" vh vw;
            Equeue.drop_min heap;
            Equeue.drop_min wheel
          end)
        ops;
      ignore (drain_both heap wheel : (float * int) list);
      true)

(* ---- cascade and boundary edges ---- *)

let test_empty_queue () =
  List.iter
    (fun kind ->
      let q = Equeue.create ~dummy:(-7) kind in
      Alcotest.(check bool) "empty" true (Equeue.is_empty q);
      Alcotest.(check (float 0.)) "min_time" infinity (Equeue.min_time q);
      Alcotest.(check int) "min_elt" (-7) (Equeue.min_elt q);
      Equeue.drop_min q (* no-op, must not raise *))
    [ Equeue.Heap; Equeue.Wheel ]

let test_far_future_cascades () =
  (* Events spanning many wheel levels, popped interleaved with adds:
     every pop must cascade down to the right microsecond. *)
  let heap = Equeue.create Equeue.Heap and wheel = Equeue.create Equeue.Wheel in
  let times =
    [ 0.5; 31.; 32.; 33.; 1023.9; 1024.; 32_767.5; 32_768.; 1_048_575.
    ; 1_048_576.25; 1e9; 1e12; 4.6e18 (* above the tick clamp *) ]
  in
  List.iteri
    (fun i t ->
      Equeue.add heap ~time:t i;
      Equeue.add wheel ~time:t i)
    times;
  let popped = drain_both heap wheel in
  Alcotest.(check int) "all popped" (List.length times) (List.length popped)

let test_add_at_reached_tick () =
  (* After the wheel has advanced, adds at/below the current tick must
     still pop in global (time, seq) order — they merge into the ready
     run rather than a bucket. *)
  let heap = Equeue.create Equeue.Heap and wheel = Equeue.create Equeue.Wheel in
  List.iter
    (fun (t : float) ->
      Equeue.add heap ~time:t 0;
      Equeue.add wheel ~time:t 0)
    [ 10.; 10.25; 10.75; 50. ];
  (* pop to 10.25: both queues are now "at" microsecond 10 *)
  Equeue.drop_min heap;
  Equeue.drop_min wheel;
  (* time below the current tick, inside it, and at the popped time *)
  List.iter
    (fun (t : float) ->
      Equeue.add heap ~time:t 1;
      Equeue.add wheel ~time:t 1)
    [ 3.; 10.25; 10.5; 10.0 ];
  let popped = drain_both heap wheel in
  Alcotest.(check (float 0.)) "past add pops first" 3. (fst (List.hd popped));
  Alcotest.(check int) "seven left" 7 (List.length popped)

let test_same_tick_cohort () =
  (* >32 events inside one microsecond exercises the heapsort path of
     the wheel's ready run (insertion sort handles the small buckets). *)
  let heap = Equeue.create Equeue.Heap and wheel = Equeue.create Equeue.Wheel in
  let rng = Engine.Rng.create ~seed:42 in
  for i = 0 to 199 do
    let t = 7. +. (float_of_int (Engine.Rng.int rng 64) /. 64.) in
    Equeue.add heap ~time:t i;
    Equeue.add wheel ~time:t i
  done;
  let popped = drain_both heap wheel in
  Alcotest.(check int) "all 200 popped" 200 (List.length popped)

let test_pop_into_add_key_duals () =
  (* The simulator's flat-buffer fast path agrees with the labelled API. *)
  let w = Wheel.create ~dummy:(-1) () and h = Heap.create ~dummy:(-1) () in
  let buf = [| 0. |] in
  for i = 0 to 99 do
    buf.(0) <- float_of_int ((i * 13) mod 50) /. 2.;
    Wheel.add_key w buf i;
    Heap.add_key h buf i
  done;
  for _ = 0 to 99 do
    let tw = Wheel.min_time w in
    let vw = Wheel.pop_into w buf in
    Alcotest.(check (float 0.)) "pop_into time" tw buf.(0);
    let th = Heap.min_time h in
    let vh = Heap.pop_into h buf in
    Alcotest.(check (float 0.)) "heap pop_into time" th buf.(0);
    Alcotest.(check int) "payloads agree" vh vw;
    Alcotest.(check (float 0.)) "keys agree" th tw
  done;
  Alcotest.(check bool) "wheel drained" true (Wheel.is_empty w);
  Alcotest.(check int) "empty pop_into returns dummy" (-1) (Wheel.pop_into w buf)

(* ---- Sim-level equivalence: schedule/cancel under both queues ---- *)

(* Replay one deterministic schedule/cancel/step script against a sim on
   each queue kind, recording every fire; traces must be identical. *)
let run_script kind ops =
  let sim = Sim.create ~queue:kind () in
  let trace = Buffer.create 256 in
  let handles = ref [] in
  let fire id = Buffer.add_string trace (Printf.sprintf "%h:%d;" (Sim.now sim) id) in
  List.iter
    (fun (op, k) ->
      match op with
      | 0 | 1 | 2 ->
          let delay = float_of_int k /. 2. in
          handles := Sim.schedule_after sim ~delay (fun () -> fire k) :: !handles
      | 3 | 4 ->
          (Sim.key_buffer sim).(0) <- Sim.now sim +. (float_of_int k /. 2.);
          handles := Sim.schedule_fn_keyed sim fire (1000 + k) :: !handles
      | 5 -> (
          (* cancel the k-th outstanding handle, if any *)
          match List.nth_opt !handles (k mod max 1 (List.length !handles)) with
          | Some h when !handles <> [] -> Sim.cancel sim h
          | _ -> ())
      | _ -> ignore (Sim.step sim : bool))
    ops;
  Sim.run sim;
  Buffer.add_string trace (Printf.sprintf "end:%h" (Sim.now sim));
  Buffer.contents trace

let prop_sim_trace_queue_independent =
  let op_gen = QCheck.Gen.(list (pair (int_bound 7) (int_bound 20))) in
  QCheck.Test.make ~name:"sim traces identical under heap and wheel" ~count:200
    (QCheck.make ~print:(fun ops -> string_of_int (List.length ops)) op_gen)
    (fun ops ->
      String.equal (run_script Equeue.Heap ops) (run_script Equeue.Wheel ops))

(* The two dispatch APIs must also produce the same trace: the same
   workload scheduled through closures and through (fn, iarg) pairs. *)
let run_chain kind ~fn_api =
  let sim = Sim.create ~queue:kind () in
  let rng = Engine.Rng.create ~seed:7 in
  let trace = Buffer.create 256 in
  let remaining = ref 500 in
  let rec arm id =
    if !remaining > 0 then begin
      decr remaining;
      let delay = Engine.Rng.float rng *. 20. in
      if fn_api then begin
        (Sim.key_buffer sim).(0) <- Sim.now sim +. delay;
        ignore (Sim.schedule_fn_keyed sim fire id : Sim.handle)
      end
      else ignore (Sim.schedule_after sim ~delay (fun () -> fire id) : Sim.handle)
    end
  and fire id =
    Buffer.add_string trace (Printf.sprintf "%h:%d;" (Sim.now sim) id);
    arm ((id + 1) land 0xff)
  in
  for id = 0 to 3 do
    arm id
  done;
  Sim.run sim;
  Buffer.contents trace

let test_dispatch_api_parity () =
  let reference = run_chain Equeue.Heap ~fn_api:false in
  List.iter
    (fun (kind, fn_api, label) ->
      Alcotest.(check string) label reference (run_chain kind ~fn_api))
    [
      (Equeue.Heap, true, "heap + schedule_fn");
      (Equeue.Wheel, false, "wheel + closures");
      (Equeue.Wheel, true, "wheel + schedule_fn");
    ]

(* ---- figure byte-parity across queue back ends ---- *)

let render_figure target ~kind =
  Sim.set_default_queue kind;
  Fun.protect
    ~finally:(fun () -> Sim.set_default_queue Equeue.Wheel)
    (fun () ->
      match List.assoc_opt target Experiments.Figures.all_targets with
      | None -> Alcotest.failf "no such target %s" target
      | Some f -> Output.render (f ~jobs:1 ~scale:0.01))

let test_figure_parity_across_queues () =
  List.iter
    (fun target ->
      let wheel = render_figure target ~kind:Equeue.Wheel in
      Alcotest.(check bool)
        (Printf.sprintf "%s renders something" target)
        true
        (String.length wheel > 0);
      let heap = render_figure target ~kind:Equeue.Heap in
      Alcotest.(check string)
        (Printf.sprintf "%s byte-identical under heap and wheel" target)
        wheel heap)
    [ "fig2"; "fig6" ]

(* ---- kind selection plumbing ---- *)

let test_kind_of_string () =
  Alcotest.(check bool) "heap" true (Equeue.kind_of_string "Heap" = Some Equeue.Heap);
  Alcotest.(check bool) "wheel" true (Equeue.kind_of_string " wheel " = Some Equeue.Wheel);
  Alcotest.(check bool) "garbage" true (Equeue.kind_of_string "fifo" = None)

let test_create_queue_kind () =
  let s = Sim.create ~queue:Equeue.Heap () in
  Alcotest.(check bool) "explicit heap" true (Sim.queue_kind s = Equeue.Heap);
  let s = Sim.create ~queue:Equeue.Wheel () in
  Alcotest.(check bool) "explicit wheel" true (Sim.queue_kind s = Equeue.Wheel)

let () =
  Alcotest.run "equeue"
    [
      ( "model equivalence",
        [
          QCheck_alcotest.to_alcotest prop_wheel_matches_heap;
          QCheck_alcotest.to_alcotest prop_wheel_payloads_match;
        ] );
      ( "edges",
        [
          Alcotest.test_case "empty queue accessors" `Quick test_empty_queue;
          Alcotest.test_case "far-future cascades" `Quick test_far_future_cascades;
          Alcotest.test_case "adds at a reached tick" `Quick test_add_at_reached_tick;
          Alcotest.test_case "same-tick cohort (heapsort path)" `Quick test_same_tick_cohort;
          Alcotest.test_case "pop_into/add_key duals" `Quick test_pop_into_add_key_duals;
        ] );
      ( "sim equivalence",
        [
          QCheck_alcotest.to_alcotest prop_sim_trace_queue_independent;
          Alcotest.test_case "dispatch APIs trace-identical" `Quick test_dispatch_api_parity;
        ] );
      ( "figure parity",
        [
          Alcotest.test_case "figures byte-identical across queues" `Slow
            test_figure_parity_across_queues;
        ] );
      ( "selection",
        [
          Alcotest.test_case "kind_of_string" `Quick test_kind_of_string;
          Alcotest.test_case "create ?queue" `Quick test_create_queue_kind;
        ] );
    ]
