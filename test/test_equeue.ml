(* The timing wheel is the simulator's one event queue; the binary heap
   is its reference model. The wheel must pop the heap's (time, seq)
   order for any interleaving of adds, pops and clears, and a simulation
   must fire its events in the order a heap-driven reference loop does,
   under either dispatch API. *)

module Sim = Engine.Sim
module Wheel = Engine.Wheel
module Heap = Engine.Heap

(* ---- queue-level equivalence: the wheel and its oracle in lockstep ---- *)

type queues = { heap : int Heap.t; wheel : Wheel.t }

let create () = { heap = Heap.create ~dummy:0 (); wheel = Wheel.create () }

let add q ~time v =
  Heap.add q.heap ~time v;
  Wheel.add q.wheel ~time v

let clear q =
  Heap.clear q.heap;
  Wheel.clear q.wheel

(* Pop both queues, failing on any disagreement; [None] when both are
   empty. *)
let pop q =
  let eh = Heap.is_empty q.heap and ew = Wheel.is_empty q.wheel in
  if eh <> ew then Alcotest.failf "emptiness disagrees: heap=%b wheel=%b" eh ew;
  if eh then None
  else begin
    let th = Heap.min_time q.heap and tw = Wheel.min_time q.wheel in
    let vh = Heap.min_elt q.heap and vw = Wheel.min_elt q.wheel in
    if th <> tw || vh <> vw then
      Alcotest.failf "pop disagrees: heap (%g, %d) wheel (%g, %d)" th vh tw vw;
    Heap.drop_min q.heap;
    Wheel.drop_min q.wheel;
    Some (th, vh)
  end

let drain q =
  let rec go acc = match pop q with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

(* Random add/pop/clear interleavings; times on a half-integer grid so
   sub-microsecond ties (several floats within one tick) are frequent,
   with occasional far-future adds to force multi-level cascades. Each
   add carries its index, so a pop that breaks FIFO among equal times
   shows. *)
let prop_wheel_matches_heap =
  let op_gen =
    QCheck.Gen.(
      list
        (pair (int_bound 9) (map (fun k -> float_of_int k /. 2.) (int_bound 40))))
  in
  QCheck.Test.make ~name:"wheel pops exactly like the heap" ~count:300
    (QCheck.make ~print:(fun ops -> string_of_int (List.length ops)) op_gen)
    (fun ops ->
      let q = create () in
      List.iteri
        (fun i (op, time) ->
          (* the wheel refuses nothing: times at or before the current
             tick are legal and must still pop in (time, seq) order *)
          if op <= 4 then add q ~time:(if op = 4 then time +. 1e6 else time) i
          else if op <= 7 then ignore (pop q : (float * int) option)
          else if op = 8 then clear q
          (* op = 9: no-op, length agreement *)
          else if Heap.length q.heap <> Wheel.length q.wheel then
            Alcotest.failf "length disagrees")
        ops;
      ignore (drain q : (float * int) list);
      true)

(* Values must ride along correctly, not just keys: tag every add. *)
let prop_wheel_payloads_match =
  let op_gen = QCheck.Gen.(list (pair bool (int_bound 30))) in
  QCheck.Test.make ~name:"payloads track their keys" ~count:200
    (QCheck.make ~print:(fun ops -> string_of_int (List.length ops)) op_gen)
    (fun ops ->
      let q = create () in
      List.iteri
        (fun i (pop_after, k) ->
          add q ~time:(float_of_int k /. 4.) i;
          if pop_after then ignore (pop q : (float * int) option))
        ops;
      ignore (drain q : (float * int) list);
      true)

(* One long adversarial interleaving (seed 99, 20,000 adds): 1 in 10 at
   the last popped time, 1 in 10 at +1e7 us (multi-level cascades), 1 in
   10 on a 1/16 us grid (sub-microsecond ties), the rest up to 4,096 us
   ahead; a pop after about every third add, then a full drain. *)
let test_adversarial_interleaving () =
  let rng = Engine.Rng.create ~seed:99 in
  let q = create () in
  let n = 20_000 in
  let clock = ref 0. and popped = ref 0 in
  for i = 0 to n - 1 do
    let t =
      match Engine.Rng.int rng 10 with
      | 0 -> !clock
      | 1 -> !clock +. 1e7
      | 2 -> !clock +. (float_of_int (Engine.Rng.int rng 1000) /. 16.)
      | _ -> !clock +. float_of_int (Engine.Rng.int rng 4096)
    in
    add q ~time:t i;
    if Engine.Rng.int rng 3 = 0 then
      match pop q with
      | Some (t, _) ->
          clock := t;
          incr popped
      | None -> Alcotest.fail "empty right after an add"
  done;
  Alcotest.(check int) "every add pops once" (n - !popped) (List.length (drain q))

(* ---- cascade and boundary edges ---- *)

let test_empty_queue () =
  let h = Heap.create ~dummy:(-7) () and w = Wheel.create ~dummy:(-7) () in
  Alcotest.(check bool) "heap empty" true (Heap.is_empty h);
  Alcotest.(check bool) "wheel empty" true (Wheel.is_empty w);
  Alcotest.(check (float 0.)) "heap min_time" infinity (Heap.min_time h);
  Alcotest.(check (float 0.)) "wheel min_time" infinity (Wheel.min_time w);
  Alcotest.(check int) "heap min_elt" (-7) (Heap.min_elt h);
  Alcotest.(check int) "wheel min_elt" (-7) (Wheel.min_elt w);
  (* no-ops, must not raise *)
  Heap.drop_min h;
  Wheel.drop_min w

let test_far_future_cascades () =
  (* Events spanning many wheel levels, popped interleaved with adds:
     every pop must cascade down to the right microsecond. *)
  let q = create () in
  let times =
    [ 0.5; 31.; 32.; 33.; 1023.9; 1024.; 32_767.5; 32_768.; 1_048_575.
    ; 1_048_576.25; 1e9; 1e12; 4.6e18 (* above the tick clamp *) ]
  in
  List.iteri (fun i t -> add q ~time:t i) times;
  Alcotest.(check int) "all popped" (List.length times) (List.length (drain q))

let test_add_at_reached_tick () =
  (* After the wheel has advanced, adds at/below the current tick must
     still pop in global (time, seq) order — they merge into the ready
     run rather than a bucket. *)
  let q = create () in
  List.iter (fun t -> add q ~time:t 0) [ 10.; 10.25; 10.75; 50. ];
  (* pop to 10.25: both queues are now "at" microsecond 10 *)
  ignore (pop q : (float * int) option);
  (* time below the current tick, inside it, and at the popped time *)
  List.iter (fun t -> add q ~time:t 1) [ 3.; 10.25; 10.5; 10.0 ];
  let popped = drain q in
  Alcotest.(check (float 0.)) "past add pops first" 3. (fst (List.hd popped));
  Alcotest.(check int) "seven left" 7 (List.length popped)

let test_same_tick_cohort () =
  (* >32 events inside one microsecond exercises the heapsort path of
     the wheel's ready run (insertion sort handles the small buckets). *)
  let q = create () in
  let rng = Engine.Rng.create ~seed:42 in
  for i = 0 to 199 do
    add q ~time:(7. +. (float_of_int (Engine.Rng.int rng 64) /. 64.)) i
  done;
  Alcotest.(check int) "all 200 popped" 200 (List.length (drain q))

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

(* ---- Sim-level equivalence ---- *)

(* A schedule/cancel/step script: ops 0-2 schedule a closure k/2 us
   ahead, 3-4 a keyed fn, 5 cancels the k-th handle handed out (fired
   or not), 6-7 step. [run_script] plays it on a [Sim]; [reference_script]
   plays it on a plain event loop over the heap, where an event is an
   index into a table of payloads and a cancel marks it dead. *)
let script_gen = QCheck.Gen.(list (pair (int_bound 7) (int_bound 20)))

let nth_handle handles k = List.nth_opt handles (k mod max 1 (List.length handles))

let run_script ops =
  let sim = Sim.create () in
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
      | 5 -> Option.iter (Sim.cancel sim) (nth_handle !handles k)
      | _ -> ignore (Sim.step sim : bool))
    ops;
  Sim.run sim;
  Buffer.add_string trace (Printf.sprintf "end:%h" (Sim.now sim));
  Buffer.contents trace

let reference_script ops =
  let heap = Heap.create ~dummy:(-1) () in
  let payloads = Hashtbl.create 64 and dead = Hashtbl.create 64 in
  let now = ref 0. and handles = ref [] in
  let trace = Buffer.create 256 in
  let schedule delay payload =
    let ev = Hashtbl.length payloads in
    Hashtbl.replace payloads ev payload;
    Heap.add heap ~time:(!now +. delay) ev;
    handles := ev :: !handles
  in
  let rec step () =
    if not (Heap.is_empty heap) then begin
      let time = Heap.min_time heap and ev = Heap.min_elt heap in
      Heap.drop_min heap;
      if Hashtbl.mem dead ev then step ()
      else begin
        Hashtbl.replace dead ev ();
        now := time;
        Buffer.add_string trace (Printf.sprintf "%h:%d;" time (Hashtbl.find payloads ev))
      end
    end
  in
  List.iter
    (fun (op, k) ->
      match op with
      | 0 | 1 | 2 -> schedule (float_of_int k /. 2.) k
      | 3 | 4 -> schedule (float_of_int k /. 2.) (1000 + k)
      | 5 -> Option.iter (fun ev -> Hashtbl.replace dead ev ()) (nth_handle !handles k)
      | _ -> step ())
    ops;
  while not (Heap.is_empty heap) do
    step ()
  done;
  Buffer.add_string trace (Printf.sprintf "end:%h" !now);
  Buffer.contents trace

let prop_sim_trace_matches_reference =
  QCheck.Test.make ~name:"sim traces identical under heap and wheel" ~count:200
    (QCheck.make ~print:(fun ops -> string_of_int (List.length ops)) script_gen)
    (fun ops -> String.equal (reference_script ops) (run_script ops))

(* The two dispatch APIs must produce the same trace: the same workload
   scheduled through closures and through (fn, iarg) pairs. *)
let run_chain ~fn_api =
  let sim = Sim.create () in
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
  Alcotest.(check string) "schedule_fn_keyed = closures" (run_chain ~fn_api:false)
    (run_chain ~fn_api:true)

let () =
  Alcotest.run "equeue"
    [
      ( "model equivalence",
        [
          QCheck_alcotest.to_alcotest prop_wheel_matches_heap;
          QCheck_alcotest.to_alcotest prop_wheel_payloads_match;
          Alcotest.test_case "adversarial interleaving" `Quick test_adversarial_interleaving;
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
          QCheck_alcotest.to_alcotest prop_sim_trace_matches_reference;
          Alcotest.test_case "dispatch APIs trace-identical" `Quick test_dispatch_api_parity;
        ] );
    ]
