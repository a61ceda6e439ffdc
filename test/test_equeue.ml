(* The timing wheel is the simulator's one event queue; the binary heap
   is its reference model. The wheel must pop the heap's (time, seq)
   order for any interleaving of adds and pops, and a simulation must
   fire its events in the order a heap-driven reference loop does. Both
   queues are driven through the flat-buffer API the simulator uses
   ([add_key] / [pop_into]). *)

module Sim = Engine.Sim
module Wheel = Engine.Wheel
module Heap = Engine.Heap

(* ---- queue-level equivalence: the wheel and its oracle in lockstep ---- *)

type queues = { heap : int Heap.t; wheel : Wheel.t; hbuf : float array; wbuf : float array }

let create () =
  { heap = Heap.create ~dummy:0 (); wheel = Wheel.create (); hbuf = [| 0. |]; wbuf = [| 0. |] }

let add q ~time v =
  q.hbuf.(0) <- time;
  Heap.add_key q.heap q.hbuf v;
  q.wbuf.(0) <- time;
  Wheel.add_key q.wheel q.wbuf v

(* Pop both queues, failing on any disagreement; [None] when both are
   empty. *)
let pop q =
  let eh = Heap.is_empty q.heap and ew = Wheel.is_empty q.wheel in
  if eh <> ew then Alcotest.failf "emptiness disagrees: heap=%b wheel=%b" eh ew;
  if eh then None
  else begin
    let vh = Heap.pop_into q.heap q.hbuf and vw = Wheel.pop_into q.wheel q.wbuf in
    let th = q.hbuf.(0) and tw = q.wbuf.(0) in
    if th <> tw || vh <> vw then
      Alcotest.failf "pop disagrees: heap (%g, %d) wheel (%g, %d)" th vh tw vw;
    Some (th, vh)
  end

let drain q =
  let rec go acc = match pop q with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

(* Random add/pop interleavings; times on a half-integer grid so
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
          (* ops 8-9: no-op, length agreement *)
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
  let q = create () in
  Alcotest.(check bool) "heap empty" true (Heap.is_empty q.heap);
  Alcotest.(check bool) "wheel empty" true (Wheel.is_empty q.wheel);
  Alcotest.(check int) "wheel length" 0 (Wheel.length q.wheel);
  (* popping an empty wheel returns -1 and leaves the buffer as it was *)
  q.wbuf.(0) <- 3.;
  Alcotest.(check int) "wheel pop_into" (-1) (Wheel.pop_into q.wheel q.wbuf);
  Alcotest.(check (float 0.)) "buffer untouched" 3. q.wbuf.(0)

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
  (* The simulator's flat-buffer API: every pop writes the heap's time
     into the buffer and returns the heap's payload. *)
  let q = create () in
  for i = 0 to 99 do
    add q ~time:(float_of_int ((i * 13) mod 50) /. 2.) i
  done;
  for _ = 0 to 99 do
    ignore (pop q : (float * int) option)
  done;
  Alcotest.(check bool) "wheel drained" true (Wheel.is_empty q.wheel);
  Alcotest.(check int) "empty pop_into returns -1" (-1) (Wheel.pop_into q.wheel q.wbuf)

(* ---- Sim-level equivalence ---- *)

(* A schedule/cancel/step script: ops 0-4 schedule an event k/2 us
   ahead (payload k for ops 0-2, 1000 + k for 3-4), 5 cancels the k-th
   handle handed out (fired or not), 6-7 step. [run_script] plays it on
   a [Sim]; [reference_script] plays it on a plain event loop over the
   heap, where an event is an index into a table of payloads and a
   cancel marks it dead. *)
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
      | 0 | 1 | 2 | 3 | 4 ->
          (Sim.key_buffer sim).(0) <- Sim.now sim +. (float_of_int k /. 2.);
          handles := Sim.schedule_fn_keyed sim fire (if op <= 2 then k else 1000 + k) :: !handles
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
      ( "sim equivalence", [ QCheck_alcotest.to_alcotest prop_sim_trace_matches_reference ] );
    ]
