(* [Sim]'s timing wheel is the simulator's one event queue; the binary
   heap is its reference model. Every case here runs a [Sim] in lockstep
   with a heap-driven reference loop: both get the same schedules,
   cancels and steps, both record each fire as (time, payload), and they
   must fire the same events in the same order, agree on every step's
   result and clock, and end with the same counts in [Sim.stats].
   Schedules go through the flat-buffer API the simulator's callers use
   ([Sim.key_buffer]); the heap takes its keys through [add_key] /
   [pop_into]. *)

module Sim = Engine.Sim
module Heap = Engine.Heap

(* A payload at or above [chain] is a handler that schedules one more
   event when it fires: payload [p - chain], [chain_delay p] after the
   fire, so inserts from inside a handler, into the tick being drained,
   are exercised too. *)
let chain = 1_000_000

let chain_delay p = float_of_int (p mod 5) /. 4.

let entry now p = Printf.sprintf "%h:%d;" now p

(* ---- the reference loop ---- *)

(* An event is an index into [payloads]; a cancel removes it from
   [pending], and a pop of an event no longer pending fires nothing. The
   counts are what [Sim.stats] must report: [most_pending] is the most
   events pending at once. *)
type reference = {
  heap : Heap.t;
  buf : float array;
  mutable now : float;
  payloads : (int, int) Hashtbl.t;
  pending : (int, unit) Hashtbl.t;
  mutable scheduled : int;
  mutable fired : int;
  mutable cancelled : int;
  mutable most_pending : int;
  log : Buffer.t;
}

let ref_schedule r ~at p =
  let ev = r.scheduled in
  r.scheduled <- ev + 1;
  Hashtbl.replace r.payloads ev p;
  Hashtbl.replace r.pending ev ();
  r.most_pending <- Int.max r.most_pending (Hashtbl.length r.pending);
  r.buf.(0) <- at;
  Heap.add_key r.heap r.buf ev;
  ev

let ref_cancel r ev =
  if Hashtbl.mem r.pending ev then begin
    Hashtbl.remove r.pending ev;
    r.cancelled <- r.cancelled + 1
  end

let rec ref_step r =
  if Heap.is_empty r.heap then false
  else begin
    let ev = Heap.pop_into r.heap r.buf in
    if not (Hashtbl.mem r.pending ev) then ref_step r
    else begin
      Hashtbl.remove r.pending ev;
      r.fired <- r.fired + 1;
      r.now <- r.buf.(0);
      let p = Hashtbl.find r.payloads ev in
      Buffer.add_string r.log (entry r.now p);
      if p >= chain then ignore (ref_schedule r ~at:(r.now +. chain_delay p) (p - chain) : int);
      true
    end
  end

(* ---- the lockstep pair ---- *)

type pair = {
  sim : Sim.t;
  fire : int -> unit;  (* the Sim's one handler *)
  sim_log : Buffer.t;
  r : reference;
  handed : (int, Sim.handle * int) Hashtbl.t;  (* k-th schedule -> (handle, event) *)
}

let create () =
  let sim = Sim.create () and sim_log = Buffer.create 256 in
  let rec fire p =
    Buffer.add_string sim_log (entry (Sim.now sim) p);
    if p >= chain then begin
      (Sim.key_buffer sim).(0) <- Sim.now sim +. chain_delay p;
      ignore (Sim.schedule_fn_keyed sim fire (p - chain) : Sim.handle)
    end
  in
  let r =
    {
      heap = Heap.create ();
      buf = [| 0. |];
      now = 0.;
      payloads = Hashtbl.create 64;
      pending = Hashtbl.create 64;
      scheduled = 0;
      fired = 0;
      cancelled = 0;
      most_pending = 0;
      log = Buffer.create 256;
    }
  in
  { sim; fire; sim_log; r; handed = Hashtbl.create 64 }

let now q = Sim.now q.sim

(* Schedule payload [p] at absolute time [at] (>= now) on both sides. *)
let schedule q ~at p =
  (Sim.key_buffer q.sim).(0) <- at;
  let h = Sim.schedule_fn_keyed q.sim q.fire p in
  let ev = ref_schedule q.r ~at p in
  Hashtbl.replace q.handed (Hashtbl.length q.handed) (h, ev)

(* Cancel the [k]-th schedule (mod the number so far), fired or not. *)
let cancel q k =
  let n = Hashtbl.length q.handed in
  if n > 0 then begin
    let h, ev = Hashtbl.find q.handed (k mod n) in
    Sim.cancel q.sim h;
    ref_cancel q.r ev
  end

let step q =
  let fs = Sim.step q.sim in
  let fr = ref_step q.r in
  if fs <> fr then Alcotest.failf "step disagrees: sim %b, reference %b" fs fr;
  if not (Float.equal (now q) q.r.now) then
    Alcotest.failf "clock disagrees: sim %h, reference %h" (now q) q.r.now;
  fs

(* Run both to the end, then compare the whole fire logs and every
   [Sim.stats] field with the reference's counts. *)
let finish q =
  Sim.run q.sim;
  while ref_step q.r do
    ()
  done;
  let got = Buffer.contents q.sim_log and want = Buffer.contents q.r.log in
  if not (String.equal got want) then
    Alcotest.failf "fire logs differ:\nsim       %s\nreference %s" got want;
  if not (Float.equal (now q) q.r.now) then
    Alcotest.failf "final clock disagrees: sim %h, reference %h" (now q) q.r.now;
  let s = Sim.stats q.sim and r = q.r in
  Alcotest.(check int) "scheduled" r.scheduled s.Sim.scheduled;
  Alcotest.(check int) "fired" r.fired s.Sim.fired;
  Alcotest.(check int) "cancelled" r.cancelled s.Sim.cancelled;
  Alcotest.(check int) "pool_slots = most pending at once" r.most_pending s.Sim.pool_slots;
  Alcotest.(check int) "reused = scheduled - pool_slots" (r.scheduled - r.most_pending)
    s.Sim.reused;
  Alcotest.(check bool) "nothing left" false (Sim.step q.sim)

let ops_arb gen = QCheck.make ~print:(fun ops -> string_of_int (List.length ops)) gen

(* ---- model equivalence ---- *)

(* Random schedule/cancel/step interleavings; times on a half-integer
   grid past now, so sub-microsecond ties and schedules into the tick
   being drained are frequent, with occasional far-future schedules to
   force multi-level cascades. Each schedule carries its index, so a fire
   that breaks FIFO among equal times shows. Ops: 0-3 schedule, 4 far
   future, 5 a chaining handler, 6 cancel (often an event already in the
   ready run), 7-8 step, 9 cancel the newest event and schedule another
   at the same offset. *)
let prop_wheel_matches_heap =
  let op_gen = QCheck.Gen.(list (pair (int_bound 9) (int_bound 40))) in
  QCheck.Test.make ~name:"wheel pops exactly like the heap" ~count:300 (ops_arb op_gen)
    (fun ops ->
      let q = create () in
      List.iteri
        (fun i (op, k) ->
          let at = now q +. (float_of_int k /. 2.) in
          match op with
          | 0 | 1 | 2 | 3 -> schedule q ~at i
          | 4 -> schedule q ~at:(at +. 1e6) i
          | 5 -> schedule q ~at (chain + i)
          | 6 -> cancel q k
          | 7 | 8 -> ignore (step q : bool)
          | _ ->
              cancel q (Hashtbl.length q.handed - 1);
              schedule q ~at i)
        ops;
      finish q;
      true)

(* Payloads must ride along correctly, not just keys: tag every
   schedule, on a quarter-microsecond grid. *)
let prop_wheel_payloads_match =
  let op_gen = QCheck.Gen.(list (pair bool (int_bound 30))) in
  QCheck.Test.make ~name:"payloads track their keys" ~count:200 (ops_arb op_gen) (fun ops ->
      let q = create () in
      List.iteri
        (fun i (step_after, k) ->
          schedule q ~at:(now q +. (float_of_int k /. 4.)) i;
          if step_after then ignore (step q : bool))
        ops;
      finish q;
      true)

(* One long adversarial interleaving (seed 99, 20,000 schedules): 1 in
   10 at the current instant, 1 in 10 at +1e7 us (multi-level
   cascades), 1 in 10 on a 1/16 us grid (sub-microsecond ties), the rest
   up to 4,096 us ahead; a step after about every third schedule and a
   cancel of a random earlier one after about every tenth. *)
let test_adversarial_interleaving () =
  let rng = Engine.Rng.create ~seed:99 in
  let q = create () in
  for i = 0 to 19_999 do
    let now = now q in
    let at =
      match Engine.Rng.int rng 10 with
      | 0 -> now
      | 1 -> now +. 1e7
      | 2 -> now +. (float_of_int (Engine.Rng.int rng 1000) /. 16.)
      | _ -> now +. float_of_int (Engine.Rng.int rng 4096)
    in
    schedule q ~at i;
    if Engine.Rng.int rng 3 = 0 then
      if not (step q) then Alcotest.fail "nothing fired right after a schedule";
    if Engine.Rng.int rng 10 = 0 then cancel q (Engine.Rng.int rng (i + 1))
  done;
  finish q

(* ---- cascade and boundary edges ---- *)

let test_empty_queue () =
  let q = create () in
  Alcotest.(check bool) "heap empty" true (Heap.is_empty q.r.heap);
  Alcotest.(check int) "heap length" 0 (Heap.length q.r.heap);
  (* popping an empty heap returns -1 and leaves the buffer as it was *)
  q.r.buf.(0) <- 3.;
  Alcotest.(check int) "heap pop_into" (-1) (Heap.pop_into q.r.heap q.r.buf);
  Alcotest.(check (float 0.)) "buffer untouched" 3. q.r.buf.(0);
  Alcotest.(check bool) "sim step" false (Sim.step q.sim);
  Sim.run q.sim;
  Alcotest.(check (float 0.)) "clock untouched" 0. (now q);
  q.r.buf.(0) <- 0.;
  finish q

let test_far_future_cascades () =
  (* Events spanning many wheel levels: every fire must cascade down to
     the right microsecond, including after steps have moved the wheel. *)
  let q = create () in
  let times =
    [ 0.5; 31.; 32.; 33.; 1023.9; 1024.; 32_767.5; 32_768.; 1_048_575.
    ; 1_048_576.25; 1e9; 1e12; 4.6e18 (* above the tick clamp *) ]
  in
  List.iteri (fun i t -> schedule q ~at:t i) times;
  for _ = 1 to 5 do
    ignore (step q : bool)
  done;
  (* now 1023.9: the current instant, the next tick, and far spans *)
  List.iteri (fun i d -> schedule q ~at:(now q +. d) (100 + i)) [ 0.; 0.1; 1.; 33.; 1e6; 5e9 ];
  finish q;
  Alcotest.(check int) "all fired" 19 (Sim.stats q.sim).Sim.fired

let test_add_at_reached_tick () =
  (* After the wheel has reached microsecond 10, schedules inside it go
     into the ready run, at their (time, seq) position. *)
  let q = create () in
  List.iteri (fun i t -> schedule q ~at:t i) [ 10.; 10.25; 10.75; 50. ];
  ignore (step q : bool);
  (* now 10: at the current instant, tied with a queued event, between *)
  List.iteri (fun i t -> schedule q ~at:t (10 + i)) [ 10.; 10.25; 10.5 ];
  finish q;
  Alcotest.(check string) "fire order"
    (String.concat ""
       (List.map
          (fun (t, p) -> entry t p)
          [ (10., 0); (10., 10); (10.25, 1); (10.25, 11); (10.5, 12); (10.75, 2); (50., 3) ]))
    (Buffer.contents q.sim_log)

let test_same_tick_cohort () =
  (* 200 events inside one microsecond, three times the most any figure
     or benchmark run puts in one tick: one drain sorts them all, and
     every seventh is cancelled once the drain has moved it into the
     ready run. *)
  let q = create () in
  let rng = Engine.Rng.create ~seed:42 in
  for i = 0 to 199 do
    schedule q ~at:(7. +. (float_of_int (Engine.Rng.int rng 64) /. 64.)) i
  done;
  ignore (step q : bool);
  for i = 0 to 199 do
    if i mod 7 = 3 then cancel q i
  done;
  finish q;
  (* 29 cancels, less the one that may hit the already fired first event *)
  Alcotest.(check bool) "cancelled in the run" true ((Sim.stats q.sim).Sim.cancelled >= 28)

let test_pop_into_add_key_duals () =
  (* The reference's flat-buffer API in lockstep with the Sim: every pop
     writes the time the Sim's clock reads after the same fire, and
     returns the event whose payload the Sim's handler recorded. *)
  let q = create () in
  for i = 0 to 99 do
    schedule q ~at:(float_of_int ((i * 13) mod 50) /. 2.) i
  done;
  for _ = 0 to 99 do
    if not (step q) then Alcotest.fail "a scheduled event did not fire"
  done;
  Alcotest.(check bool) "heap drained" true (Heap.is_empty q.r.heap);
  Alcotest.(check int) "empty pop_into returns -1" (-1) (Heap.pop_into q.r.heap q.r.buf);
  Alcotest.(check (float 0.)) "buffer keeps the last time" (now q) q.r.buf.(0);
  finish q

let test_cancel_in_ready_run () =
  (* Three events in one tick; the first fire drains the tick, then the
     second is cancelled inside the run and the third still fires. A
     stale handle (the fired first event's) cancels nothing. *)
  let q = create () in
  List.iteri (fun i t -> schedule q ~at:t i) [ 5.; 5.5; 5.75 ];
  ignore (step q : bool);
  cancel q 1;
  cancel q 0;
  cancel q 1;
  finish q;
  Alcotest.(check string) "fire order" (entry 5. 0 ^ entry 5.75 2) (Buffer.contents q.sim_log);
  Alcotest.(check int) "one live cancel" 1 (Sim.stats q.sim).Sim.cancelled

let test_cancel_then_reschedule () =
  (* A timer re-armed over and over: each cancelled node lingers in its
     bucket until the wheel reaches it, but is never fired, and the
     pending count, hence [pool_slots], stays at one. *)
  let q = create () in
  for i = 0 to 499 do
    schedule q ~at:(now q +. 100. +. float_of_int (i mod 3)) i;
    cancel q i;
    if i mod 50 = 49 then ignore (step q : bool)
  done;
  schedule q ~at:(now q +. 100.) 500;
  finish q;
  Alcotest.(check int) "one pool slot" 1 (Sim.stats q.sim).Sim.pool_slots;
  Alcotest.(check string) "only the last fires" (entry 100. 500) (Buffer.contents q.sim_log)

(* ---- Sim-level equivalence ---- *)

(* A schedule/cancel/step script: ops 0-4 schedule an event k/2 us
   ahead (payload k for ops 0-2, 1000 + k for 3-4), 5 cancels the k-th
   event handed out (fired or not), 6-7 step. *)
let script_gen = QCheck.Gen.(list (pair (int_bound 7) (int_bound 20)))

let prop_sim_trace_matches_reference =
  QCheck.Test.make ~name:"sim traces identical under heap and wheel" ~count:200
    (ops_arb script_gen) (fun ops ->
      let q = create () in
      List.iter
        (fun (op, k) ->
          match op with
          | 0 | 1 | 2 | 3 | 4 ->
              schedule q ~at:(now q +. (float_of_int k /. 2.)) (if op <= 2 then k else 1000 + k)
          | 5 -> cancel q k
          | _ -> ignore (step q : bool))
        ops;
      finish q;
      true)

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
          Alcotest.test_case "same-tick cohort of 200" `Quick test_same_tick_cohort;
          Alcotest.test_case "pop_into/add_key duals" `Quick test_pop_into_add_key_duals;
          Alcotest.test_case "cancel in the ready run" `Quick test_cancel_in_ready_run;
          Alcotest.test_case "cancel then reschedule" `Quick test_cancel_then_reschedule;
        ] );
      ( "sim equivalence", [ QCheck_alcotest.to_alcotest prop_sim_trace_matches_reference ] );
    ]
