(* Tests for lib/engine: PRNG, distributions, event heap, simulator. *)

module Rng = Engine.Rng
module Dist = Engine.Dist
module Heap = Engine.Heap
module Sim = Engine.Sim

let check_float = Alcotest.(check (float 1e-9))

(* ---- Rng ---- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:8 in
  Alcotest.(check bool) "different seeds differ" true (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_copy_independent () =
  let a = Rng.create ~seed:3 in
  ignore (Rng.next_int64 a : int64);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues the stream" (Rng.next_int64 a) (Rng.next_int64 b);
  ignore (Rng.next_int64 a : int64);
  (* advancing a does not affect b *)
  let a' = Rng.next_int64 a and b' = Rng.next_int64 b in
  Alcotest.(check bool) "streams diverged after extra draw" true (a' <> b' || a' = b')

let test_rng_split_decorrelated () =
  let a = Rng.create ~seed:3 in
  let b = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 50 (fun _ -> Rng.next_int64 b) in
  Alcotest.(check bool) "split stream differs" true (xs <> ys)

let test_rng_float_range () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    if x < 0. || x >= 1. then Alcotest.failf "float out of [0,1): %g" x
  done

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:2 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 17 in
    if x < 0 || x >= 17 then Alcotest.failf "int out of [0,17): %d" x
  done;
  for _ = 1 to 1_000 do
    let x = Rng.int_range rng 5 9 in
    if x < 5 || x > 9 then Alcotest.failf "int_range out of [5,9]: %d" x
  done

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:4 in
  let n = 200_000 in
  let d = Dist.exponential 10. in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Dist.sample d rng
  done;
  let mean = !sum /. float_of_int n in
  if abs_float (mean -. 10.) > 0.2 then Alcotest.failf "exponential mean off: %g" mean

(* [float_into] is [float] with the result stored flat: same bits, same
   stream position. *)
let test_rng_float_into () =
  let a = Rng.create ~seed:6 and b = Rng.create ~seed:6 in
  let buf = [| 0.; 0.; 0. |] in
  for _ = 1 to 10_000 do
    Rng.float_into a buf 1;
    let x = Rng.float b in
    if Int64.bits_of_float buf.(1) <> Int64.bits_of_float x then
      Alcotest.failf "float_into %h <> float %h" buf.(1) x
  done;
  Alcotest.(check (float 0.)) "neighbours untouched" 0. (buf.(0) +. buf.(2))

let test_rng_bernoulli () =
  let rng = Rng.create ~seed:5 in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  if abs_float (p -. 0.3) > 0.01 then Alcotest.failf "bernoulli(0.3) off: %g" p

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let rng = Rng.create ~seed in
      let a = Array.of_list xs in
      Rng.shuffle_in_place rng a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

(* Pins the exact permutation stream of [shuffle_in_place] at the
   lengths the simulator uses: 2 and 3 (the 3- and 4-core goldens) and 15
   (every 16-core figure's steal-victim order). Each case shuffles one
   array 1000 times from a fixed seed and checks the final array, a
   rolling hash of every intermediate permutation, and the generator's
   next draw, so a rewrite of the shuffle must consume the same draws
   and swap the same slots. Values captured from the length-unrolled
   polymorphic implementation. *)
let test_shuffle_stream_pinned () =
  List.iter
    (fun (n, final, hash, next) ->
      let rng = Rng.create ~seed:2017 in
      let a = Array.init n Fun.id in
      let h = ref 0 in
      for _ = 1 to 1000 do
        Rng.shuffle_in_place rng a;
        Array.iter (fun x -> h := ((!h * 31) + x) land 0x3FFFFFFF) a
      done;
      let ctx what = Printf.sprintf "length %d: %s" n what in
      Alcotest.(check (array int)) (ctx "final array") final a;
      Alcotest.(check int) (ctx "permutation hash") hash !h;
      Alcotest.(check int64) (ctx "next draw") next (Rng.next_int64 rng))
    [
      (2, [| 1; 0 |], 0x349b6928, 0x5F163A0CEB1E4181L);
      (3, [| 2; 1; 0 |], 0x159470a, 0xD75B95FEC2B0E7B4L);
      ( 15,
        [| 5; 7; 6; 3; 0; 2; 11; 14; 13; 10; 8; 12; 9; 1; 4 |],
        0x271c700,
        0xF3072491E6EEC606L );
    ]

(* ---- Dist ---- *)

let test_dist_means () =
  check_float "deterministic" 5. (Dist.mean (Dist.deterministic 5.));
  check_float "exponential" 7. (Dist.mean (Dist.exponential 7.));
  check_float "bimodal1 mean is S" 10. (Dist.mean (Dist.bimodal1 ~mean:10.));
  check_float "bimodal2 mean is S" 10. (Dist.mean (Dist.bimodal2 ~mean:10.))

let test_dist_scv () =
  check_float "deterministic scv" 0. (Dist.squared_cv (Dist.deterministic 4.));
  Alcotest.(check (float 1e-9)) "exponential scv" 1. (Dist.squared_cv (Dist.exponential 4.));
  Alcotest.(check bool) "bimodal2 has huge dispersion" true
    (Dist.squared_cv (Dist.bimodal2 ~mean:1.) > 100.)

let test_dist_sample_values () =
  let rng = Rng.create ~seed:6 in
  let d = Dist.bimodal1 ~mean:10. in
  for _ = 1 to 1_000 do
    let x = Dist.sample d rng in
    if not (x = 5. || x = 55.) then Alcotest.failf "bimodal1 sample unexpected: %g" x
  done

let test_dist_sample_mean () =
  let rng = Rng.create ~seed:7 in
  List.iter
    (fun d ->
      let n = 100_000 in
      let sum = ref 0. in
      for _ = 1 to n do
        sum := !sum +. Dist.sample d rng
      done;
      let m = !sum /. float_of_int n in
      let expected = Dist.mean d in
      if abs_float (m -. expected) /. expected > 0.05 then
        Alcotest.failf "sample mean of %s off: %g vs %g" (Dist.name d) m expected)
    [ Dist.deterministic 3.; Dist.exponential 3.; Dist.bimodal1 ~mean:3. ]

(* [sample_into] is each distribution's one sampler: the inverse-CDF,
   coin and uniform-pick formulas over [Rng], bit for bit, consuming the
   same draws. *)
let test_dist_sample_into_formulas () =
  let reference d rng =
    match d with
    | Dist.Deterministic s -> s
    | Dist.Exponential s -> -.s *. log (1. -. Rng.float rng)
    | Dist.Bimodal { p_slow; fast; slow } -> if Rng.float rng < p_slow then slow else fast
    | Dist.Empirical a -> a.(Rng.int rng (Array.length a))
  in
  List.iter
    (fun d ->
      let a = Rng.create ~seed:17 and b = Rng.create ~seed:17 in
      let buf = [| 0.; 0. |] in
      for _ = 1 to 2_000 do
        Dist.sample_into d a buf 1;
        let r = reference d b in
        if Int64.bits_of_float buf.(1) <> Int64.bits_of_float r then
          Alcotest.failf "%s: sample_into %h <> formula %h" (Dist.name d) buf.(1) r
      done;
      Alcotest.(check (float 0.)) (Dist.name d ^ ": same draws consumed") (Rng.float a)
        (Rng.float b))
    [ Dist.deterministic 3.; Dist.exponential 3.; Dist.bimodal1 ~mean:3.;
      Dist.bimodal2 ~mean:3.; Dist.empirical [| 1.; 2.5; 7. |] ]

let test_dist_empirical () =
  let d = Dist.empirical [| 1.; 2.; 3.; 4. |] in
  check_float "empirical mean" 2.5 (Dist.mean d);
  let rng = Rng.create ~seed:8 in
  for _ = 1 to 100 do
    let x = Dist.sample d rng in
    if not (List.mem x [ 1.; 2.; 3.; 4. ]) then Alcotest.failf "empirical sample: %g" x
  done;
  Alcotest.check_raises "empty empirical" (Invalid_argument "Dist.empirical: no samples")
    (fun () -> ignore (Dist.empirical [||] : Dist.t))

(* ---- Heap ---- *)

(* Drain [h] through [pop_into], returning (time, payload) pairs. *)
let heap_drain h =
  let buf = [| 0. |] in
  let rec go acc =
    let v = Heap.pop_into h buf in
    if v < 0 then List.rev acc else go ((buf.(0), v) :: acc)
  in
  go []

let heap_add h buf ~time v =
  buf.(0) <- time;
  Heap.add_key h buf v

let prop_heap_sorted =
  QCheck.Test.make ~name:"pop yields times in order" ~count:200
    QCheck.(list (float_range 0. 1000.))
    (fun times ->
      let h = Heap.create () and buf = [| 0. |] in
      List.iteri (fun i t -> heap_add h buf ~time:t i) times;
      let popped = List.map fst (heap_drain h) in
      List.length popped = List.length times && popped = List.sort compare times)

(* Random add/pop interleavings against a sorted-list reference model:
   pops must agree with the model exactly — nondecreasing times with FIFO
   tie-breaking by insertion sequence — and so must [length]. Times are
   drawn from a coarse grid so ties are frequent. *)
let prop_heap_matches_model =
  let op_gen =
    QCheck.Gen.(
      list
        (pair (int_bound 7) (map (fun k -> float_of_int k /. 2.) (int_bound 20))))
  in
  QCheck.Test.make ~name:"heap agrees with sorted-list model" ~count:300
    (QCheck.make ~print:(fun ops -> string_of_int (List.length ops)) op_gen)
    (fun ops ->
      let h = Heap.create () and buf = [| 0. |] in
      let model = ref [] in
      (* model entries: (time, seq); popped element = min by (time, seq) *)
      let next_seq = ref 0 in
      List.for_all
        (fun (op, time) ->
          if op <= 4 then begin
            heap_add h buf ~time !next_seq;
            model := (time, !next_seq) :: !model;
            incr next_seq;
            true
          end
          else if op <= 6 then begin
            match (Heap.pop_into h buf, !model) with
            | -1, [] -> true
            | -1, _ :: _ -> false
            | _, [] -> false
            | v, entries ->
                let ((mt, ms) as m) =
                  List.fold_left
                    (fun acc e -> if compare e acc < 0 then e else acc)
                    (List.hd entries) (List.tl entries)
                in
                model := List.filter (fun e -> e <> m) entries;
                buf.(0) = mt && v = ms
          end
          else Heap.length h = List.length !model && Heap.is_empty h = (!model = []))
        ops
      && Heap.length h = List.length !model)

let test_heap_fifo_ties () =
  let h = Heap.create () and buf = [| 0. |] in
  List.iter (fun i -> heap_add h buf ~time:1.0 i) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "FIFO among equal times" [ 1; 2; 3; 4; 5 ]
    (List.map snd (heap_drain h))

let test_heap_length () =
  let h = Heap.create () and buf = [| 0. |] in
  Alcotest.(check bool) "fresh heap empty" true (Heap.is_empty h);
  for i = 1 to 100 do
    heap_add h buf ~time:(float_of_int (100 - i)) i
  done;
  Alcotest.(check int) "length" 100 (Heap.length h);
  Alcotest.(check int) "min payload" 100 (Heap.pop_into h buf);
  Alcotest.(check (float 0.)) "min time" 0. buf.(0);
  Alcotest.(check int) "length after a pop" 99 (Heap.length h);
  Alcotest.(check int) "drained" 99 (List.length (heap_drain h));
  Alcotest.(check bool) "empty after drain" true (Heap.is_empty h)

let test_heap_no_stale_values () =
  (* An empty heap — including one grown from empty and drained — must
     never expose a previously stored payload: its pop returns -1 and
     leaves the buffer as it was. *)
  let h = Heap.create () and buf = [| 0. |] in
  buf.(0) <- 7.;
  Alcotest.(check int) "fresh pop" (-1) (Heap.pop_into h buf);
  Alcotest.(check (float 0.)) "fresh pop leaves the buffer" 7. buf.(0);
  for i = 1 to 200 do
    heap_add h buf ~time:(float_of_int i) i
  done;
  Alcotest.(check int) "200 popped" 200 (List.length (heap_drain h));
  buf.(0) <- 7.;
  Alcotest.(check int) "drained pop" (-1) (Heap.pop_into h buf);
  Alcotest.(check (float 0.)) "drained pop leaves the buffer" 7. buf.(0)

(* ---- Sim ---- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Later.after sim ~delay:3. (fun () -> log := 3 :: !log) : Sim.handle);
  ignore (Later.after sim ~delay:1. (fun () -> log := 1 :: !log) : Sim.handle);
  ignore (Later.after sim ~delay:2. (fun () -> log := 2 :: !log) : Sim.handle);
  Sim.run sim;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  check_float "clock at last event" 3. (Sim.now sim)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Later.after sim ~delay:1. (fun () -> fired := true) in
  Sim.cancel sim h;
  Sim.run sim;
  Alcotest.(check bool) "cancelled event did not fire" false !fired

let test_sim_pool_recycles () =
  (* A long chain of schedule-inside-action events must run in O(1) pool
     slots, recycling the same slot instead of allocating fresh ones. *)
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 1_000 then ignore (Later.after sim ~delay:1. tick : Sim.handle)
  in
  ignore (Later.after sim ~delay:1. tick : Sim.handle);
  Sim.run sim;
  let s = Sim.stats sim in
  Alcotest.(check int) "all fired" 1_000 s.Sim.fired;
  Alcotest.(check int) "all scheduled" 1_000 s.Sim.scheduled;
  Alcotest.(check int) "no cancels" 0 s.Sim.cancelled;
  Alcotest.(check bool) "slots recycled" true (s.Sim.reused >= 998);
  Alcotest.(check bool) "pool stayed tiny" true (s.Sim.pool_slots <= 2)

let test_sim_stale_handle_is_inert () =
  (* After an event fires, its pool slot may be reused by a new event; the
     old handle must not be able to cancel the new occupant. *)
  let sim = Sim.create () in
  let first = Later.after sim ~delay:1. (fun () -> ()) in
  Sim.run sim;
  let fired = ref false in
  ignore (Later.after sim ~delay:1. (fun () -> fired := true) : Sim.handle);
  Sim.cancel sim first;
  (* stale: same slot, older generation *)
  Sim.run sim;
  Alcotest.(check bool) "new event still fired" true !fired;
  Alcotest.(check int) "stale cancel not counted" 0 (Sim.stats sim).Sim.cancelled

let test_sim_cancel_frees_slot () =
  let sim = Sim.create () in
  let h = Later.after sim ~delay:5. (fun () -> ()) in
  Sim.cancel sim h;
  ignore (Later.after sim ~delay:6. (fun () -> ()) : Sim.handle);
  Sim.run sim;
  let s = Sim.stats sim in
  Alcotest.(check int) "one cancel" 1 s.Sim.cancelled;
  Alcotest.(check int) "one fired" 1 s.Sim.fired;
  Alcotest.(check bool) "cancelled slot reused" true (s.Sim.reused >= 1);
  Alcotest.(check int) "single slot" 1 s.Sim.pool_slots

let test_sim_past_raises () =
  let sim = Sim.create () in
  ignore (Later.after sim ~delay:5. (fun () -> ()) : Sim.handle);
  Sim.run sim;
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Sim.schedule_fn_keyed: at 1 is in the past or NaN (now 5)") (fun () ->
      (Sim.key_buffer sim).(0) <- 1.;
      ignore (Sim.schedule_fn_keyed sim ignore 0 : Sim.handle))

let test_sim_negative_delay_raises () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.schedule_fn_keyed: at -1 is in the past or NaN (now 0)") (fun () ->
      ignore (Later.after sim ~delay:(-1.) ignore : Sim.handle))

(* A NaN time would file at the wheel's last tick and, once fired, leave
   the clock NaN for the rest of the run. *)
let test_sim_nan_time_raises () =
  let sim = Sim.create () in
  Alcotest.check_raises "NaN time rejected"
    (Invalid_argument "Sim.schedule_fn_keyed: at nan is in the past or NaN (now 0)") (fun () ->
      (Sim.key_buffer sim).(0) <- nan;
      ignore (Sim.schedule_fn_keyed sim ignore 0 : Sim.handle));
  Alcotest.(check int) "nothing queued" 0 (Sim.pending sim)

let test_sim_nested_scheduling () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Later.after sim ~delay:1. (fun () ->
         log := "outer" :: !log;
         ignore (Later.after sim ~delay:1. (fun () -> log := "inner" :: !log) : Sim.handle))
      : Sim.handle);
  Sim.run sim;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  check_float "clock" 2. (Sim.now sim)

let test_sim_same_time_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Later.after sim ~delay:1. (fun () -> log := i :: !log) : Sim.handle)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO at same instant" [ 1; 2; 3; 4; 5 ] (List.rev !log)

(* ---- Intqs: many FIFOs in one node pool ---- *)

type intqs_op = Push of int * int | Pop of int | Remove_all of int * int

(* Random push, pop and remove_all over 1-64 queues against one
   [Queue.t] per queue. Values come from a small range so remove_all
   finds repeats; pushes outnumber pops, so up to 2,000 ops grow the
   pool (64 initial nodes) through several doublings while queues drain
   and refill. *)
let prop_intqs_matches_queues =
  let gen =
    QCheck.Gen.(
      int_range 1 64 >>= fun queues ->
      let q = int_bound (queues - 1) and v = int_bound 9 in
      let op =
        frequency
          [
            (5, map2 (fun q v -> Push (q, v)) q v);
            (3, map (fun q -> Pop q) q);
            (1, map2 (fun q v -> Remove_all (q, v)) q v);
          ]
      in
      map (fun ops -> (queues, ops)) (list_size (int_range 0 2_000) op))
  in
  QCheck.Test.make ~name:"intqs agrees with one Queue per queue" ~count:300
    (QCheck.make
       ~print:(fun (queues, ops) -> Printf.sprintf "%d queues, %d ops" queues (List.length ops))
       gen)
    (fun (queues, ops) ->
      let t = Engine.Intqs.create ~queues () in
      let model = Array.init queues (fun _ -> Queue.create ()) in
      let head q = Option.value ~default:Engine.Intqs.empty (Queue.peek_opt model.(q)) in
      List.for_all
        (function
          | Push (q, v) ->
              Engine.Intqs.push t q v;
              Queue.add v model.(q);
              true
          | Pop q ->
              let want = head q in
              ignore (Queue.take_opt model.(q) : int option);
              Engine.Intqs.pop t q = want
          | Remove_all (q, v) ->
              Engine.Intqs.remove_all t q v;
              let kept = Queue.create () in
              Queue.iter (fun x -> if x <> v then Queue.add x kept) model.(q);
              Queue.clear model.(q);
              Queue.transfer kept model.(q);
              true)
        ops
      &&
      (* Drain: every queue holds exactly its model's elements, in order. *)
      let ok = ref true in
      Array.iteri
        (fun q m ->
          Queue.iter (fun x -> if Engine.Intqs.pop t q <> x then ok := false) m;
          if not (Engine.Intqs.is_empty t q) then ok := false)
        model;
      !ok)

let test_intqs_validation () =
  Alcotest.check_raises "queues < 0" (Invalid_argument "Intqs.create: queues < 0") (fun () ->
      ignore (Engine.Intqs.create ~queues:(-1) () : Engine.Intqs.t))

let () =
  Alcotest.run "engine"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split_decorrelated;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
          Alcotest.test_case "float_into = float" `Quick test_rng_float_into;
          QCheck_alcotest.to_alcotest prop_shuffle_is_permutation;
          Alcotest.test_case "shuffle stream pinned" `Quick test_shuffle_stream_pinned;
        ] );
      ( "dist",
        [
          Alcotest.test_case "analytic means" `Quick test_dist_means;
          Alcotest.test_case "squared CV" `Quick test_dist_scv;
          Alcotest.test_case "bimodal support" `Quick test_dist_sample_values;
          Alcotest.test_case "sample means" `Slow test_dist_sample_mean;
          Alcotest.test_case "empirical" `Quick test_dist_empirical;
          Alcotest.test_case "sample_into formulas" `Quick test_dist_sample_into_formulas;
        ] );
      ( "heap",
        [
          QCheck_alcotest.to_alcotest prop_heap_sorted;
          QCheck_alcotest.to_alcotest prop_heap_matches_model;
          Alcotest.test_case "FIFO ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "length" `Quick test_heap_length;
          Alcotest.test_case "no stale values" `Quick test_heap_no_stale_values;
        ] );
      ( "sim",
        [
          Alcotest.test_case "ordering" `Quick test_sim_ordering;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "pool recycles" `Quick test_sim_pool_recycles;
          Alcotest.test_case "stale handle inert" `Quick test_sim_stale_handle_is_inert;
          Alcotest.test_case "cancel frees slot" `Quick test_sim_cancel_frees_slot;
          Alcotest.test_case "past raises" `Quick test_sim_past_raises;
          Alcotest.test_case "negative delay" `Quick test_sim_negative_delay_raises;
          Alcotest.test_case "NaN time rejected" `Quick test_sim_nan_time_raises;
          Alcotest.test_case "nested" `Quick test_sim_nested_scheduling;
          Alcotest.test_case "same-time FIFO" `Quick test_sim_same_time_fifo;
        ] );
      ( "intqs",
        [
          QCheck_alcotest.to_alcotest prop_intqs_matches_queues;
          Alcotest.test_case "validation" `Quick test_intqs_validation;
        ] );
    ]
