(* Tests for lib/stats: exact tally, CCDF. *)

module Tally = Stats.Tally
module Ccdf = Stats.Ccdf
module Rng = Engine.Rng

(* Reference nearest-rank percentile over a plain list. *)
let reference_percentile xs p =
  let sorted = List.sort Float.compare xs in
  let n = List.length sorted in
  let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let tally_of xs =
  let t = Tally.create () in
  List.iter (Tally.record t) xs;
  t

let prop_percentile_matches_reference =
  QCheck.Test.make ~name:"tally percentile = nearest-rank reference" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 200) (float_range 0. 1e6)) (float_range 0. 100.))
    (fun (xs, p) ->
      let t = tally_of xs in
      Tally.percentile t p = reference_percentile xs p)

let test_tally_basics () =
  let t = tally_of [ 5.; 1.; 3.; 2.; 4. ] in
  Alcotest.(check int) "count" 5 (Tally.count t);
  Alcotest.(check (float 1e-9)) "mean" 3. (Tally.mean t);
  Alcotest.(check (float 1e-9)) "max" 5. (Tally.max_value t);
  Alcotest.(check (float 1e-9)) "p50" 3. (Tally.p50 t);
  Alcotest.(check (float 1e-9)) "p99" 5. (Tally.p99 t)

let test_tally_empty () =
  let t = Tally.create () in
  Alcotest.(check bool) "empty" true (Tally.is_empty t);
  Alcotest.(check (float 0.)) "mean of empty" 0. (Tally.mean t);
  Alcotest.check_raises "percentile of empty" (Invalid_argument "Tally.percentile: empty tally")
    (fun () -> ignore (Tally.p99 t : float))

let test_tally_record_after_query () =
  (* Percentile queries reorder the store; recording afterwards must
     still work correctly. *)
  let t = tally_of [ 3.; 1.; 2. ] in
  Alcotest.(check (float 1e-9)) "p50 before" 2. (Tally.p50 t);
  Tally.record t 0.5;
  Alcotest.(check int) "count grew" 4 (Tally.count t);
  Alcotest.(check (float 1e-9)) "p50 after" 1. (Tally.p50 t);
  Alcotest.(check (float 1e-9)) "max unchanged" 3. (Tally.max_value t)

let test_tally_clear () =
  let a = tally_of [ 1.; 2. ] in
  Tally.clear a;
  Alcotest.(check int) "cleared" 0 (Tally.count a);
  Tally.record a 3.;
  Alcotest.(check (float 1e-9)) "records after clear" 3. (Tally.p50 a)

(* [reserve] only sizes the reservoir: with it, and with samples handed
   over by [record_from], a tally holds the same samples and answers the
   same percentiles as plain [record]s, also once recording runs past
   the reservation. *)
let prop_reserve_keeps_samples =
  QCheck.Test.make ~name:"reserve keeps samples" ~count:300
    QCheck.(
      triple (list_of_size Gen.(0 -- 600) (float_range 0. 1e6)) (int_range 0 400)
        (int_range 0 600))
    (fun (xs, reservation, reserve_at) ->
      let plain = tally_of xs in
      let reserved = Tally.create () in
      let buf = [| 0. |] in
      List.iteri
        (fun i x ->
          if i = reserve_at then Tally.reserve reserved reservation;
          buf.(0) <- x;
          Tally.record_from reserved buf 0)
        xs;
      if reserve_at >= List.length xs then Tally.reserve reserved reservation;
      let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      Array.for_all2 same_bits (Tally.samples plain) (Tally.samples reserved)
      && Tally.count plain = Tally.count reserved
      && same_bits (Tally.mean plain) (Tally.mean reserved)
      && (xs = []
         || List.for_all
              (fun p -> same_bits (Tally.percentile plain p) (Tally.percentile reserved p))
              [ 0.; 1.; 50.; 90.; 99.; 99.9; 100. ]))

(* Any non-NaN float: both signs and zeros, the infinities, subnormals,
   extreme exponents, and (from a per-array pool of three values) heavy
   duplicates, in arrays of 0 to 5,000 samples. *)
let arb_sort_input =
  let open QCheck.Gen in
  let not_nan x = if Float.is_nan x then 0. else x in
  let special =
    oneofl
      [ 0.; -0.; infinity; neg_infinity; Float.min_float; -.Float.min_float; 0x1p-1074;
        -0x1p-1074; Float.max_float; -.Float.max_float ]
  in
  let any_bits = map (fun b -> not_nan (Int64.float_of_bits b)) ui64 in
  let subnormal = map (fun b -> Int64.float_of_bits (Int64.logand b 0xF_FFFF_FFFF_FFFFL)) ui64 in
  let sample pool =
    frequency
      [ (4, float_range 0. 1e3); (2, float_range (-1e3) 0.); (1, special); (2, any_bits);
        (1, subnormal); (1, map (fun x -> -.x) subnormal); (4, oneofl pool) ]
  in
  let gen =
    list_repeat 3 any_bits >>= fun pool ->
    frequency [ (1, 0 -- 40); (3, 0 -- 5_000) ] >>= fun n -> array_repeat n (sample pool)
  in
  let print a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
  QCheck.make gen ~print

let tally_of_array xs =
  let t = Tally.create () in
  Array.iter (Tally.record t) xs;
  t

(* Each percentile is the nearest-rank element of the sorted samples,
   zeros compared by value (a selection may return -0. for +0.). The
   ranks are asked out of order, so a selection runs on either side of
   the index the one before placed. *)
let prop_percentiles_match_stable_sort =
  QCheck.Test.make ~name:"tally percentiles = Array.stable_sort" ~count:200 arb_sort_input
    (fun xs ->
      let sorted = Array.copy xs in
      Array.stable_sort Float.compare sorted;
      let n = Array.length xs and t = tally_of_array xs in
      n = 0
      || List.for_all
           (fun p ->
             let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
             let want = sorted.(max 0 (min (n - 1) (rank - 1))) in
             let got = Tally.percentile t p in
             Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want)
             || (got = 0. && want = 0.))
           [ 50.; 99.; 99.9; 0.; 100.; 1.; 90. ])

(* The mean's bits depend only on the multiset: a shuffled copy, queried
   for a percentile first (which reorders the store), has the same
   mean. *)
let prop_mean_ignores_order =
  QCheck.Test.make ~name:"tally mean ignores order" ~count:200
    (QCheck.pair arb_sort_input QCheck.int)
    (fun (xs, seed) ->
      let ys = Array.copy xs in
      let rng = Rng.create ~seed in
      for i = Array.length ys - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let y = ys.(i) in
        ys.(i) <- ys.(j);
        ys.(j) <- y
      done;
      let shuffled = tally_of_array ys in
      if Array.length ys > 0 then ignore (Tally.p99 shuffled : float);
      let a = Tally.mean (tally_of_array xs) and b = Tally.mean shuffled in
      Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      || (Float.is_nan a && Float.is_nan b))

(* The mean's value, against a compensated sum. Most samples of
   [0, 1e6) share the exponents 18 and 19, so the per-exponent integer
   sums carry. *)
let prop_mean_matches_compensated_sum =
  QCheck.Test.make ~name:"tally mean = compensated sum" ~count:200
    QCheck.(array_of_size Gen.(1 -- 5_000) (float_range (-1e3) 1e6))
    (fun xs ->
      let sum = ref 0. and c = ref 0. and abs_sum = ref 0. in
      Array.iter
        (fun x ->
          let t = !sum +. x in
          c := !c +. (if abs_float !sum >= abs_float x then !sum -. t +. x else x -. t +. !sum);
          sum := t;
          abs_sum := !abs_sum +. abs_float x)
        xs;
      let n = float_of_int (Array.length xs) in
      abs_float (Tally.mean (tally_of_array xs) -. ((!sum +. !c) /. n)) <= 1e-12 *. !abs_sum /. n)

let test_ccdf_monotone () =
  let samples = Array.init 500 (fun i -> float_of_int (i * i mod 997)) in
  let points = Ccdf.of_samples samples in
  let rec check = function
    | { Ccdf.value = v1; prob = p1 } :: ({ Ccdf.value = v2; prob = p2 } :: _ as rest) ->
        Alcotest.(check bool) "values ascend" true (v1 <= v2);
        Alcotest.(check bool) "probs descend" true (p1 >= p2);
        check rest
    | _ -> ()
  in
  check points;
  (match List.rev points with
  | last :: _ -> Alcotest.(check (float 1e-9)) "tail reaches 0" 0. last.Ccdf.prob
  | [] -> Alcotest.fail "no points")

(* The nearest-rank p-th percentile and the survival function (the
   fraction of samples strictly above a value, what a CCDF plots) must
   describe the same distribution: the percentile leaves at most
   (100 - p)% of the samples strictly above it, and fewer than p%
   strictly below it. *)
let prop_percentile_bounds_survival =
  QCheck.Test.make ~name:"tally percentile vs ccdf survival" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 200) (float_range 0. 1e6)) (float_range 0. 100.))
    (fun (xs, p) ->
      let samples = Array.of_list xs in
      let n = Array.length samples in
      let v = Tally.percentile (tally_of xs) p in
      let above = Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 samples in
      let below = Array.fold_left (fun acc x -> if x < v then acc + 1 else acc) 0 samples in
      let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int n))) in
      n - above >= rank && below < rank)

let test_ccdf_empty () = Alcotest.(check int) "no points" 0 (List.length (Ccdf.of_samples [||]))

let () =
  Alcotest.run "stats"
    [
      ( "tally",
        [
          QCheck_alcotest.to_alcotest prop_percentile_matches_reference;
          Alcotest.test_case "basics" `Quick test_tally_basics;
          Alcotest.test_case "empty" `Quick test_tally_empty;
          Alcotest.test_case "record after query" `Quick test_tally_record_after_query;
          Alcotest.test_case "clear" `Quick test_tally_clear;
          QCheck_alcotest.to_alcotest prop_reserve_keeps_samples;
          QCheck_alcotest.to_alcotest prop_percentiles_match_stable_sort;
          QCheck_alcotest.to_alcotest prop_mean_ignores_order;
          QCheck_alcotest.to_alcotest prop_mean_matches_compensated_sum;
        ] );
      ( "ccdf",
        [
          Alcotest.test_case "monotone" `Quick test_ccdf_monotone;
          Alcotest.test_case "empty" `Quick test_ccdf_empty;
        ] );
      ("quantiles", [ QCheck_alcotest.to_alcotest prop_percentile_bounds_survival ]);
    ]
