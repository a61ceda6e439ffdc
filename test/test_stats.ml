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
  Alcotest.(check (float 1e-9)) "min" 1. (Tally.min_value t);
  Alcotest.(check (float 1e-9)) "p50" 3. (Tally.p50 t);
  Alcotest.(check (float 1e-9)) "p99" 5. (Tally.p99 t)

let test_tally_empty () =
  let t = Tally.create () in
  Alcotest.(check bool) "empty" true (Tally.is_empty t);
  Alcotest.(check (float 0.)) "mean of empty" 0. (Tally.mean t);
  Alcotest.check_raises "percentile of empty" (Invalid_argument "Tally.percentile: empty tally")
    (fun () -> ignore (Tally.p99 t : float))

let test_tally_record_after_query () =
  (* Percentile queries sort internally; recording afterwards must still
     work correctly. *)
  let t = tally_of [ 3.; 1.; 2. ] in
  Alcotest.(check (float 1e-9)) "p50 before" 2. (Tally.p50 t);
  Tally.record t 0.5;
  Alcotest.(check int) "count grew" 4 (Tally.count t);
  Alcotest.(check (float 1e-9)) "p50 after" 1. (Tally.p50 t);
  Alcotest.(check (float 1e-9)) "max unchanged" 3. (Tally.max_value t)

let test_tally_merge_and_clear () =
  let a = tally_of [ 1.; 2. ] and b = tally_of [ 3. ] in
  let m = Tally.merge a b in
  Alcotest.(check int) "merged count" 3 (Tally.count m);
  Alcotest.(check (float 1e-9)) "merged mean" 2. (Tally.mean m);
  Tally.clear a;
  Alcotest.(check int) "cleared" 0 (Tally.count a)

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

(* After a percentile query the tally holds its samples in ascending
   order, bit for bit those of [Array.stable_sort Float.compare], except
   that the sort may put -0. before +0. (compare ties them). *)
let same_sorted got xs =
  let want = Array.copy xs in
  Array.stable_sort Float.compare want;
  let bits = Int64.bits_of_float in
  let neg_zeros a =
    Array.fold_left (fun n x -> if x = 0. && Float.sign_bit x then n + 1 else n) 0 a
  in
  Array.length got = Array.length want
  && Array.for_all2 (fun g w -> Int64.equal (bits g) (bits w) || (g = 0. && w = 0.)) got want
  && neg_zeros got = neg_zeros want

let sorted_samples xs =
  let t = Tally.create () in
  Array.iter (Tally.record t) xs;
  if Array.length xs > 0 then ignore (Tally.p50 t : float);
  Tally.samples t

(* Any non-NaN float: both signs and zeros, the infinities, subnormals,
   extreme exponents, and (from a per-array pool of three values) heavy
   duplicates, in arrays of 0 to 5,000 samples, so the insertion cutoff
   and several byte levels of the radix sort are all exercised. *)
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

let prop_sort_matches_stable_sort =
  QCheck.Test.make ~name:"tally sort = Array.stable_sort" ~count:200 arb_sort_input (fun xs ->
      same_sorted (sorted_samples xs) xs)

let test_tally_sort_exponential () =
  let rng = Rng.create ~seed:42 and d = Engine.Dist.exponential 10. in
  let xs = Array.init 120_000 (fun _ -> Engine.Dist.sample d rng) in
  Alcotest.(check bool) "120k exponential samples sorted" true (same_sorted (sorted_samples xs) xs)

let test_tally_stddev () =
  let t = tally_of [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  Alcotest.(check (float 1e-6)) "sample stddev" 2.13808993 (Tally.stddev t)

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

let test_ccdf_survival () =
  let samples = [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check (float 1e-9)) "survival mid" 0.5 (Ccdf.survival_at samples 2.);
  Alcotest.(check (float 1e-9)) "survival top" 0. (Ccdf.survival_at samples 4.);
  Alcotest.(check (float 1e-9)) "survival below" 1. (Ccdf.survival_at samples 0.);
  Alcotest.(check (float 1e-9)) "empty" 0. (Ccdf.survival_at [||] 1.)

(* Tally and Ccdf must describe the same distribution: the nearest-rank
   p-th percentile leaves at most (100 - p)% of the samples strictly above
   it, and fewer than p% strictly below it. *)
let prop_percentile_bounds_survival =
  QCheck.Test.make ~name:"tally percentile vs ccdf survival" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 200) (float_range 0. 1e6)) (float_range 0. 100.))
    (fun (xs, p) ->
      let samples = Array.of_list xs in
      let n = Array.length samples in
      let v = Tally.percentile (tally_of xs) p in
      let above = int_of_float (Float.round (Ccdf.survival_at samples v *. float_of_int n)) in
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
          Alcotest.test_case "merge/clear" `Quick test_tally_merge_and_clear;
          Alcotest.test_case "stddev" `Quick test_tally_stddev;
          QCheck_alcotest.to_alcotest prop_reserve_keeps_samples;
          QCheck_alcotest.to_alcotest prop_sort_matches_stable_sort;
          Alcotest.test_case "sort 120k exponential samples" `Quick test_tally_sort_exponential;
        ] );
      ( "ccdf",
        [
          Alcotest.test_case "monotone" `Quick test_ccdf_monotone;
          Alcotest.test_case "survival" `Quick test_ccdf_survival;
          Alcotest.test_case "empty" `Quick test_ccdf_empty;
        ] );
      ("quantiles", [ QCheck_alcotest.to_alcotest prop_percentile_bounds_survival ]);
    ]
