(* Seed-replicated statistical equivalence of the ZygOS model.

   A change that keeps ZygOS's model but moves its RNG stream (for
   example, drawing a victim order at a different point) changes every
   output at the byte level, so the byte-exact goldens of
   test_determinism.ml cannot tell a faithful change from a broken one.
   This test can. Each point below runs R = 16 independently seeded
   replicates, and each metric's replicate mean is compared with the
   mean stored in [baseline]. A comparison passes iff the two 99%
   confidence intervals of the mean overlap:

     |new mean - old mean| <= 2.576 * (sd_old + sd_new) / sqrt R

   where sd is the sample standard deviation over the replicates. Every
   replicate must also be work conserving and keep per-connection order.

   Seeds, R, the request count and the tolerance were fixed before any
   result was seen; tuning them to a result defeats the test. The
   executable prints one markdown row per (system, load, metric) before
   the checks run: old mean, new mean and |delta|/tolerance. *)

module Run = Experiments.Run

let replicates = 16
let requests = 8_000
let z99 = 2.576
let loads = [ 0.1; 0.3; 0.5; 0.7; 0.8; 0.9 ]
let systems = [ Run.Zygos; Run.Zygos_no_interrupts ]

(* Metric names, in the order of each baseline row's array. *)
let metrics = [| "mean"; "p50"; "p99"; "steal_fraction"; "ipis_per_req" |]

let counter (p : Run.point) key =
  match Run.info_value p key with
  | Some v -> v
  | None -> Alcotest.failf "missing info key %s" key

let metric_values (p : Run.point) =
  [|
    p.Run.mean;
    p.Run.p50;
    p.Run.p99;
    counter p "steal_fraction";
    counter p "ipis_sent" /. float_of_int p.Run.completed;
  |]

(* Replicate mean and sample standard deviation, per metric, for
   (system, load). Each (mean, sd) pair below is in [metrics] order.
   Captured at commit 9187125 (one event per wake sweep, eager victim
   orders) with this file's seeds, R and request count. *)
let baseline =
  [
    ( Run.Zygos, 0.1,
      [| (11.896187, 0.12882975); (8.8015556, 0.10807417); (49.002684, 1.0206853);
         (0.10274694, 0.0039875485); (0.22368518, 0.0087660702) |] );
    ( Run.Zygos, 0.3,
      [| (12.953071, 0.13782255); (9.7301339, 0.14215219); (51.487571, 1.6043333);
         (0.32927083, 0.0081708666); (0.88590576, 0.022876811) |] );
    ( Run.Zygos, 0.5,
      [| (14.258909, 0.13951587); (10.871987, 0.16662123); (55.324531, 1.123668);
         (0.56192233, 0.010425241); (1.6452042, 0.033112816) |] );
    ( Run.Zygos, 0.7,
      [| (17.557557, 0.47171751); (14.114504, 0.45620937); (62.392549, 1.8823634);
         (0.73735942, 0.01071252); (2.0351313, 0.036370848) |] );
    ( Run.Zygos, 0.8,
      [| (31.580635, 11.002198); (24.790981, 5.3987891); (115.42995, 59.516642);
         (0.71792688, 0.013469605); (1.4978165, 0.14007758) |] );
    ( Run.Zygos, 0.9,
      [| (253.3979, 55.509007); (190.83012, 52.306805); (969.21326, 237.11154);
         (0.63626273, 0.01856256); (0.69387257, 0.033076729) |] );
    ( Run.Zygos_no_interrupts, 0.1,
      [| (12.697625, 0.1846313); (9.2503326, 0.20755545); (52.955233, 1.8047848);
         (0.01263641, 0.0010046263); (0., 0.) |] );
    ( Run.Zygos_no_interrupts, 0.3,
      [| (15.608193, 0.23968529); (11.835462, 0.17965398); (61.36448, 2.2468888);
         (0.087563059, 0.0036451013); (0., 0.) |] );
    ( Run.Zygos_no_interrupts, 0.5,
      [| (19.235909, 0.36189977); (15.32092, 0.30246468); (70.470682, 2.2883603);
         (0.20527347, 0.0050433514); (0., 0.) |] );
    ( Run.Zygos_no_interrupts, 0.7,
      [| (25.115757, 0.59095591); (21.233159, 0.56861147); (83.615256, 4.3731894);
         (0.36959706, 0.0076539326); (0., 0.) |] );
    ( Run.Zygos_no_interrupts, 0.8,
      [| (33.632957, 2.8840791); (28.542397, 2.2704686); (113.52386, 14.248282);
         (0.49813989, 0.021034676); (0., 0.) |] );
    ( Run.Zygos_no_interrupts, 0.9,
      [| (184.90123, 48.304005); (146.72109, 40.831664); (660.94749, 151.85869);
         (0.71025987, 0.019368661); (0., 0.) |] );
  ]

let stored system load =
  match List.find_opt (fun (s, l, _) -> s = system && Float.equal l load) baseline with
  | Some (_, _, row) -> row
  | None -> Alcotest.failf "no baseline for %s at load %g" (Run.system_name system) load

let replicate_points system load =
  let service = Engine.Dist.exponential 10. in
  List.init replicates (fun r ->
      let key = Printf.sprintf "equiv/%s/%g/%d" (Run.system_name system) load r in
      let seed = Experiments.Sweep.point_seed ~seed:2017 ~key in
      let cfg = Run.config ~cores:16 ~conns:2752 ~requests ~seed ~system ~service () in
      Run.run_point cfg ~load)

let mean_sd xs =
  let n = float_of_int (List.length xs) in
  let mean = List.fold_left ( +. ) 0. xs /. n in
  let ss = List.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0. xs in
  (mean, sqrt (ss /. (n -. 1.)))

type comparison = {
  c_system : Run.system_kind;
  c_load : float;
  c_metric : string;
  c_old : float * float;
  c_new : float * float;
  c_ratio : float;  (* |delta| / tolerance; pass iff <= 1 *)
}

let compare_point system load points =
  let old_row = stored system load in
  let values = List.map metric_values points in
  Array.to_list
    (Array.mapi
       (fun i name ->
         let ((old_mean, old_sd) as c_old) = old_row.(i) in
         let ((new_mean, new_sd) as c_new) = mean_sd (List.map (fun v -> v.(i)) values) in
         let delta = Float.abs (new_mean -. old_mean) in
         let tol = z99 *. (old_sd +. new_sd) /. sqrt (float_of_int replicates) in
         let c_ratio = if delta = 0. then 0. else delta /. tol in
         { c_system = system; c_load = load; c_metric = name; c_old; c_new; c_ratio })
       metrics)

let results =
  List.concat_map
    (fun system -> List.map (fun load -> (system, load, replicate_points system load)) loads)
    systems

let comparisons =
  List.concat_map (fun (system, load, points) -> compare_point system load points) results

let print_table () =
  Printf.printf "### ZygOS seed-replicated equivalence (R = %d, %d requests, 99%% CIs)\n\n"
    replicates requests;
  print_endline "| system | load | metric | old mean (sd) | new mean (sd) | \\|Δ\\|/tolerance |";
  print_endline "|---|---|---|---|---|---|";
  List.iter
    (fun c ->
      let om, os = c.c_old and nm, ns = c.c_new in
      Printf.printf "| %s | %g | %s | %.6g (%.3g) | %.6g (%.3g) | %.3f%s |\n"
        (Run.system_name c.c_system) c.c_load c.c_metric om os nm ns c.c_ratio
        (if c.c_ratio <= 1. then "" else " FAIL"))
    comparisons;
  print_newline ()

let test_point system load () =
  List.iter
    (fun c ->
      if c.c_system = system && Float.equal c.c_load load && not (c.c_ratio <= 1.) then
        Alcotest.failf "%s load %g %s: old %g (sd %g), new %g (sd %g), |delta|/tol %.3f"
          (Run.system_name system) load c.c_metric (fst c.c_old) (snd c.c_old) (fst c.c_new)
          (snd c.c_new) c.c_ratio)
    comparisons;
  let _, _, points = List.find (fun (s, l, _) -> s = system && Float.equal l load) results in
  List.iteri
    (fun r (p : Run.point) ->
      let ctx what = Printf.sprintf "replicate %d %s" r what in
      Alcotest.(check int) (ctx "wc_violations") 0 (int_of_float (counter p "wc_violations"));
      Alcotest.(check int) (ctx "order_violations") 0 p.Run.order_violations)
    points

let () =
  print_table ();
  Alcotest.run "equivalence"
    (List.map
       (fun system ->
         ( Run.system_name system,
           List.map
             (fun load ->
               Alcotest.test_case (Printf.sprintf "load %g" load) `Quick
                 (test_point system load))
             loads ))
       systems)
