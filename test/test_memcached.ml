(* Tests for Figure 9's memcached workloads: the service-time
   distribution [Figures.memcached_service] draws for ETC and USR. *)

module Figures = Experiments.Figures

let name = function Figures.Etc -> "ETC" | Figures.Usr -> "USR"

let key_bytes = function Figures.Etc -> 37 | Figures.Usr -> 20

(* A GET sample is exactly the lookup price; every other sample is a
   SET. *)
let get_price kind = 0.7 +. (0.0001 *. float_of_int (key_bytes kind + 64))

let samples kind n =
  match Figures.memcached_service kind ~samples:n with
  | Engine.Dist.Empirical a -> a
  | _ -> Alcotest.fail "not an empirical distribution"

let test_workload_get_fractions () =
  List.iter
    (fun (kind, fraction) ->
      let a = samples kind 20_000 in
      let gets = Array.fold_left (fun n x -> if x = get_price kind then n + 1 else n) 0 a in
      let frac = float_of_int gets /. float_of_int (Array.length a) in
      if abs_float (frac -. fraction) > 0.01 then
        Alcotest.failf "%s GET fraction %.3f" (name kind) frac)
    [ (Figures.Etc, 0.967); (Figures.Usr, 0.998) ]

(* A USR SET moves its 20 B key and a 2 B value. *)
let test_workload_usr_value_sizes () =
  let set = 1.0 +. (0.0002 *. float_of_int (20 + 2)) in
  let a = samples Figures.Usr 2_000 in
  Array.iter
    (fun x ->
      if x <> get_price Figures.Usr then
        Alcotest.(check (float 0.)) "USR values are 2 bytes" set x)
    a;
  Alcotest.(check bool) "some SETs drawn" true (Array.exists (fun x -> x = set) a)

let test_workload_service_dist () =
  List.iter
    (fun kind ->
      let mean = Engine.Dist.mean (Figures.memcached_service kind ~samples:5_000) in
      Alcotest.(check bool)
        (Printf.sprintf "%s mean %.2fus < 2us (paper: memcached < 2us tasks)" (name kind) mean)
        true (mean < 2.))
    [ Figures.Etc; Figures.Usr ];
  Alcotest.check_raises "samples < 1"
    (Invalid_argument "Figures.memcached_service: samples < 1") (fun () ->
      ignore (Figures.memcached_service Figures.Usr ~samples:0 : Engine.Dist.t))

let () =
  Alcotest.run "memcached"
    [
      ( "workload",
        [
          Alcotest.test_case "get fractions" `Quick test_workload_get_fractions;
          Alcotest.test_case "usr value sizes" `Quick test_workload_usr_value_sizes;
          Alcotest.test_case "service dist" `Quick test_workload_service_dist;
        ] );
    ]
