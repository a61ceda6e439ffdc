(* Tests for lib/kvstore: the ETC/USR workload generators and the
   service-time distribution Figure 9 simulates on. *)

module Workload = Kvstore.Workload

(* ---- Workload ---- *)

let test_workload_get_fractions () =
  let rng = Engine.Rng.create ~seed:5 in
  List.iter
    (fun kind ->
      let wl = Workload.create ~records:1_000 kind in
      let n = 20_000 in
      let gets = ref 0 in
      for _ = 1 to n do
        match Workload.next_command wl rng with
        | Workload.Get _ -> incr gets
        | Workload.Set _ -> ()
      done;
      let frac = float_of_int !gets /. float_of_int n in
      if abs_float (frac -. Workload.get_fraction kind) > 0.01 then
        Alcotest.failf "%s GET fraction %.3f" (Workload.name kind) frac)
    [ Workload.Etc; Workload.Usr ]

let test_workload_usr_value_sizes () =
  let rng = Engine.Rng.create ~seed:6 in
  let wl = Workload.create ~records:1_000 Workload.Usr in
  for _ = 1 to 2_000 do
    match Workload.next_command wl rng with
    | Workload.Set { data; _ } ->
        Alcotest.(check int) "USR values are 2 bytes" 2 (String.length data)
    | Workload.Get _ -> ()
  done

let test_workload_zipf_skew () =
  let rng = Engine.Rng.create ~seed:7 in
  let wl = Workload.create ~records:10_000 Workload.Etc in
  let counts = Hashtbl.create 64 in
  for _ = 1 to 50_000 do
    match Workload.next_command wl rng with
    | Workload.Get k | Workload.Set { key = k; _ } ->
        Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  (* Zipf: a handful of keys dominate. *)
  let top = Hashtbl.fold (fun _ n acc -> max n acc) counts 0 in
  Alcotest.(check bool) "popular key dominates" true (top > 50_000 / 100)

let test_workload_service_dist () =
  let wl = Workload.create ~records:500 Workload.Etc in
  let dist = Workload.service_dist wl ~samples:5_000 in
  let mean = Engine.Dist.mean dist in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2fus < 2us (paper: memcached < 2us tasks)" mean)
    true (mean < 2.)

let () =
  Alcotest.run "kvstore"
    [
      ( "workload",
        [
          Alcotest.test_case "get fractions" `Quick test_workload_get_fractions;
          Alcotest.test_case "usr value sizes" `Quick test_workload_usr_value_sizes;
          Alcotest.test_case "zipf skew" `Quick test_workload_zipf_skew;
          Alcotest.test_case "service dist" `Quick test_workload_service_dist;
        ] );
    ]
