(* zygos: run the paper's figure/table generators, optionally in
   parallel on a domain pool, or one experiment point.

   Examples:
     dune exec zygos -- fig6 -j 4
     dune exec zygos -- fig8 ablate-batch
     dune exec zygos -- all --scale 0.05 -j 2
     dune exec zygos -- point --system zygos --dist exp --mean 10 --load 0.8
     dune exec zygos -- point --system ix --dist bimodal1 --mean 25 --sweep 0.2,0.5,0.8
     dune exec zygos -- point --system M/G/n/FCFS --dist exp --mean 10 --slo 100

   Figure output goes to stdout and is byte-identical for every -j value
   (per-point seeds derive from stable point keys, and rendering happens
   after the pool joins, in enumeration order). Run metadata and
   per-target times go to stderr so stdout can be diffed across -j
   values.
   A bad option or value prints a reason and exits 2; -h prints the
   usage and exits 0. *)

let usage () =
  Printf.printf
    "usage: zygos [TARGET...] [-j N] [--scale S]\n\
     \  TARGET   one of: %s (default: all)\n\
     \  -j N     run sweep points on N domains (default 1)\n\
     \  --scale S  request-budget multiplier (default 1.0)\n\
     usage: zygos point [--system S] [--dist D] [--mean US]\n\
     \         [--load L | --sweep L1,L2,... | --slo US] [--cores N] [--conns N]\n\
     \         [--requests N] [--seed N] [--packets N] [--skew FRAC:LOAD]\n\
     \  one point; defaults zygos, exp, 10us, load 0.7, 16 cores, 2752 conns,\n\
     \  30000 requests, seed 42, 1 packet. --slo finds the max load whose p99\n\
     \  meets US. S as the figures print it: linux-partitioned linux-floating\n\
     \  ix ix-bB zygos zygos-noint zygos-rr preempt-qQ preempt-qQ-consolidated\n\
     \  ix-rebalanced M/G/n/FCFS nxM/G/1/FCFS. D: fixed exp bimodal1 bimodal2.\n\
     \  --skew sends LOAD of the traffic to the first FRAC of connections.\n"
    (String.concat " " (List.map fst Experiments.Figures.all_targets));
  exit 0

(* ---- zygos point: one experiment point ---- *)

let make_dist name mean =
  match name with
  | "fixed" -> Engine.Dist.deterministic mean
  | "exp" -> Engine.Dist.exponential mean
  | "bimodal1" -> Engine.Dist.bimodal1 ~mean
  | "bimodal2" -> Engine.Dist.bimodal2 ~mean
  | s -> invalid_arg (Printf.sprintf "unknown distribution %S" s)

let print_point (p : Experiments.Run.point) =
  Printf.printf
    "load=%.3f offered=%.3f MRPS tput=%.3f MRPS mean=%.1fus p50=%.1fus p99=%.1fus p999=%.1fus \
     completed=%d order_violations=%d\n"
    p.load p.offered_rate p.throughput p.mean p.p50 p.p99 p.p999 p.completed p.order_violations;
  List.iter (fun (k, v) -> Printf.printf "  %s = %g\n" k v) p.info

(* Every flag takes the next token as its value, so [--load -0.3]
   reaches the library's range check. A malformed value and a library
   [Invalid_argument] both end the same way: a message and exit 2. *)
let point args =
  let module Run = Experiments.Run in
  let system = ref Run.Zygos and dist = ref "exp" and mean = ref 10. and load = ref 0.7 in
  let sweep = ref None and slo = ref None and cores = ref 16 and conns = ref 2752 in
  let requests = ref 30_000 and seed = ref 42 and packets = ref 1 in
  let selection = ref Net.Loadgen.Uniform in
  let parse_with conv what flag v =
    match conv v with
    | Some x -> x
    | None -> invalid_arg (Printf.sprintf "%s expects %s, got %S" flag what v)
  in
  let float_ = parse_with float_of_string_opt "a number" in
  let int_ = parse_with int_of_string_opt "an integer" in
  let rec parse = function
    | [] -> ()
    | ("-h" | "--help") :: _ -> usage ()
    | [ flag ] -> invalid_arg (Printf.sprintf "%s expects a value" flag)
    | flag :: v :: rest ->
        (match flag with
        | "--system" -> system := parse_with Run.system_of_name "a system (see --help)" flag v
        | "--dist" -> dist := v
        | "--mean" -> mean := float_ flag v
        | "--load" -> load := float_ flag v
        | "--sweep" -> sweep := Some (List.map (float_ flag) (String.split_on_char ',' v))
        | "--slo" -> slo := Some (float_ flag v)
        | "--cores" -> cores := int_ flag v
        | "--conns" -> conns := int_ flag v
        | "--requests" -> requests := int_ flag v
        | "--seed" -> seed := int_ flag v
        | "--packets" -> packets := int_ flag v
        | "--skew" ->
            let hot_fraction, hot_load =
              match String.split_on_char ':' v with
              | [ f; l ] -> (float_ flag f, float_ flag l)
              | _ -> invalid_arg (Printf.sprintf "--skew expects FRAC:LOAD, got %S" v)
            in
            selection := Net.Loadgen.Hot_cold { hot_fraction; hot_load }
        | _ -> invalid_arg (Printf.sprintf "unknown option %S" flag));
        parse rest
  in
  try
    parse args;
    let service = make_dist !dist !mean in
    let cfg =
      Run.config ~system:!system ~service ~cores:!cores ~conns:!conns ~requests:!requests
        ~seed:!seed ~rpc_packets:!packets ~selection:!selection ()
    in
    Printf.printf "system=%s dist=%s mean=%gus cores=%d conns=%d requests=%d\n"
      (Run.system_name !system) !dist !mean !cores !conns !requests;
    match (!slo, !sweep) with
    | Some slo_us, _ ->
        let max_load, point = Run.max_load_at_slo cfg ~slo_p99:slo_us () in
        Printf.printf "max load @ p99<=%.0fus: %.2f (%.3f MRPS)\n" slo_us max_load
          point.Run.throughput;
        print_point point
    | None, Some loads -> List.iter (fun l -> print_point (Run.run_point cfg ~load:l)) loads
    | None, None -> print_point (Run.run_point cfg ~load:!load)
  with Invalid_argument msg ->
    flush stdout;
    Printf.eprintf "zygos point: %s\n" msg;
    exit 2

(* ---- figure and table targets ---- *)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "zygos: %s\n" msg;
      exit 2)
    fmt

let positive_int flag v =
  match int_of_string_opt v with
  | Some j when j >= 1 -> j
  | _ -> fail "%s expects a positive integer, got %S" flag v

let rec parse_targets ~jobs ~scale names = function
  | [] -> (jobs, scale, List.rev names)
  | ("-h" | "--help") :: _ -> usage ()
  | (("-j" | "--jobs") as flag) :: v :: rest ->
      parse_targets ~jobs:(positive_int flag v) ~scale names rest
  | "--scale" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0. -> parse_targets ~jobs ~scale:s names rest
      | _ -> fail "--scale expects a positive number, got %S" v)
  | [ (("-j" | "--jobs" | "--scale") as flag) ] -> fail "%s expects a value" flag
  | a :: rest when String.length a > 2 && String.sub a 0 2 = "-j" ->
      parse_targets ~jobs:(positive_int "-j" (String.sub a 2 (String.length a - 2))) ~scale
        names rest
  | a :: _ when String.length a > 0 && a.[0] = '-' -> fail "unknown option %S" a
  | a :: rest -> parse_targets ~jobs ~scale (a :: names) rest

let run_targets args =
  let jobs, scale, names = parse_targets ~jobs:1 ~scale:1.0 [] args in
  let selected =
    match names with
    | [] | [ "all" ] -> List.map fst Experiments.Figures.all_targets
    | names ->
        List.iter
          (fun n ->
            let known (name, _) = String.equal name n in
            if not (List.exists known Experiments.Figures.all_targets) then
              fail "unknown target %S\nvalid targets: %s all" n
                (String.concat " " (List.map fst Experiments.Figures.all_targets)))
          names;
        names
  in
  Printf.eprintf "zygos: targets [%s], scale=%g, jobs=%d\n%!"
    (String.concat " " selected) scale jobs;
  List.iter
    (fun name ->
      (* Progress reporting on stderr: wall-clock never reaches the
         figures themselves, which are seeded-simulation outputs. *)
      let t0 = (Unix.gettimeofday () [@zygos.allow "determinism"]) in
      let _, target =
        List.find (fun (n, _) -> String.equal n name) Experiments.Figures.all_targets
      in
      print_string (Experiments.Output.render (target ~jobs ~scale));
      flush stdout;
      Printf.eprintf "[%s done in %.1fs]\n%!" name
        ((Unix.gettimeofday () [@zygos.allow "determinism"]) -. t0))
    selected

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "point" :: args -> point args
  | args -> run_targets args
