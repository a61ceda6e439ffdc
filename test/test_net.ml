(* Tests for lib/net: Toeplitz RSS, rings, requests, load generator. *)

module Rss = Net.Rss
module Ring = Net.Ring
module Request = Net.Request
module Loadgen = Net.Loadgen
module Sim = Engine.Sim
module Rng = Engine.Rng

(* ---- RSS / Toeplitz ---- *)

(* Published verification vectors for the Microsoft RSS default key
   (IPv4 with ports): input bytes are src_ip | dst_ip | src_port |
   dst_port. *)
let test_toeplitz_vectors () =
  let cases =
    [
      (* src 66.9.149.187:2794 -> dst 161.142.100.80:1766, hash 0x51ccc178 *)
      ((66, 9, 149, 187), 2794, (161, 142, 100, 80), 1766, 0x51ccc178l);
      (* src 199.92.111.2:14230 -> dst 65.69.140.83:4739, hash 0xc626b0ea *)
      ((199, 92, 111, 2), 14230, (65, 69, 140, 83), 4739, 0xc626b0eal);
    ]
  in
  let ip (a, b, c, d) = Int32.of_int ((a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d) in
  let key =
    "\x6d\x5a\x56\xda\x25\x5b\x0e\xc2\x41\x67\x25\x3d\x43\xa3\x8f\xb0\xd0\xca\x2b\xcb\xae\x7b\x30\xb4\x77\xcb\x2d\xa3\x80\x30\xf2\x0c\x6a\x42\xb7\x3b\xbe\xac\x01\xfa"
  in
  Alcotest.(check string) "default key is the published one" key Rss.default_key;
  List.iter
    (fun (src, sport, dst, dport, expected) ->
      let b = Bytes.create 12 in
      let put32 off v =
        for i = 0 to 3 do
          Bytes.set b (off + i)
            (Char.chr (Int32.to_int (Int32.shift_right_logical v (8 * (3 - i))) land 0xff))
        done
      in
      put32 0 (ip src);
      put32 4 (ip dst);
      Bytes.set b 8 (Char.chr (sport lsr 8));
      Bytes.set b 9 (Char.chr (sport land 0xff));
      Bytes.set b 10 (Char.chr (dport lsr 8));
      Bytes.set b 11 (Char.chr (dport land 0xff));
      Alcotest.(check int32) "toeplitz vector" expected (Rss.toeplitz ~key b))
    cases

let test_rss_range_and_determinism () =
  let rss = Rss.create ~queues:16 () in
  for c = 0 to 999 do
    let q = Rss.queue_of_conn rss c in
    if q < 0 || q >= 16 then Alcotest.failf "queue out of range: %d" q;
    Alcotest.(check int) "deterministic" q (Rss.queue_of_conn rss c)
  done

(* Per-queue connection counts for connections [0, n): the (im)balance
   the paper's §2.3 "persistent imbalance" discussion is about. *)
let histogram rss ~queues n =
  let hist = Array.make queues 0 in
  for c = 0 to n - 1 do
    let q = Rss.queue_of_conn rss c in
    hist.(q) <- hist.(q) + 1
  done;
  hist

let test_rss_histogram () =
  let rss = Rss.create ~queues:16 () in
  let hist = histogram rss ~queues:16 2752 in
  Alcotest.(check int) "sums to conns" 2752 (Array.fold_left ( + ) 0 hist);
  (* Flow-consistent hashing spreads connections over every queue, if not
     perfectly evenly. *)
  Array.iteri (fun q n -> if n = 0 then Alcotest.failf "queue %d got no connections" q) hist

let test_rss_bad_args () =
  Alcotest.check_raises "queues < 1" (Invalid_argument "Rss.create: queues < 1") (fun () ->
      ignore (Rss.create ~queues:0 () : Rss.t))

(* The precomputed 12x256 lookup table must be bitwise-equal to the
   bit-serial reference over the default key and random 4-tuples. *)
let prop_rss_lut_matches_reference =
  let gen_case = QCheck.Gen.(quad ui64 ui64 (int_bound 0xffff) (int_bound 0xffff)) in
  let arb =
    QCheck.make gen_case ~print:(fun (si, di, sp, dp) ->
        Printf.sprintf "si=%Ld di=%Ld sp=%d dp=%d" si di sp dp)
  in
  QCheck.Test.make ~name:"rss lut hash = bit-serial toeplitz" ~count:500 arb
    (fun (si64, di64, src_port, dst_port) ->
      let src_ip = Int64.to_int32 si64 and dst_ip = Int64.to_int32 di64 in
      let fast = Rss.hash_of_tuple ~src_ip ~dst_ip ~src_port ~dst_port in
      let b = Bytes.create 12 in
      Bytes.set_int32_be b 0 src_ip;
      Bytes.set_int32_be b 4 dst_ip;
      Bytes.set_uint16_be b 8 src_port;
      Bytes.set_uint16_be b 10 dst_port;
      let slow = Int32.to_int (Rss.toeplitz ~key:Rss.default_key b) land 0xffffffff in
      fast = slow)

let test_rss_set_slot_bounds () =
  let rss = Rss.create ~queues:4 () in
  Alcotest.check_raises "slot out of range"
    (Invalid_argument "Rss.set_slot: slot out of range") (fun () ->
      Rss.set_slot rss ~slot:Rss.slots ~queue:0);
  Alcotest.check_raises "negative slot"
    (Invalid_argument "Rss.set_slot: slot out of range") (fun () ->
      Rss.set_slot rss ~slot:(-1) ~queue:0);
  Alcotest.check_raises "queue out of range"
    (Invalid_argument "Rss.set_slot: queue out of range") (fun () ->
      Rss.set_slot rss ~slot:0 ~queue:4)

let test_rss_remap_mass_conservation () =
  (* Reprogramming the indirection table moves connections between queues
     but never loses one: the histogram mass is conserved, the remapped
     slot's connections all follow it, and the per-connection slot memo
     stays valid (slot_of_conn is remap-stable by contract). *)
  let conns = 2752 in
  let rss = Rss.create ~queues:16 () in
  let slots_before = Array.init conns Rss.slot_of_conn in
  let hist = histogram rss ~queues:16 conns in
  Alcotest.(check int) "mass before" conns (Array.fold_left ( + ) 0 hist);
  for s = 0 to Rss.slots - 1 do
    if s mod 3 = 0 then Rss.set_slot rss ~slot:s ~queue:(s mod 16)
  done;
  let hist' = histogram rss ~queues:16 conns in
  Alcotest.(check int) "mass after remap" conns (Array.fold_left ( + ) 0 hist');
  for c = 0 to conns - 1 do
    let s = Rss.slot_of_conn c in
    if s <> slots_before.(c) then Alcotest.failf "conn %d changed slot under remap" c;
    Alcotest.(check int) "queue follows table" (Rss.queue_of_slot rss s)
      (Rss.queue_of_conn rss c)
  done

(* ---- Ring ---- *)

let test_ring_fifo () =
  let r = Ring.create ~capacity:4 in
  List.iter (fun i -> Alcotest.(check bool) "push ok" true (Ring.push r i)) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Ring.length r);
  Alcotest.(check int) "pop 1" 1 (Ring.pop_or r ~default:(-1));
  Alcotest.(check int) "pop 2" 2 (Ring.pop_or r ~default:(-1));
  Alcotest.(check int) "pop 3" 3 (Ring.pop_or r ~default:(-1));
  Alcotest.(check bool) "empty" true (Ring.is_empty r);
  Alcotest.(check int) "default when empty" (-1) (Ring.pop_or r ~default:(-1))

let test_ring_overflow_drops () =
  let r = Ring.create ~capacity:2 in
  Alcotest.(check bool) "1 fits" true (Ring.push r 1);
  Alcotest.(check bool) "2 fits" true (Ring.push r 2);
  Alcotest.(check bool) "3 dropped" false (Ring.push r 3);
  Alcotest.(check int) "drop counted" 1 (Ring.drops r);
  Alcotest.(check int) "length" 2 (Ring.length r);
  ignore (Ring.pop_or r ~default:(-1) : int);
  Alcotest.(check bool) "fits again" true (Ring.push r 4)

let prop_ring_model =
  (* Random push/pop sequence vs a plain-queue model with explicit
     capacity filtering. *)
  QCheck.Test.make ~name:"ring behaves like bounded FIFO" ~count:300
    QCheck.(list (option small_int))
    (fun ops ->
      let r = Ring.create ~capacity:8 in
      let model = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | Some x ->
              let accepted = Ring.push r x in
              let model_accepts = Queue.length model < 8 in
              if model_accepts then Queue.add x model;
              accepted = model_accepts
          | None ->
              Ring.pop_or r ~default:(-1) = Option.value (Queue.take_opt model) ~default:(-1)
              && Ring.length r = Queue.length model)
        ops)

(* ---- Request ---- *)

(* Client-side latency, read by slot from the pool's time columns. *)
let latency p r =
  let s = Request.slot p r in
  (Request.completions p).(s) -. (Request.arrivals p).(s)

let test_request_lifecycle () =
  let p = Request.create_pool () in
  let r = Request.alloc p ~id:1 ~conn:2 ~measured:true [| 10.; 5. |] in
  let s = Request.slot p r in
  Alcotest.(check int) "id" 1 (Request.id p r);
  Alcotest.(check int) "conn" 2 (Request.conn p r);
  Alcotest.(check (float 0.)) "arrival" 10. (Request.arrivals p).(s);
  Alcotest.(check (float 0.)) "service" 5. (Request.services p).(s);
  Alcotest.(check (float 1e-9)) "not started" (-1.) (Request.starteds p).(s);
  Alcotest.(check (float 1e-9)) "not completed" (-1.) (Request.completions p).(s);
  (Request.completions p).(s) <- 25.;
  Alcotest.(check (float 1e-9)) "latency" 15. (latency p r)

let test_request_pool_recycling () =
  let p = Request.create_pool ~recycle:true () in
  let r1 = Request.alloc p ~id:1 ~conn:0 ~measured:false [| 0.; 1. |] in
  let r2 = Request.alloc p ~id:2 ~conn:1 ~measured:false [| 0.; 1. |] in
  Alcotest.(check int) "live" 2 (Request.live p);
  Request.release_at p (Request.slot p r1);
  Alcotest.(check int) "live after release" 1 (Request.live p);
  (* The slot recycles under a fresh generation: the new handle works, the
     stale one is detected. *)
  let r3 = Request.alloc p ~id:3 ~conn:2 ~measured:true [| 5.; 1. |] in
  Alcotest.(check int) "slot reused" 2 (Request.hwm p);
  Alcotest.(check int) "fresh handle reads fresh fields" 3 (Request.id p r3);
  Alcotest.check_raises "stale handle caught"
    (Invalid_argument "Request: stale or invalid handle") (fun () ->
      ignore (Request.id p r1 : int));
  Alcotest.check_raises "stale slot caught"
    (Invalid_argument "Request: stale or invalid handle") (fun () ->
      ignore (Request.slot p r1 : int));
  Alcotest.(check int) "live handle unaffected" 2 (Request.id p r2);
  (* Growth past the initial 256 slots preserves everything. *)
  let more =
    List.init 300 (fun i ->
        Request.alloc p ~id:(100 + i) ~conn:i ~measured:false [| 1.; 1. |])
  in
  List.iteri
    (fun i r -> Alcotest.(check int) "grown pool intact" (100 + i) (Request.id p r))
    more;
  Alcotest.(check int) "allocated counts all" 303 (Request.allocated p)

let test_request_no_recycle_keeps_handles () =
  (* recycle:false pools (faults/retry/cluster paths) must keep released
     handles readable: duplicate responses arrive after first completion. *)
  let p = Request.create_pool ~recycle:false () in
  let r = Request.alloc p ~id:7 ~conn:3 ~measured:true [| 2.; 1. |] in
  (Request.completions p).(Request.slot p r) <- 9.;
  Request.release_at p (Request.slot p r);
  Alcotest.(check (float 1e-9)) "still readable after release" 7. (latency p r);
  let r' = Request.alloc p ~id:8 ~conn:3 ~measured:true [| 3.; 1. |] in
  Alcotest.(check bool) "no slot reuse" true (r' <> r)

(* ---- Loadgen ---- *)

let run_loadgen ~rate ~conns ~echo_delay =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:9 in
  let pool = Request.create_pool ~recycle:true () in
  let gen =
    Loadgen.create sim ~rng ~pool ~conns ~rate ~service:(Engine.Dist.deterministic 1.) ()
  in
  Loadgen.set_target gen (fun req ->
      ignore
        (Later.after sim ~delay:echo_delay (fun () -> Loadgen.complete gen req)
          : Sim.handle));
  Loadgen.start gen ~warmup:100. ~measure:1000.;
  Sim.run sim;
  gen

let test_loadgen_rate_and_measurement () =
  let gen = run_loadgen ~rate:1.0 ~conns:64 ~echo_delay:2. in
  let n = Loadgen.measured_generated gen in
  (* ~1000 arrivals expected in the 1000µs window. *)
  if n < 850 || n > 1150 then Alcotest.failf "measured arrivals unexpected: %d" n;
  (* A request arriving just before the window closes completes after it
     and is excluded from the in-window throughput count. *)
  let completed = Loadgen.measured_completed gen in
  if completed > n || completed < n - 5 then
    Alcotest.failf "in-window completions %d vs %d arrivals" completed n;
  Alcotest.(check int) "no order violations" 0 (Loadgen.order_violations gen);
  let tally = Loadgen.tally gen in
  Alcotest.(check int) "every measured latency recorded" n (Stats.Tally.count tally);
  Alcotest.(check (float 1e-6)) "latency = echo delay" 2. (Stats.Tally.p99 tally);
  Alcotest.(check (float 0.15)) "throughput ~= rate" 1.0 (Loadgen.throughput gen)

let test_loadgen_order_violation_detected () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:10 in
  let pool = Request.create_pool ~recycle:true () in
  let gen =
    Loadgen.create sim ~rng ~pool ~conns:1 ~rate:1.0 ~service:(Engine.Dist.deterministic 1.)
      ()
  in
  let pending = ref [] in
  Loadgen.set_target gen (fun req -> pending := req :: !pending);
  Loadgen.start gen ~warmup:0. ~measure:5.;
  Sim.run sim;
  (* Complete in LIFO order: completions on a single connection then come
     back out of order. *)
  let n = List.length !pending in
  if n < 2 then Alcotest.fail "need at least 2 requests for this test";
  List.iter (fun req -> Loadgen.complete gen req) !pending;
  Alcotest.(check bool) "violations detected" true (Loadgen.order_violations gen > 0)

let test_loadgen_double_complete_counted () =
  (* A lossy network can deliver the same response twice; the second
     completion must be counted, not crash the client. *)
  let sim = Sim.create () in
  let rng = Rng.create ~seed:11 in
  (* recycle:false — duplicate deliveries must stay detectable after the
     first completion, exactly the situation that forbids slot reuse. *)
  let pool = Request.create_pool ~recycle:false () in
  let gen =
    Loadgen.create sim ~rng ~pool ~conns:1 ~rate:1.0 ~service:(Engine.Dist.deterministic 1.)
      ()
  in
  let seen = ref None in
  Loadgen.set_target gen (fun req -> if !seen = None then seen := Some req);
  Loadgen.start gen ~warmup:0. ~measure:3.;
  Sim.run sim;
  match !seen with
  | None -> Alcotest.fail "no request generated"
  | Some req ->
      Loadgen.complete gen req;
      let count = Stats.Tally.count (Loadgen.tally gen) in
      Loadgen.complete gen req;
      Loadgen.complete gen req;
      Alcotest.(check int) "duplicates counted" 2 (Loadgen.duplicate_completions gen);
      Alcotest.(check int) "tally unchanged" count (Stats.Tally.count (Loadgen.tally gen))

let test_loadgen_requires_target () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:12 in
  let pool = Request.create_pool ~recycle:true () in
  let gen =
    Loadgen.create sim ~rng ~pool ~conns:1 ~rate:1.0 ~service:(Engine.Dist.deterministic 1.)
      ()
  in
  Alcotest.check_raises "no target" (Invalid_argument "Loadgen.start: no target set") (fun () ->
      Loadgen.start gen ~warmup:0. ~measure:1.)

(* NaN fails every comparison, so the rate check must name it: a NaN
   rate (from a NaN load or service mean) is rejected like a zero one. *)
let test_loadgen_rejects_nan_rate () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:12 in
  let pool = Request.create_pool ~recycle:true () in
  Alcotest.check_raises "NaN rate" (Invalid_argument "Loadgen.create: rate <= 0") (fun () ->
      ignore
        (Loadgen.create sim ~rng ~pool ~conns:1 ~rate:nan
           ~service:(Engine.Dist.deterministic 1.) ()
          : Loadgen.t))

let () =
  Alcotest.run "net"
    [
      ( "rss",
        [
          Alcotest.test_case "toeplitz vectors" `Quick test_toeplitz_vectors;
          Alcotest.test_case "range+determinism" `Quick test_rss_range_and_determinism;
          Alcotest.test_case "histogram" `Quick test_rss_histogram;
          Alcotest.test_case "bad args" `Quick test_rss_bad_args;
          QCheck_alcotest.to_alcotest prop_rss_lut_matches_reference;
          Alcotest.test_case "set_slot bounds" `Quick test_rss_set_slot_bounds;
          Alcotest.test_case "remap mass conservation" `Quick
            test_rss_remap_mass_conservation;
        ] );
      ( "ring",
        [
          Alcotest.test_case "fifo" `Quick test_ring_fifo;
          Alcotest.test_case "overflow drops" `Quick test_ring_overflow_drops;
          QCheck_alcotest.to_alcotest prop_ring_model;
        ] );
      ( "request",
        [
          Alcotest.test_case "lifecycle" `Quick test_request_lifecycle;
          Alcotest.test_case "pool recycling" `Quick test_request_pool_recycling;
          Alcotest.test_case "no-recycle keeps handles" `Quick
            test_request_no_recycle_keeps_handles;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "rate and measurement" `Quick test_loadgen_rate_and_measurement;
          Alcotest.test_case "order violations" `Quick test_loadgen_order_violation_detected;
          Alcotest.test_case "double complete" `Quick test_loadgen_double_complete_counted;
          Alcotest.test_case "requires target" `Quick test_loadgen_requires_target;
          Alcotest.test_case "rejects NaN rate" `Quick test_loadgen_rejects_nan_rate;
        ] );
    ]
