(* Domain-parallel sweep runner with deterministic per-point seeds.

   A sweep point is a key (a stable human-readable path like
   "fig6/exp/10/zygos/0.80") plus a closure from a derived seed to the
   point's result. The derived seed is a pure function of (master seed,
   key) — SplitMix64 finalizer over an FNV-1a hash of the key, re-mixed
   with the master seed — so it does not depend on the enumeration
   order, the worker count, or which worker runs the point. Results
   come back in enumeration order; rendering happens after the join, in
   the calling domain. Together these make parallel output
   byte-identical to the sequential run. *)

type 'a point = { key : string; run : seed:int -> 'a }

let point ~key run = { key; run }

let fnv1a64 s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

let point_seed ~seed ~key =
  let golden_gamma = 0x9E3779B97F4A7C15L in
  let z =
    Engine.Rng.mix64 (Int64.add (fnv1a64 key) (Int64.mul (Int64.of_int seed) golden_gamma))
  in
  (* Positive int so the seed survives printf/reparse round trips. *)
  Int64.to_int (Int64.shift_right_logical (Engine.Rng.mix64 z) 1)

let run ?(jobs = 1) ~seed points =
  let tasks =
    Array.of_list
      (List.map
         (fun p ->
           let derived = point_seed ~seed ~key:p.key in
           fun () -> p.run ~seed:derived)
         points)
  in
  Array.to_list (Runtime.Pool.run ~workers:jobs ~tasks)
