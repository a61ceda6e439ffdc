module Rng = Engine.Rng

type kind = Etc | Usr

let name = function Etc -> "ETC" | Usr -> "USR"

let get_fraction = function Etc -> 0.967 | Usr -> 0.998

type command = Get of string | Set of { key : string; data : string }

type t = {
  workload : kind;
  n_records : int;
  zipf_cdf : float array;  (* cumulative probabilities over record ranks *)
  seed : int;  (* seed of [service_dist]'s stream *)
}

(* Zipf(0.99) over the key space, the usual key-popularity skew for these
   traces. The CDF is precomputed for O(log n) sampling. *)
let make_zipf_cdf n =
  let theta = 0.99 in
  let weights = Array.init n (fun i -> 1. /. Float.pow (float_of_int (i + 1)) theta) in
  let total = Array.fold_left ( +. ) 0. weights in
  let acc = ref 0. in
  Array.map
    (fun w ->
      acc := !acc +. (w /. total);
      !acc)
    weights

let create ?(records = 100_000) ?(seed = 11) workload =
  if records < 1 then invalid_arg "Workload.create: records < 1";
  { workload; n_records = records; zipf_cdf = make_zipf_cdf records; seed }

let sample_rank t rng =
  let u = Rng.float rng in
  (* First index with cdf >= u. *)
  let lo = ref 0 and hi = ref (t.n_records - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.zipf_cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let key_of_rank t rank =
  match t.workload with
  | Usr -> Printf.sprintf "usr:%016d" rank  (* 20 B, within the 16–21 B band *)
  | Etc -> Printf.sprintf "etc:%024d:%08d" rank (rank mod 97)  (* 38 B *)

(* Value sizes. USR: 2 bytes. ETC: a discretized generalized-Pareto-like
   mix — mostly tens-to-hundreds of bytes, occasionally KBs. *)
let value_size t rng =
  match t.workload with
  | Usr -> 2
  | Etc ->
      let u = Rng.float rng in
      if u < 0.40 then Rng.int_range rng 11 50
      else if u < 0.75 then Rng.int_range rng 51 300
      else if u < 0.95 then Rng.int_range rng 301 1024
      else Rng.int_range rng 1025 4096

let next_command t rng =
  let rank = sample_rank t rng in
  let key = key_of_rank t rank in
  if Rng.bernoulli rng (get_fraction t.workload) then Get key
  else Set { key; data = String.make (value_size t rng) 'v' }

(* Service-cost model: hash lookup + protocol handling ~0.7µs; SETs pay an
   allocation surcharge; value bytes move at ~10 GB/s (0.0001 µs/B). This
   lands the ETC/USR mean below 2µs, as §6.2 states. *)
let service_time_us = function
  | Get key -> 0.7 +. (0.0001 *. float_of_int (String.length key + 64))
  | Set { key; data } -> 1.0 +. (0.0002 *. float_of_int (String.length key + String.length data))

let service_dist t ~samples =
  if samples < 1 then invalid_arg "Workload.service_dist: samples < 1";
  let rng = Rng.create ~seed:t.seed in
  let a = Array.init samples (fun _ -> service_time_us (next_command t rng)) in
  Engine.Dist.empirical a
