(* SplitMix64 over a one-element Int64 bigarray. The state used to be a
   [mutable int64] record field, but every write to a boxed-int64 field
   allocates a fresh box, and the mix arithmetic crossing function
   boundaries boxed each intermediate — 8 minor words per draw on paths
   (arrival gaps, service samples, steal-victim shuffles) that run for
   every simulated request. Bigarray storage is flat, and keeping the
   whole mix chain inside each draw function lets the compiler keep the
   intermediates in registers: an [int] draw now allocates nothing and a
   [float] draw only its boxed result. The draw values are bit-identical
   to the record version's. *)

type t = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_int64 state =
  let s : t = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 1 in
  Bigarray.Array1.unsafe_set s 0 state;
  s

let create ~seed = of_int64 (Int64.of_int seed)

let copy (t : t) = of_int64 (Bigarray.Array1.unsafe_get t 0)

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next_int64 (t : t) =
  let s = Int64.add (Bigarray.Array1.unsafe_get t 0) golden_gamma in
  Bigarray.Array1.unsafe_set t 0 s;
  mix64 s

let split (t : t) =
  let seed = next_int64 t in
  (* Re-mix so that split streams do not share the master's gamma phase. *)
  of_int64 (mix64 seed)

(* The draw bodies below repeat the advance+mix chain instead of calling
   {!next_int64}: a call returning [int64] boxes its result, an inline
   chain stays unboxed end to end. *)

let[@zygos.hot] float (t : t) =
  let s = Int64.add (Bigarray.Array1.unsafe_get t 0) golden_gamma in
  Bigarray.Array1.unsafe_set t 0 s;
  let z = Int64.(mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  let z = Int64.(logxor z (shift_right_logical z 31)) in
  (* 53 high-quality bits -> [0, 1). *)
  let bits = Int64.shift_right_logical z 11 in
  Int64.to_float bits *. 0x1p-53

(* [float] stored flat in [buf.(i)]: same chain and bits, but a float
   stored into a float array is not boxed, a returned one is. *)
let[@zygos.hot] float_into (t : t) (buf : float array) i =
  let s = Int64.add (Bigarray.Array1.unsafe_get t 0) golden_gamma in
  Bigarray.Array1.unsafe_set t 0 s;
  let z = Int64.(mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  let z = Int64.(logxor z (shift_right_logical z 31)) in
  buf.(i) <- Int64.to_float (Int64.shift_right_logical z 11) *. 0x1p-53

let float_range (t : t) lo hi =
  assert (lo <= hi);
  lo +. (float t *. (hi -. lo))

let[@zygos.hot] int (t : t) bound =
  assert (bound > 0);
  let s = Int64.add (Bigarray.Array1.unsafe_get t 0) golden_gamma in
  Bigarray.Array1.unsafe_set t 0 s;
  let z = Int64.(mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  let z = Int64.(logxor z (shift_right_logical z 31)) in
  (* Modulo bias is negligible for bounds << 2^62 (all our uses). *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical z 1) (Int64.of_int bound))

let int_range (t : t) lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let[@zygos.hot] bernoulli (t : t) p = float t < p

(* Fisher–Yates over an [int array], with the [int] draw chain inlined:
   each step computes exactly [int t (i + 1)]. Steal-victim shuffles
   (length cores - 1, 15 on the 16-core configuration every figure runs)
   are drawn whenever an idle core's steal attempt or IPI scan needs a
   victim order. Monomorphic on purpose: on an ['a
   array] every read pays the float-array tag check and every write a
   [caml_modify] barrier, and a draw through {!int} is a call; here the
   loop is plain loads, stores and register arithmetic. *)
let[@zygos.hot] shuffle_in_place (t : t) (a : int array) =
  for i = Array.length a - 1 downto 1 do
    let s = Int64.add (Bigarray.Array1.unsafe_get t 0) golden_gamma in
    Bigarray.Array1.unsafe_set t 0 s;
    let z = Int64.(mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    let z = Int64.(logxor z (shift_right_logical z 31)) in
    let j = Int64.to_int (Int64.rem (Int64.shift_right_logical z 1) (Int64.of_int (i + 1))) in
    let tmp = Array.unsafe_get a i in
    Array.unsafe_set a i (Array.unsafe_get a j);
    Array.unsafe_set a j tmp
  done
