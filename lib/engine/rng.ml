(* SplitMix64 over 8 flat bytes. Draws run for every simulated request
   (arrival gaps, service samples, steal-victim shuffles), so the state
   is neither a [mutable int64] field, every write to which allocates a
   fresh box, nor a custom block with a malloc'd payload and a
   finalizer. A [Bytes.t] read and written through the unboxed
   64-bit primitives is flat, and [next] and [mix64] are inlined into
   every draw, so the intermediates stay in registers: an [int] draw
   allocates nothing and a [float] draw only its boxed result. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_int64 state =
  let s = Bytes.create 8 in
  set64 s 0 state;
  s

let create ~seed = of_int64 (Int64.of_int seed)

let copy = Bytes.copy

let[@zygos.hot] [@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* Advance the state by the gamma and mix it: the one step every draw
   takes. *)
let[@zygos.hot] [@inline] next t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix64 s

let next_int64 t = next t

(* Re-mix so that split streams do not share the master's gamma phase. *)
let split t = of_int64 (mix64 (next t))

(* 53 high-quality bits -> [0, 1). *)
let[@zygos.hot] float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

(* [float] stored flat in [buf.(i)]: same bits, but a float stored into
   a float array is not boxed, a returned one is. *)
let[@zygos.hot] float_into t (buf : float array) i =
  buf.(i) <- Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

(* Modulo bias is negligible for bounds << 2^62 (all our uses). *)
let[@zygos.hot] int t bound =
  assert (bound > 0);
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

let int_range t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let[@zygos.hot] bernoulli t p = float t < p

(* Fisher–Yates over an [int array]: each step draws exactly
   [int t (i + 1)]. Steal-victim shuffles (length cores - 1, 15 on the
   16-core configuration every figure runs) are drawn whenever an idle
   core's steal attempt or IPI scan needs a victim order. Monomorphic
   on purpose: on an ['a array] every read pays the float-array tag
   check and every write a [caml_modify] barrier; here the loop is
   plain loads, stores and register arithmetic. *)
let[@zygos.hot] shuffle_in_place t (a : int array) =
  for i = Array.length a - 1 downto 1 do
    let j =
      Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int (i + 1)))
    in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
