type t = {
  mutable data : float array;
  mutable size : int;
  mutable placed : int;
      (* -1, or the index a percentile query's selection left in its
         sorted place: no sample before it is larger, none after it is
         smaller. Recording a sample forgets it. *)
}

let create () = { data = [||]; size = 0; placed = -1 }

(* Slots at or past [size] are never read, so neither the reservation
   nor a growth step fills them: a 100k-sample reservation would
   otherwise write 800 KB of zeros in every point's setup. *)
let reserve t n =
  if n > Array.length t.data then begin
    let bigger = Array.create_float n in
    Array.blit t.data 0 bigger 0 t.size;
    t.data <- bigger
  end

(* Inlined into [record_from], so the sample it stores there is never
   boxed: a float argument to a call that is not inlined always is. *)
let[@zygos.hot] [@inline] record t x =
  if t.size = Array.length t.data then begin
    (* Amortized doubling of the sample reservoir. *)
    let cap = Int.max 256 (2 * Array.length t.data) in
    let bigger = (Array.create_float cap [@zygos.allow "hot-alloc"]) in
    Array.blit t.data 0 bigger 0 t.size;
    t.data <- bigger
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  t.placed <- -1

let[@zygos.hot] record_from t (buf : float array) i = record t buf.(i)

let count t = t.size

let is_empty t = t.size = 0

(* The reductions below are index loops with float accumulators the
   compiler keeps unboxed; a fold through a closure would box them on
   every sample. *)

(* A finite sample's biased binary exponent e, 1 for a subnormal: its
   value is an integer below 2^53 times 2^(e - 1075). *)
let exponent x = Int.max 1 ((Int64.to_int (Int64.bits_of_float x) lsr 52) land 0x7ff)

(* The mean depends only on the multiset of samples, not on the order
   they were recorded in or a selection left them in. The finite
   samples of each exponent are summed exactly as integers, in an int
   pair (carries of 2^53, and a remainder below 2^61 in magnitude); each
   exponent's sum is rounded once, and those are added in ascending
   exponent order. The infinities are summed as floats, which no order
   changes either. A first pass finds the exponent span, so the pairs
   cover only that. *)
let mean t =
  let n = t.size and a = t.data in
  let small = ref infinity and big = ref 0. in
  for i = 0 to n - 1 do
    let x = Float.abs a.(i) in
    if x > 0. && x < !small then small := x;
    if x > !big && x < infinity then big := x
  done;
  let lo = exponent !small in
  let span = if !big > 0. then exponent !big - lo + 1 else 0 in
  let sums = Array.make (2 * span) 0 and infs = ref 0. in
  for i = 0 to n - 1 do
    let b = Int64.bits_of_float a.(i) in
    let bits = Int64.to_int b and sign = Int64.to_int (Int64.shift_right b 63) in
    let e = (bits lsr 52) land 0x7ff and f = bits land ((1 lsl 52) - 1) in
    if e = 0x7ff then infs := !infs +. a.(i)
    else if e > 0 || f > 0 then begin
      let k = 2 * (Int.max 1 e - lo) and m = if e = 0 then f else f + (1 lsl 52) in
      (* [sign] is 0 or -1: [m] or its negation. *)
      let r = sums.(k + 1) + ((m lxor sign) - sign) in
      if r >= 1 lsl 61 || r <= -(1 lsl 61) then begin
        sums.(k) <- sums.(k) + (r asr 53);
        sums.(k + 1) <- r land ((1 lsl 53) - 1)
      end
      else sums.(k + 1) <- r
    end
  done;
  let sum = ref 0. in
  for k = 0 to span - 1 do
    let r = sums.((2 * k) + 1) in
    let c = float_of_int (sums.(2 * k) + (r asr 53)) and r = r land ((1 lsl 53) - 1) in
    sum := !sum +. Float.ldexp ((c *. 0x1p53) +. float_of_int r) (lo + k - 1075)
  done;
  if n = 0 then 0. else (!sum +. !infs) /. float_of_int n

let max_value t =
  let m = ref neg_infinity in
  for i = 0 to t.size - 1 do
    m := Float.max !m t.data.(i)
  done;
  if t.size = 0 then 0. else !m

let[@inline] median3 (x : float) y z =
  if x < y then if y < z then y else if x < z then z else x
  else if x < z then x
  else if y < z then z
  else y

(* Move a.[l, r]'s samples below [x] (with [le], at most [x]) to its
   front and return where they end. Lomuto's step without a branch: the
   compare only advances the boundary, so a pivot near the median costs
   no mispredicted branches. *)
let[@inline] partition (a : float array) l r x le =
  let s = ref l in
  for i = l to r do
    let v = a.(i) in
    a.(i) <- a.(!s);
    a.(!s) <- v;
    s := !s + Bool.to_int (if le then v <= x else v < x)
  done;
  !s

(* Put the [k]-th smallest of a.[l, r] at a.(k), with no larger sample
   before it and no smaller one after it: quickselect, each round
   pivoting on the median of three samples at pseudo-random positions,
   so sorted, reversed or otherwise structured input does not steer the
   pivots. Past 8 times the first range's length in scanned samples the
   rest is sorted, so no input takes quadratic time. *)
let select (a : float array) l r k =
  let l = ref l and r = ref r and budget = ref (8 * (r - l + 1)) and h = ref 0x2545F491 in
  let pick () =
    h := (!h * 25214903917) + 11;
    !l + ((!h lsr 20) mod (!r - !l + 1))
  in
  while !l < !r do
    if !budget < 0 then begin
      let rest = Array.sub a !l (!r - !l + 1) in
      Array.sort Float.compare rest;
      Array.blit rest 0 a !l (Array.length rest);
      l := !r
    end
    else begin
      budget := !budget - (!r - !l + 1);
      let x = median3 a.(pick ()) a.(pick ()) a.(pick ()) in
      let s = partition a !l !r x false in
      if k < s then r := s - 1
      else if s > !l then l := s
      else begin
        (* [x] is the range's least sample: gather its copies, so heavy
           duplicates shrink the range too. *)
        let s = partition a !l !r x true in
        l := if k < s then !r else s
      end
    end
  done

let percentile t p =
  if t.size = 0 then invalid_arg "Tally.percentile: empty tally";
  if not (p >= 0. && p <= 100.) then invalid_arg "Tally.percentile: p out of [0,100]";
  (* Nearest-rank: smallest value whose cumulative frequency >= p%. *)
  let rank = int_of_float (ceil (p /. 100. *. float_of_int t.size)) in
  let k = Int.max 0 (Int.min (t.size - 1) (rank - 1)) in
  if k <> t.placed then begin
    (* Only the side of the last placed index that holds [k] moves. *)
    let l = if t.placed >= 0 && k > t.placed then t.placed + 1 else 0 in
    let r = if k < t.placed then t.placed - 1 else t.size - 1 in
    select t.data l r k;
    t.placed <- k
  end;
  t.data.(k)

let p50 t = percentile t 50.

let p99 t = percentile t 99.

let p999 t = percentile t 99.9

let samples t = Array.sub t.data 0 t.size

let clear t =
  t.size <- 0;
  t.placed <- -1
