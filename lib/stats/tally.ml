type t = {
  mutable data : float array;
  mutable size : int;
  mutable sorted : bool;  (* whether data.[0,size) is known ascending *)
}

let create () = { data = [||]; size = 0; sorted = true }

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
    let cap = max 256 (2 * Array.length t.data) in
    let bigger = (Array.create_float cap [@zygos.allow "hot-alloc"]) in
    Array.blit t.data 0 bigger 0 t.size;
    t.data <- bigger
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  t.sorted <- false

let[@zygos.hot] record_from t (buf : float array) i = record t buf.(i)

let count t = t.size

let is_empty t = t.size = 0

(* The reductions below are index loops in reservoir order with a float
   accumulator the compiler keeps unboxed; a fold through a closure
   would box it on every sample. *)
let mean t =
  let sum = ref 0. in
  for i = 0 to t.size - 1 do
    sum := !sum +. t.data.(i)
  done;
  if t.size = 0 then 0. else !sum /. float_of_int t.size

let max_value t =
  let m = ref neg_infinity in
  for i = 0 to t.size - 1 do
    m := Float.max !m t.data.(i)
  done;
  if t.size = 0 then 0. else !m

let min_value t =
  let m = ref infinity in
  for i = 0 to t.size - 1 do
    m := Float.min !m t.data.(i)
  done;
  if t.size = 0 then 0. else !m

(* Monomorphic ascending float sort. [Array.sort Float.compare] pays a
   closure call and float boxing per comparison, and sorting the latency
   tally was the single largest cost of finishing a sweep point. Unboxed
   [<] / [>] compares sort the same multiset to the same array — samples
   are finite latencies, no NaNs — so every percentile is bit-identical.
   Median-of-three quicksort, insertion sort under 17 elements; the
   samples are simulation outputs, not adversarial input. *)
let insertion_sort (a : float array) lo hi =
  for j = lo + 1 to hi - 1 do
    let x = Array.unsafe_get a j in
    let k = ref j in
    while !k > lo && Array.unsafe_get a (!k - 1) > x do
      Array.unsafe_set a !k (Array.unsafe_get a (!k - 1));
      decr k
    done;
    Array.unsafe_set a !k x
  done

(* Sort a.[lo, hi). *)
let rec sort_range (a : float array) lo hi =
  if hi - lo <= 16 then insertion_sort a lo hi
  else begin
    let p0 = Array.unsafe_get a lo
    and p1 = Array.unsafe_get a ((lo + hi) / 2)
    and p2 = Array.unsafe_get a (hi - 1) in
    let pivot =
      if p0 <= p1 then (if p1 <= p2 then p1 else if p0 <= p2 then p2 else p0)
      else if p0 <= p2 then p0
      else if p1 <= p2 then p2
      else p1
    in
    let i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while Array.unsafe_get a !i < pivot do incr i done;
      while Array.unsafe_get a !j > pivot do decr j done;
      if !i <= !j then begin
        let tmp = Array.unsafe_get a !i in
        Array.unsafe_set a !i (Array.unsafe_get a !j);
        Array.unsafe_set a !j tmp;
        incr i;
        decr j
      end
    done;
    sort_range a lo (!j + 1);
    sort_range a !i hi
  end

let ensure_sorted t =
  if not t.sorted then begin
    sort_range t.data 0 t.size;
    t.sorted <- true
  end

let percentile t p =
  if t.size = 0 then invalid_arg "Tally.percentile: empty tally";
  if not (p >= 0. && p <= 100.) then invalid_arg "Tally.percentile: p out of [0,100]";
  ensure_sorted t;
  (* Nearest-rank: smallest value whose cumulative frequency >= p%. *)
  let rank = int_of_float (ceil (p /. 100. *. float_of_int t.size)) in
  let idx = max 0 (min (t.size - 1) (rank - 1)) in
  t.data.(idx)

let p50 t = percentile t 50.

let p99 t = percentile t 99.

let p999 t = percentile t 99.9

let stddev t =
  if t.size < 2 then 0.
  else begin
    let m = mean t in
    let ss = ref 0. in
    for i = 0 to t.size - 1 do
      let x = t.data.(i) in
      ss := !ss +. ((x -. m) *. (x -. m))
    done;
    sqrt (!ss /. float_of_int (t.size - 1))
  end

let samples t = Array.sub t.data 0 t.size

let merge a b =
  let t = create () in
  for i = 0 to a.size - 1 do
    record t a.data.(i)
  done;
  for i = 0 to b.size - 1 do
    record t b.data.(i)
  done;
  t

let clear t =
  t.size <- 0;
  t.sorted <- true
