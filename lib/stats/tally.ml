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

(* Ascending float sort in place: an MSD radix sort (American-flag sort)
   on the IEEE-754 bit patterns. Sorting is the largest cost of
   finishing a sweep point, and a radix sort reads each sample a few
   times where a comparison sort reads it ~log2 n times.

   For floats with the sign bit clear the bit patterns order like the
   values, so samples with the sign bit set (negatives and -0.) are
   first moved to the front negated, sorted as magnitudes, then
   reversed and negated back. The result is the sorted multiset, so
   every percentile and the sorted-order mean are those of any exact
   sort; -0. lands before +0. NaN is not a latency and is not ordered.

   Each level distributes one byte of the pattern, most significant
   first, with a 2x256-int scratch that every level reuses: slots
   [0, 256) hold each bucket's end, slots [256, 512) its next free slot.
   A level whose samples all share the byte moves nothing. Buckets of at
   most [cutoff] samples finish by insertion sort. *)
let cutoff = 32

let insertion_sort (a : float array) lo hi =
  for j = lo + 1 to hi - 1 do
    let x = a.(j) in
    let k = ref j in
    while !k > lo && a.(!k - 1) > x do
      a.(!k) <- a.(!k - 1);
      decr k
    done;
    a.(!k) <- x
  done

(* Byte [shift / 8] of [x]'s bit pattern. *)
let[@inline] digit x shift =
  Int64.(to_int (logand (shift_right_logical (bits_of_float x) shift) 0xffL))

(* Sort a.[lo, hi), whose samples have the sign bit clear and agree on
   every byte above [shift]. *)
let rec radix_sort (a : float array) (scratch : int array) lo hi shift =
  if hi - lo <= cutoff then insertion_sort a lo hi
  else begin
    Array.fill scratch 0 256 0;
    for i = lo to hi - 1 do
      let d = digit a.(i) shift in
      scratch.(d) <- scratch.(d) + 1
    done;
    if scratch.(digit a.(lo) shift) = hi - lo then begin
      if shift > 0 then radix_sort a scratch lo hi (shift - 8)
    end
    else begin
      let pos = ref lo in
      for d = 0 to 255 do
        scratch.(256 + d) <- !pos;
        pos := !pos + scratch.(d);
        scratch.(d) <- !pos
      done;
      (* Fill each bucket in turn: carry the sample at its next free
         slot to the sample's own bucket, swapping, until the one carried
         back belongs here. *)
      for d = 0 to 255 do
        while scratch.(256 + d) < scratch.(d) do
          let x = ref a.(scratch.(256 + d)) in
          let dx = ref (digit !x shift) in
          while !dx <> d do
            let j = scratch.(256 + !dx) in
            scratch.(256 + !dx) <- j + 1;
            let y = a.(j) in
            a.(j) <- !x;
            x := y;
            dx := digit y shift
          done;
          a.(scratch.(256 + d)) <- !x;
          scratch.(256 + d) <- scratch.(256 + d) + 1
        done
      done;
      (* The recursion overwrites the scratch, so each bucket is found
         again as a run of equal bytes. *)
      if shift > 0 then begin
        let s = ref lo in
        while !s < hi do
          let d = digit a.(!s) shift in
          let e = ref (!s + 1) in
          while !e < hi && digit a.(!e) shift = d do
            incr e
          done;
          radix_sort a scratch !s !e (shift - 8);
          s := !e
        done
      end
    end
  end

let sort (a : float array) n =
  let neg = ref 0 in
  for i = 0 to n - 1 do
    let x = a.(i) in
    (* The sign bit is set: x is negative, or -0. (1 /. -0. = -inf). *)
    if x < 0. || (x = 0. && 1. /. x < 0.) then begin
      a.(i) <- a.(!neg);
      a.(!neg) <- -.x;
      incr neg
    end
  done;
  let neg = !neg in
  (* 512 words is past the minor heap's largest block: one major block. *)
  let scratch = if n > cutoff then Array.make 512 0 else [||] in
  radix_sort a scratch 0 neg 56;
  radix_sort a scratch neg n 56;
  let i = ref 0 and j = ref (neg - 1) in
  while !i <= !j do
    let x = a.(!i) and y = a.(!j) in
    a.(!i) <- -.y;
    a.(!j) <- -.x;
    incr i;
    decr j
  done

let ensure_sorted t =
  if not t.sorted then begin
    sort t.data t.size;
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

let samples t = Array.sub t.data 0 t.size

let clear t =
  t.size <- 0;
  t.sorted <- true
