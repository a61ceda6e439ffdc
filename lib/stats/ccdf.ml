type point = { value : float; prob : float }

let of_samples ?(points = 200) samples =
  let n = Array.length samples in
  if n = 0 then []
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    let step = Int.max 1 (n / points) in
    let acc = ref [] in
    let i = ref 0 in
    while !i < n do
      let v = sorted.(!i) in
      (* P[X > v] with v at sorted rank i: (n - (last index of v) - 1)/n;
         using the conservative i-based estimate keeps the curve monotone. *)
      let prob = float_of_int (n - !i - 1) /. float_of_int n in
      acc := { value = v; prob } :: !acc;
      i := !i + step
    done;
    (* Always include the maximum so the tail end of the curve is exact. *)
    let last = { value = sorted.(n - 1); prob = 0. } in
    List.rev (last :: !acc)
  end
