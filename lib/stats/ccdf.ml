type point = { value : float; prob : float }

let of_samples ?(points = 200) samples =
  let n = Array.length samples in
  if n = 0 then []
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    let step = max 1 (n / points) in
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

let survival_at samples x =
  let n = Array.length samples in
  if n = 0 then 0.
  else begin
    let above = Array.fold_left (fun acc v -> if v > x then acc + 1 else acc) 0 samples in
    float_of_int above /. float_of_int n
  end
