type t =
  | Deterministic of float
  | Exponential of float
  | Bimodal of { p_slow : float; fast : float; slow : float }
  | Empirical of float array

let deterministic s = Deterministic s

let exponential s = Exponential s

let bimodal1 ~mean = Bimodal { p_slow = 0.1; fast = 0.5 *. mean; slow = 5.5 *. mean }

let bimodal2 ~mean = Bimodal { p_slow = 0.001; fast = 0.5 *. mean; slow = 500.5 *. mean }

let empirical samples =
  if Array.length samples = 0 then invalid_arg "Dist.empirical: no samples";
  Empirical (Array.copy samples)

let mean = function
  | Deterministic s -> s
  | Exponential s -> s
  | Bimodal { p_slow; fast; slow } -> ((1. -. p_slow) *. fast) +. (p_slow *. slow)
  | Empirical a -> Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let second_moment = function
  | Deterministic s -> s *. s
  | Exponential s -> 2. *. s *. s
  | Bimodal { p_slow; fast; slow } ->
      ((1. -. p_slow) *. fast *. fast) +. (p_slow *. slow *. slow)
  | Empirical a ->
      Array.fold_left (fun acc x -> acc +. (x *. x)) 0. a /. float_of_int (Array.length a)

let squared_cv t =
  let m = mean t in
  if m = 0. then 0. else (second_moment t -. (m *. m)) /. (m *. m)

(* Each distribution's one sampler: draw and result travel through
   [buf.(i)], so no float crosses a call boxed. *)
let[@zygos.hot] sample_into t rng (buf : float array) i =
  match t with
  | Deterministic s -> buf.(i) <- s
  | Exponential s ->
      (* Inverse CDF; [1. -. u] avoids log 0. *)
      Rng.float_into rng buf i;
      buf.(i) <- -.s *. log (1. -. buf.(i))
  | Bimodal { p_slow; fast; slow } ->
      Rng.float_into rng buf i;
      buf.(i) <- (if buf.(i) < p_slow then slow else fast)
  | Empirical a -> buf.(i) <- a.(Rng.int rng (Array.length a))

let sample t rng =
  let buf = [| 0. |] in
  sample_into t rng buf 0;
  buf.(0)

let name = function
  | Deterministic _ -> "fixed"
  | Exponential _ -> "exp"
  | Bimodal { p_slow; _ } -> if p_slow <= 0.001 then "bimodal2" else "bimodal1"
  | Empirical _ -> "empirical"
