type t =
  | Deterministic of float
  | Exponential of float
  | Bimodal of { p_slow : float; fast : float; slow : float }
  | Lognormal of { mu : float; sigma : float }
  | Empirical of float array

let deterministic s = Deterministic s

let exponential s = Exponential s

let bimodal1 ~mean = Bimodal { p_slow = 0.1; fast = 0.5 *. mean; slow = 5.5 *. mean }

let bimodal2 ~mean = Bimodal { p_slow = 0.001; fast = 0.5 *. mean; slow = 500.5 *. mean }

let lognormal ~mean ~sigma =
  (* E[X] = exp (mu + sigma^2/2)  =>  mu = log mean - sigma^2/2. *)
  Lognormal { mu = log mean -. (sigma *. sigma /. 2.); sigma }

let empirical samples =
  if Array.length samples = 0 then invalid_arg "Dist.empirical: no samples";
  Empirical (Array.copy samples)

let mean = function
  | Deterministic s -> s
  | Exponential s -> s
  | Bimodal { p_slow; fast; slow } -> ((1. -. p_slow) *. fast) +. (p_slow *. slow)
  | Lognormal { mu; sigma } -> exp (mu +. (sigma *. sigma /. 2.))
  | Empirical a -> Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let second_moment = function
  | Deterministic s -> s *. s
  | Exponential s -> 2. *. s *. s
  | Bimodal { p_slow; fast; slow } ->
      ((1. -. p_slow) *. fast *. fast) +. (p_slow *. slow *. slow)
  | Lognormal { mu; sigma } -> exp ((2. *. mu) +. (2. *. sigma *. sigma))
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
  | Lognormal { mu; sigma } ->
      Rng.float_into rng buf i;
      let u1 = 1. -. buf.(i) in
      Rng.float_into rng buf i;
      let z = sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. buf.(i)) in
      buf.(i) <- exp (mu +. (sigma *. z))
  | Empirical a -> buf.(i) <- a.(Rng.int rng (Array.length a))

let sample t rng =
  let buf = [| 0. |] in
  sample_into t rng buf 0;
  buf.(0)

let scale t k =
  match t with
  | Deterministic s -> Deterministic (s *. k)
  | Exponential s -> Exponential (s *. k)
  | Bimodal { p_slow; fast; slow } -> Bimodal { p_slow; fast = fast *. k; slow = slow *. k }
  | Lognormal { mu; sigma } -> Lognormal { mu = mu +. log k; sigma }
  | Empirical a -> Empirical (Array.map (fun x -> x *. k) a)

let name = function
  | Deterministic _ -> "fixed"
  | Exponential _ -> "exp"
  | Bimodal { p_slow; _ } -> if p_slow <= 0.001 then "bimodal2" else "bimodal1"
  | Lognormal _ -> "lognormal"
  | Empirical _ -> "empirical"

let pp ppf t =
  match t with
  | Deterministic s -> Format.fprintf ppf "fixed(%g)" s
  | Exponential s -> Format.fprintf ppf "exp(%g)" s
  | Bimodal { p_slow; fast; slow } ->
      Format.fprintf ppf "bimodal(p=%g, %g/%g)" p_slow fast slow
  | Lognormal { mu; sigma } -> Format.fprintf ppf "lognormal(mu=%g, sigma=%g)" mu sigma
  | Empirical a -> Format.fprintf ppf "empirical(%d samples)" (Array.length a)
