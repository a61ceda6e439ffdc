type t = {
  rng : Engine.Rng.t;
  others : int array;  (* all cores but self; shuffled in place per call *)
  rr : int array;  (* fixed round-robin order *)
}

let create ~rng ~cores ~self =
  if cores < 1 then invalid_arg "Steal_policy.create: cores < 1";
  if self < 0 || self >= cores then invalid_arg "Steal_policy.create: self out of range";
  let others = Array.init (cores - 1) (fun i -> if i < self then i else i + 1) in
  let rr = Array.init (cores - 1) (fun i -> (self + 1 + i) mod cores) in
  { rng; others; rr }

let[@zygos.hot] victim_order t =
  Engine.Rng.shuffle_in_place t.rng t.others;
  t.others

let[@zygos.hot] round_robin_order t = t.rr
