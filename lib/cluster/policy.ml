type t =
  | Static_hash
  | Random
  | Po2
  | Jsq
  | Jbsq of int

let name = function
  | Static_hash -> "hash"
  | Random -> "random"
  | Po2 -> "po2"
  | Jsq -> "jsq"
  | Jbsq n -> Printf.sprintf "jbsq-%d" n

let validate = function
  | Jbsq n when n < 1 -> invalid_arg "Policy: Jbsq bound < 1"
  | Static_hash | Random | Po2 | Jsq | Jbsq _ -> ()

let bound = function Jbsq n -> n | Static_hash | Random | Po2 | Jsq -> max_int

(* A routable set is an [int] bit set (bit i: server i may take the
   request); racks have at most 62 servers, so scans are short loops. *)
let[@zygos.hot] mem set i = set land (1 lsl i) <> 0

let[@zygos.hot] rec popcount set = if set = 0 then 0 else 1 + popcount (set land (set - 1))

(* Index of the [j]-th (0-based) member of [set], scanning from [i]; the
   caller guarantees there are more than [j]. *)
let[@zygos.hot] rec nth_member set i j =
  if not (mem set i) then nth_member set (i + 1) j
  else if j = 0 then i
  else nth_member set (i + 1) (j - 1)

(* Lowest-index member with the smallest estimate, or -1 on an empty set. *)
let[@zygos.hot] argmin (estimates : float array) set ~n =
  let best = ref (-1) in
  for i = 0 to n - 1 do
    if
      mem set i
      && (!best < 0 || estimates.(i) < estimates.(!best))
    then best := i
  done;
  !best

let[@zygos.hot] choose t ~rss ~rng ~(estimates : float array) ~routable ~n ~conn =
  let routable = routable land ((1 lsl n) - 1) in
  if n = 1 then if mem routable 0 then 0 else -1
  else
    match t with
    | Static_hash ->
        (* Flow-consistent: the ToR applies the same Toeplitz/indirection
           hashing a NIC would, over the rack instead of over queues. A
           down home server falls through to the next index (rehash by
           linear probing) so hashing can still fail over when the caller
           masks servers out. *)
        let home = Net.Rss.queue_of_conn rss conn in
        let found = ref (-1) and k = ref 0 in
        while !found < 0 && !k < n do
          let i = (home + !k) mod n in
          if mem routable i then found := i;
          incr k
        done;
        !found
    | Random ->
        let k = popcount routable in
        if k = 0 then -1 else nth_member routable 0 (Engine.Rng.int rng k)
    | Po2 ->
        let k = popcount routable in
        if k = 0 then -1
        else if k = 1 then nth_member routable 0 0
        else begin
          (* Two distinct candidates (sampling without replacement), then
             the shorter estimated queue; ties go to the first draw. *)
          let a = Engine.Rng.int rng k in
          let b =
            let b = Engine.Rng.int rng (k - 1) in
            if b >= a then b + 1 else b
          in
          let ia = nth_member routable 0 a in
          let ib = nth_member routable 0 b in
          if estimates.(ib) < estimates.(ia) then ib else ia
        end
    | Jsq | Jbsq _ -> argmin estimates routable ~n
