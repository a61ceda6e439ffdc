type t = { epoch : int Atomic.t; commits : int Atomic.t }

(* Commits between automatic advances: the stand-in for Silo's 40ms
   timer. *)
let advance_every = 4096

let create () = { epoch = Atomic.make 1; commits = Atomic.make 0 }

let current t = Atomic.get t.epoch

let advance t = 1 + Atomic.fetch_and_add t.epoch 1

let on_commit t =
  let n = 1 + Atomic.fetch_and_add t.commits 1 in
  if n mod advance_every = 0 then ignore (advance t : int)
