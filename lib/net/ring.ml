(* A bounded FIFO of immediate ints (request handles) over an [Intq]:
   the storage doubles on demand, so a ring holds memory for its
   high-water mark rather than for [capacity]. Whether a push drops
   depends only on the ring's length, so when the storage grows does
   not change behaviour. Steady-state push/pop allocate nothing. *)

type t = { q : Engine.Intq.t; capacity : int; mutable dropped : int }

let create ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity < 1";
  { q = Engine.Intq.create (); capacity; dropped = 0 }

let[@zygos.hot] push t x =
  if Engine.Intq.length t.q >= t.capacity then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    Engine.Intq.push t.q x;
    true
  end

(* Non-allocating pop: returns [default] when empty. *)
let[@zygos.hot] pop_or t ~default =
  if Engine.Intq.is_empty t.q then default else Engine.Intq.pop t.q

let[@zygos.hot] length t = Engine.Intq.length t.q

let[@zygos.hot] is_empty t = Engine.Intq.is_empty t.q

let drops t = t.dropped
