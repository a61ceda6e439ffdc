(* Flat circular-array ring. The backing array is lazily created from
   the first pushed element (a polymorphic ring has no dummy value to
   pre-fill with) and sized exactly [capacity], so steady-state
   push/pop allocate nothing — [Stdlib.Queue] costs a 3-word cell per
   push, one minor alloc per simulated packet on the NIC paths. *)

type 'a t = {
  capacity : int;
  mutable buf : 'a array; (* [||] until the first push *)
  mutable head : int;
  mutable len : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity < 1";
  { capacity; buf = [||]; head = 0; len = 0; dropped = 0 }

let[@zygos.hot] push t x =
  if t.len >= t.capacity then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    (* One-time lazy init of the backing store. *)
    if Array.length t.buf = 0 then t.buf <- (Array.make t.capacity x [@zygos.allow "hot-alloc"]);
    let tail = t.head + t.len in
    let tail = if tail >= t.capacity then tail - t.capacity else tail in
    Array.unsafe_set t.buf tail x;
    t.len <- t.len + 1;
    true
  end

(* Non-allocating pop: returns [default] when empty. The option-returning
   {!pop} remains for callers off the hot path. *)
let[@zygos.hot] pop_or t ~default =
  if t.len = 0 then default
  else begin
    let x = Array.unsafe_get t.buf t.head in
    let head = t.head + 1 in
    t.head <- (if head = t.capacity then 0 else head);
    t.len <- t.len - 1;
    x
  end

let pop t =
  if t.len = 0 then None
  else begin
    let x = Array.unsafe_get t.buf t.head in
    let head = t.head + 1 in
    t.head <- (if head = t.capacity then 0 else head);
    t.len <- t.len - 1;
    Some x
  end

let peek t = if t.len = 0 then None else Some t.buf.(t.head)

let[@zygos.hot] length t = t.len

let[@zygos.hot] is_empty t = t.len = 0

let drops t = t.dropped

let iter f t =
  for i = 0 to t.len - 1 do
    let j = t.head + i in
    f t.buf.(if j >= t.capacity then j - t.capacity else j)
  done
