(* A growable circular FIFO of immediate ints.

   [Stdlib.Queue] allocates a 3-word cell per [add]; on the per-request
   hot path (NIC rings, shuffle queues, remote-syscall FIFOs) that is
   one minor allocation per message. Per-connection FIFOs, of which a
   point has thousands, live in {!Intqs} instead. This queue stores
   its elements flat in an int array, so steady-state push/pop allocate
   nothing; the array doubles on overflow and is never shrunk (the
   high-water mark of a queue is its natural working-set size).

   Single-owner discipline: not thread safe; every instance is owned by
   one core/domain, like the engine's event pool. *)

type t = {
  mutable buf : int array;
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
}

let create () = { buf = Array.make 8 0; head = 0; len = 0 }

let[@zygos.hot] length t = t.len

let[@zygos.hot] is_empty t = t.len = 0

let[@zygos.hot] grow t =
  let cap = Array.length t.buf in
  (* amortized doubling: O(log n) growths over a run, zero steady-state *)
  let buf = (Array.make (2 * cap) 0 [@zygos.allow "hot-alloc"]) in
  (* Unroll the wrap: oldest element lands at index 0. *)
  let first = cap - t.head in
  Array.blit t.buf t.head buf 0 (min t.len first);
  if t.len > first then Array.blit t.buf 0 buf first (t.len - first);
  t.buf <- buf;
  t.head <- 0

let[@zygos.hot] push t x =
  if t.len = Array.length t.buf then grow t;
  let cap = Array.length t.buf in
  let tail = t.head + t.len in
  let tail = if tail >= cap then tail - cap else tail in
  t.buf.(tail) <- x;
  t.len <- t.len + 1

(* [pop]/[peek] return [empty] when the queue is empty: a flat sentinel
   instead of an [option], so the hot path allocates no [Some]. Callers
   whose payloads can legitimately be [empty] must guard with
   [is_empty] first. *)
let empty = min_int

let[@zygos.hot] pop t =
  if t.len = 0 then empty
  else begin
    let x = t.buf.(t.head) in
    let head = t.head + 1 in
    t.head <- (if head = Array.length t.buf then 0 else head);
    t.len <- t.len - 1;
    x
  end

let[@zygos.hot] peek t =
  if t.len = 0 then empty else t.buf.(t.head)
