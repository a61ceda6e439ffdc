(* Many FIFOs of immediate ints in one flat structure.

   A per-connection FIFO built as its own [Intq] costs a record and a
   buffer (13 words) per connection before it holds anything, and a
   point has thousands of connections. Here every queue is one int: the
   node of its newest element, or -1 when empty. A queue's nodes form a
   circular singly linked list, so [next] of the tail is the head, and
   push and pop each touch O(1) nodes. All queues share one node pool of
   two int arrays; free nodes are chained through [next] from [free].
   The pool doubles only when no node is free and never shrinks, so it
   settles at the high-water mark of elements held at once, across all
   queues.

   Single-owner discipline, like [Intq]: not thread safe. *)

type t = {
  tails : int array;  (* queue -> node of its newest element; -1 = empty *)
  mutable value : int array;  (* node -> element *)
  mutable next : int array;  (* node -> next node of its queue, or of the free list *)
  mutable free : int;  (* first free node; -1 = pool full *)
}

let empty = Intq.empty

(* Chain nodes [lo, hi) into a free list, [lo] first. *)
let[@zygos.hot] link_free next ~lo ~hi =
  for i = lo to hi - 2 do
    next.(i) <- i + 1
  done;
  next.(hi - 1) <- -1

(* Initial nodes, shared by all queues. *)
let capacity = 64

let create ~queues () =
  if queues < 0 then invalid_arg "Intqs.create: queues < 0";
  let next = Array.make capacity 0 in
  link_free next ~lo:0 ~hi:capacity;
  { tails = Array.make queues (-1); value = Array.make capacity 0; next; free = 0 }

let[@zygos.hot] grow t =
  let cap = Array.length t.next in
  (* amortized doubling: O(log n) growths over a run, zero steady-state *)
  let value = (Array.make (2 * cap) 0 [@zygos.allow "hot-alloc"]) in
  let next = (Array.make (2 * cap) 0 [@zygos.allow "hot-alloc"]) in
  Array.blit t.value 0 value 0 cap;
  Array.blit t.next 0 next 0 cap;
  link_free next ~lo:cap ~hi:(2 * cap);
  t.value <- value;
  t.next <- next;
  t.free <- cap

let[@zygos.hot] is_empty t q = t.tails.(q) < 0

let[@zygos.hot] push t q x =
  let tail = t.tails.(q) in
  if t.free < 0 then grow t;
  let n = t.free in
  let next = t.next in
  t.free <- next.(n);
  t.value.(n) <- x;
  if tail < 0 then next.(n) <- n
  else begin
    next.(n) <- next.(tail);
    next.(tail) <- n
  end;
  t.tails.(q) <- n

let[@zygos.hot] release t n =
  t.next.(n) <- t.free;
  t.free <- n

let[@zygos.hot] pop t q =
  let tail = t.tails.(q) in
  if tail < 0 then empty
  else begin
    let head = t.next.(tail) in
    let x = t.value.(head) in
    if head = tail then t.tails.(q) <- -1
    else t.next.(tail) <- t.next.(head);
    release t head;
    x
  end

(* One walk from the head, relinking the survivors in order; used by
   the rare repair paths (client order-violation cleanup). *)
let[@zygos.hot] remove_all t q x =
  let tail = t.tails.(q) in
  if tail >= 0 then begin
    let first = ref (-1) and last = ref (-1) in
    let node = ref t.next.(tail) and walking = ref true in
    while !walking do
      let n = !node in
      walking := n <> tail;
      node := t.next.(n);
      if t.value.(n) = x then release t n
      else begin
        if !last < 0 then first := n else t.next.(!last) <- n;
        last := n
      end
    done;
    if !last < 0 then t.tails.(q) <- -1
    else begin
      t.next.(!last) <- !first;
      t.tails.(q) <- !last
    end
  end
