(* Structure-of-arrays binary min-heap.

   Keys live in a flat [float array] (unboxed storage) and payloads in a
   parallel ['a array], so pushing an element writes three array slots
   instead of boxing a record, and the peek/drop API below pops without
   allocating an option or tuple. The [dummy] element fills unused value
   slots so the heap never retains (or exposes) stale payloads.

   The sift loops move a hole instead of swapping. Their array accesses
   are unchecked outside the checked profile: every index is bounded by
   [t.size], which the public operations keep within the capacity of all
   three arrays. *)

type 'a t = {
  mutable times : float array;  (* slots [0, size) are live *)
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
  kbuf : float array;  (* one-element scratch backing [add]'s key, see [add_key] *)
  dummy : 'a;
}

let create ?(capacity = 64) ~dummy () =
  let capacity = max capacity 1 in
  {
    times = Array.make capacity 0.;
    seqs = Array.make capacity 0;
    values = Array.make capacity dummy;
    size = 0;
    next_seq = 0;
    kbuf = [| 0. |];
    dummy;
  }

let length t = t.size

let[@zygos.hot] is_empty t = t.size = 0

let[@zygos.hot] grow t =
  let new_cap = 2 * Array.length t.times in
  (* amortized doubling: O(log n) growths over a run, zero steady-state *)
  let times = (Array.make new_cap 0. [@zygos.allow "hot-alloc"]) in
  let seqs = (Array.make new_cap 0 [@zygos.allow "hot-alloc"]) in
  let values = (Array.make new_cap t.dummy [@zygos.allow "hot-alloc"]) in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.values 0 values 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.values <- values

(* The key arrives in [buf.(0)] rather than as a float argument: without
   flambda a float crossing a function boundary is boxed at the caller,
   so the simulator's schedule path hands its (clock + delay) key over
   through a flat one-element array and steady-state adds allocate
   nothing. [add] below keeps the ergonomic labelled-argument form. *)
let[@zygos.hot] add_key t buf value =
  let time = buf.(0) in
  if t.size = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let times = t.times and seqs = t.seqs and values = t.values in
  (* Sift up moving a hole: the new element has the largest seq so far, so
     on a time tie the parent stays above it and a strict [<] suffices. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = times.(parent) in
    if time < pt then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(parent);
      values.(!i) <- values.(parent);
      i := parent
    end
    else moving := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  values.(!i) <- value

let[@zygos.hot] add t ~time value =
  t.kbuf.(0) <- time;
  add_key t t.kbuf value

let[@zygos.hot] min_time t = if t.size = 0 then infinity else t.times.(0)

let[@zygos.hot] min_elt t = if t.size = 0 then t.dummy else t.values.(0)

let[@zygos.hot] drop_min t =
  if t.size > 0 then begin
    let n = t.size - 1 in
    t.size <- n;
    if n = 0 then t.values.(0) <- t.dummy
    else begin
      let times = t.times and seqs = t.seqs and values = t.values in
      (* Move the last element into the root's hole, sifting it down. *)
      let time = times.(n) and seq = seqs.(n) in
      let value = values.(n) in
      values.(n) <- t.dummy;
      let i = ref 0 in
      let moving = ref true in
      while !moving do
        let left = (2 * !i) + 1 in
        if left >= n then moving := false
        else begin
          let right = left + 1 in
          let child =
            if
              right < n
              && (let rt = times.(right)
                  and lt = times.(left) in
                  rt < lt
                  || (rt = lt && seqs.(right) < seqs.(left)))
            then right
            else left
          in
          let ct = times.(child) in
          if ct < time || (ct = time && seqs.(child) < seq) then begin
            times.(!i) <- ct;
            seqs.(!i) <- seqs.(child);
            values.(!i) <- values.(child);
            i := child
          end
          else moving := false
        end
      done;
      times.(!i) <- time;
      seqs.(!i) <- seq;
      values.(!i) <- value
    end
  end

(* Pop the minimum, writing its time into [buf.(0)] (flat store — no
   boxed-float return) and returning its payload. The heap must be
   non-empty; the caller checks [is_empty] first. *)
let[@zygos.hot] pop_into t buf =
  buf.(0) <- t.times.(0);
  let v = t.values.(0) in
  drop_min t;
  v

let pop_min t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) and value = t.values.(0) in
    drop_min t;
    Some (time, value)
  end

let peek_min_time t = if t.size = 0 then None else Some t.times.(0)

let clear t =
  Array.fill t.values 0 t.size t.dummy;
  t.size <- 0;
  t.next_seq <- 0
