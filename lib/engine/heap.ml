(* Structure-of-arrays binary min-heap of int payloads.

   Keys live in a flat [float array] and payloads in a parallel
   [int array]. Times travel through one-element float buffers, as they
   do through [Sim.key_buffer], so test_equeue's reference loop hands
   the heap the same times it hands the simulator.

   The sift loops move a hole instead of swapping. Their array accesses
   are unchecked outside the checked profile: every index is bounded by
   [t.size], which [add_key] and [pop_into] keep within the capacity of
   all three arrays. *)

type t = {
  mutable times : float array;  (* slots [0, size) are live *)
  mutable seqs : int array;
  mutable values : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  {
    times = Array.make 64 0.;
    seqs = Array.make 64 0;
    values = Array.make 64 0;
    size = 0;
    next_seq = 0;
  }

let length t = t.size

let is_empty t = t.size = 0

let grow t =
  let new_cap = 2 * Array.length t.times in
  let times = Array.make new_cap 0. in
  let seqs = Array.make new_cap 0 in
  let values = Array.make new_cap 0 in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.values 0 values 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.values <- values

let add_key t buf value =
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

let pop_into t buf =
  if t.size = 0 then -1
  else begin
    let times = t.times and seqs = t.seqs and values = t.values in
    buf.(0) <- times.(0);
    let min = values.(0) in
    let n = t.size - 1 in
    t.size <- n;
    (* Move the last element into the root's hole, sifting it down. *)
    let time = times.(n) and seq = seqs.(n) and value = values.(n) in
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
    values.(!i) <- value;
    min
  end
