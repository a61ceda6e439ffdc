(* Fixed-size domain pool: one shared FCFS queue of task indices.

   Tasks are coarse (whole simulation points, milliseconds of work
   each), so the queue is a single atomic counter: every worker claims
   the next unclaimed index until none is left, which is work-conserving
   at the cost of one atomic increment per task. Determinism is the
   caller's concern: tasks must be independent (results are stored by
   index, so the output order never depends on which worker ran what). *)

let run ~workers ~tasks =
  if workers < 1 then invalid_arg "Pool.run: workers < 1";
  let n = Array.length tasks in
  let results = Array.make n None in
  let next = Atomic.make 0 and failure = Atomic.make None in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      (match tasks.(i) () with
      | v -> results.(i) <- Some v
      | exception e ->
          (* Keep the first failure; the other tasks still run. *)
          ignore (Atomic.compare_and_set failure None (Some e) : bool));
      work ()
    end
  in
  let spawn _ =
    (Domain.spawn work
    [@zygos.owned
      "single-owner: tasks is only read; each results cell is written only by the \
       worker that claimed its index, and read after Domain.join"])
  in
  let domains = List.init (Int.max 0 (Int.min workers n - 1)) spawn in
  work ();
  List.iter Domain.join domains;
  (match Atomic.get failure with Some e -> raise e | None -> ());
  Array.map (function Some v -> v | None -> assert false) results
