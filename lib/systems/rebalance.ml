module Sim = Engine.Sim

type stats = { mutable windows : int; mutable moves : int }

(* Hottest-to-coldest traffic ratio above which a slot moves. *)
let imbalance_threshold = 1.3

let attach sim ~rss ~queues ~read_counts ~window () =
  if not (window > 0.) then invalid_arg "Rebalance.attach: window <= 0";
  let stats = { windows = 0; moves = 0 } in
  let idle_windows = ref 0 in
  let rec tick (_ : int) =
    stats.windows <- stats.windows + 1;
    let counts = read_counts () in
    let total = Array.fold_left ( + ) 0 counts in
    if total = 0 then incr idle_windows else idle_windows := 0;
    if total > 0 then begin
      (* Aggregate slot counts into per-queue load under the current
         mapping. *)
      let per_queue = Array.make queues 0 in
      Array.iteri
        (fun slot n ->
          let q = Net.Rss.queue_of_slot rss slot in
          if q < queues then per_queue.(q) <- per_queue.(q) + n)
        counts;
      let hottest = ref 0 and coldest = ref 0 in
      Array.iteri
        (fun q n ->
          if n > per_queue.(!hottest) then hottest := q;
          if n < per_queue.(!coldest) then coldest := q)
        per_queue;
      let hot = float_of_int per_queue.(!hottest) in
      let cold = float_of_int (max 1 per_queue.(!coldest)) in
      if !hottest <> !coldest && hot > imbalance_threshold *. cold then begin
        (* Move the busiest slot of the hottest queue — but never a slot
           so busy that moving it would just swap the imbalance. *)
        let surplus = (hot -. cold) /. 2. in
        let best = ref (-1) and best_count = ref 0 in
        Array.iteri
          (fun slot n ->
            if
              Net.Rss.queue_of_slot rss slot = !hottest
              && n > !best_count
              && float_of_int n <= surplus
            then begin
              best := slot;
              best_count := n
            end)
          counts;
        match !best with
        | -1 -> ()
        | slot ->
            Net.Rss.set_slot rss ~slot ~queue:!coldest;
            stats.moves <- stats.moves + 1
      end
    end;
    (* Re-arm while traffic flows; stop after two quiet windows so the
       simulation can drain and terminate. *)
    if !idle_windows < 2 then arm ()
  and arm () =
    (Sim.key_buffer sim).(0) <- Sim.now sim +. window;
    ignore (Sim.schedule_fn_keyed sim tick 0 : Sim.handle)
  in
  arm ();
  stats
