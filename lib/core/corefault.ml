type spec = { core : int; start : float; duration : float; slowdown : float }

let validate_spec s =
  let bad msg = invalid_arg (Printf.sprintf "Corefault: %s" msg) in
  if s.core < 0 then bad "core < 0";
  if Float.is_nan s.start || s.start < 0. then bad "start < 0";
  if Float.is_nan s.duration || s.duration < 0. then bad "duration < 0";
  if Float.is_nan s.slowdown || s.slowdown < 1. then bad "slowdown < 1"

(* Per-core windows, sorted by start, non-overlapping. *)
type t = { windows : spec array array }

let none = { windows = [||] }

let is_none t = Array.length t.windows = 0

let create specs =
  List.iter validate_spec specs;
  match specs with
  | [] -> none
  | _ ->
      let max_core = List.fold_left (fun acc s -> Int.max acc s.core) 0 specs in
      let per_core = Array.make (max_core + 1) [] in
      List.iter (fun s -> per_core.(s.core) <- s :: per_core.(s.core)) specs;
      let windows =
        Array.map
          (fun ws ->
            let a = Array.of_list ws in
            Array.sort (fun x y -> compare x.start y.start) a;
            Array.iteri
              (fun i w ->
                if i > 0 && a.(i - 1).start +. a.(i - 1).duration > w.start then
                  invalid_arg "Corefault.create: overlapping windows on one core")
              a;
            a)
          per_core
      in
      { windows }

let[@zygos.hot] windows_of t core =
  if core < Array.length t.windows then t.windows.(core) else [||]

let[@zygos.hot] completion_time t ~core ~now ~work =
  if work < 0. then invalid_arg "Corefault.completion_time: work < 0";
  let ws = windows_of t core in
  if Array.length ws = 0 then now +. work
  else begin
    let cur = ref now and remaining = ref work and finished = ref nan in
    let i = ref 0 in
    while Float.is_nan !finished && !i < Array.length ws do
      let w = ws.(!i) in
      let w_end = w.start +. w.duration in
      if w_end <= !cur then incr i
      else begin
        (* Full-speed stretch before the window (if any). *)
        if w.start > !cur then begin
          let free = w.start -. !cur in
          if !remaining <= free then finished := !cur +. !remaining
          else begin
            remaining := !remaining -. free;
            cur := w.start
          end
        end;
        if Float.is_nan !finished then begin
          (* Inside the window: work proceeds at 1/slowdown. *)
          if w.slowdown = infinity then cur := w_end
          else begin
            let capacity = (w_end -. !cur) /. w.slowdown in
            if !remaining <= capacity then finished := !cur +. (!remaining *. w.slowdown)
            else begin
              remaining := !remaining -. capacity;
              cur := w_end
            end
          end;
          incr i
        end
      end
    done;
    if Float.is_nan !finished then !cur +. !remaining else !finished
  end
