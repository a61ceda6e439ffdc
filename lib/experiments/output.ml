(* All rendering funnels through one sink so a test (or any caller) can
   capture a figure's output as a string and compare it across worker
   counts. Rendering is sequential — only the calling domain ever touches
   the sink — so a plain ref suffices. *)
let sink : Buffer.t option ref = ref None

let emit s = match !sink with None -> print_string s | Some b -> Buffer.add_string b s

let printf fmt = Printf.ksprintf emit fmt

let capture f =
  let b = Buffer.create 4096 in
  let saved = !sink in
  sink := Some b;
  Fun.protect ~finally:(fun () -> sink := saved) f;
  Buffer.contents b

let print_header title =
  let line = String.make (String.length title + 4) '=' in
  printf "\n%s\n= %s =\n%s\n" line title line

let print_subheader title = printf "\n--- %s ---\n" title

let print_table ~columns ~rows =
  List.iter
    (fun row ->
      if List.length row <> List.length columns then
        invalid_arg "Output.print_table: row arity mismatch")
    rows;
  let widths =
    List.mapi
      (fun i col ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length col) rows)
      columns
  in
  let print_row cells =
    List.iteri
      (fun i cell ->
        let w = List.nth widths i in
        printf "%s%s  " cell (String.make (w - String.length cell) ' '))
      cells;
    emit "\n"
  in
  print_row columns;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let print_pool_stats (s : Runtime.Pool.stats) =
  let total_busy = Array.fold_left ( +. ) 0. s.Runtime.Pool.busy_s in
  let speedup = if s.Runtime.Pool.wall_s > 0. then total_busy /. s.Runtime.Pool.wall_s else 1. in
  print_subheader "sweep pool";
  print_table
    ~columns:[ "counter"; "value" ]
    ~rows:
      (List.map
         (fun (k, v) -> [ k; Printf.sprintf "%g" v ])
         [
           ("workers", float_of_int s.Runtime.Pool.workers);
           ("points_run", float_of_int s.Runtime.Pool.points);
           ("steals", float_of_int s.Runtime.Pool.steals);
           ("busy_s_total", total_busy);
           ("wall_s", s.Runtime.Pool.wall_s);
           ("speedup", speedup);
         ]);
  let per_domain =
    Array.to_list
      (Array.mapi
         (fun w busy ->
           [ string_of_int w; Printf.sprintf "%.3f" busy;
             string_of_int s.Runtime.Pool.run_counts.(w) ])
         s.Runtime.Pool.busy_s)
  in
  print_table ~columns:[ "domain"; "busy(s)"; "points" ] ~rows:per_domain

let f1 x = Printf.sprintf "%.1f" x

let f2 x = Printf.sprintf "%.2f" x

let f3 x = Printf.sprintf "%.3f" x

let pct x = Printf.sprintf "%.1f%%" (100. *. x)
