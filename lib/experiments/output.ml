type fmt = F1 | F2 | F3 | Pct | G | Int | Meets of float

type cell = Text of string | Num of fmt * float

type block =
  | Header of string
  | Subheader of string
  | Note of string
  | Table of { columns : string list; rows : cell list list }

let show = function
  | Text s -> s
  | Num (F1, x) -> Printf.sprintf "%.1f" x
  | Num (F2, x) -> Printf.sprintf "%.2f" x
  | Num (F3, x) -> Printf.sprintf "%.3f" x
  | Num (Pct, x) -> Printf.sprintf "%.1f%%" (100. *. x)
  | Num (G, x) -> Printf.sprintf "%g" x
  | Num (Int, x) -> string_of_int (int_of_float x)
  | Num (Meets bound, x) -> if x <= bound then "meets" else "violates"

let render blocks =
  let b = Buffer.create 4096 in
  let table columns rows =
    let arity = List.length columns in
    let rows =
      List.map
        (fun row ->
          if List.length row <> arity then invalid_arg "Output.render: row arity mismatch";
          List.map show row)
        rows
    in
    let widths =
      List.fold_left
        (List.map2 (fun w s -> Int.max w (String.length s)))
        (List.map String.length columns) rows
    in
    let line cells =
      List.iter2 (fun w s -> Printf.bprintf b "%-*s  " w s) widths cells;
      Buffer.add_char b '\n'
    in
    line columns;
    line (List.map (fun w -> String.make w '-') widths);
    List.iter line rows
  in
  List.iter
    (function
      | Header title ->
          let bar = String.make (String.length title + 4) '=' in
          Printf.bprintf b "\n%s\n= %s =\n%s\n" bar title bar
      | Subheader title -> Printf.bprintf b "\n--- %s ---\n" title
      | Note line -> Printf.bprintf b "%s\n" line
      | Table { columns; rows } -> table columns rows)
    blocks;
  Buffer.contents b
