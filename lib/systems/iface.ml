type t = {
  submit : Net.Request.t -> unit;
  info : unit -> (string * float) list;
}

(* String-keyed lookup: List.assoc_opt would compare keys with
   polymorphic equality. *)
let rec assoc_str key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else assoc_str key rest

let info_value t key = assoc_str key (t.info ())
