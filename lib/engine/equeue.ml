(* Event-queue facade: the simulator's priority queue behind a runtime
   choice of implementation. Both back ends pop in (time, insertion-seq)
   order and are bit-identical for any add/pop interleaving, so the
   selection is purely a performance knob (see DESIGN.md "Event queue"). *)

type kind = Heap | Wheel

type t = H of int Heap.t | W of Wheel.t

let create ?(capacity = 64) ?(dummy = 0) kind =
  match kind with
  | Heap -> H (Heap.create ~capacity ~dummy ())
  | Wheel -> W (Wheel.create ~capacity ~dummy ())

let kind = function H _ -> Heap | W _ -> Wheel

let add t ~time v =
  match t with H h -> Heap.add h ~time v | W w -> Wheel.add w ~time v

let min_time = function H h -> Heap.min_time h | W w -> Wheel.min_time w
let min_elt = function H h -> Heap.min_elt h | W w -> Wheel.min_elt w
let drop_min = function H h -> Heap.drop_min h | W w -> Wheel.drop_min w
let length = function H h -> Heap.length h | W w -> Wheel.length w
let is_empty = function H h -> Heap.is_empty h | W w -> Wheel.is_empty w
let clear = function H h -> Heap.clear h | W w -> Wheel.clear w

let kind_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "heap" -> Some Heap
  | "wheel" -> Some Wheel
  | _ -> None
