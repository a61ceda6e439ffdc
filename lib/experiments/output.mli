(** Plain-text figures and tables as data.

    A figure is a list of {!block}s whose table cells keep each number as
    a float with its display format, so the number stays reachable after
    the run. {!render} is the one formatter: it is pure, so a caller
    prints, digests or diffs the string it returns. *)

type fmt =
  | F1  (** one decimal: [1.2] *)
  | F2  (** two decimals *)
  | F3  (** three decimals *)
  | Pct  (** a fraction as a percentage with one decimal: 0.753 -> [75.3%] *)
  | G  (** [%g]: [12.5], [2] *)
  | Int  (** truncated toward zero: 2.9 -> [2] *)
  | Meets of float  (** [meets] when the value is at most the bound, else [violates] *)

type cell = Text of string | Num of fmt * float

type block =
  | Header of string  (** boxed section title *)
  | Subheader of string
  | Note of string  (** one line of free text *)
  | Table of { columns : string list; rows : cell list list }
      (** aligned columns; every row must have the arity of [columns] *)

val render : block list -> string
(** Raises [Invalid_argument] when a table row's arity differs from its
    columns'. *)
