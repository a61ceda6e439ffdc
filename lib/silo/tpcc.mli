(** TPC-C on the Silo engine (§6.3 of the ZygOS paper).

    The full transaction mix — NewOrder, Payment, OrderStatus, Delivery,
    StockLevel with the standard 45/43/4/4/4 weights — implemented as
    serializable {!Txn} transactions over the nine TPC-C tables plus the
    two secondary indexes (customer by last name, order by customer).
    Monetary values are stored as integer cents; random inputs follow the
    spec's NURand / last-name-syllable rules.

    The loader populates one warehouse at the spec's ratios and 1/10 of
    its size, so experiments fit a laptop-class machine. With one
    warehouse every NewOrder item is supplied locally and every Payment
    customer is in the home district. *)

type t

val load : unit -> t
(** Populate a fresh database from a fixed seed: 1 warehouse, 10
    districts, 300 customers/district, 10k items, 300 initial
    orders/district (the spec's 3000/100k/3000 at 1/10). *)

val db : t -> Db.t

type tx_type = New_order | Payment | Order_status | Delivery | Stock_level

val all_tx_types : tx_type list

val tx_name : tx_type -> string

val standard_mix : Engine.Rng.t -> tx_type
(** Draw a transaction type with the TPC-C weights
    (45/43/4/4/4 for NewOrder/Payment/OrderStatus/Delivery/StockLevel). *)

type outcome =
  | Committed
  | Rolled_back  (** NewOrder's 1% intentional rollback *)
  | Conflicted  (** retries exhausted *)

val execute : t -> Db.worker -> Engine.Rng.t -> tx_type -> outcome
(** Run one transaction of the given type with spec-random inputs,
    retrying internally on OCC conflicts. *)

val consistency_check : t -> (string * bool) list
(** TPC-C consistency conditions 1–4 (per warehouse/district):
    W_YTD = Σ D_YTD; D_NEXT_O_ID − 1 = max order id; NEW-ORDER ids are
    contiguous; Σ O_OL_CNT = order-line count. Returns (condition, holds)
    pairs. *)
