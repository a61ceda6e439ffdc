(** Complementary CDF extraction (Figure 10a of the paper).

    Turns a set of samples into (value, P[X > value]) points suitable for a
    log-scale CCDF plot of service times. *)

type point = { value : float; prob : float }

val of_samples : ?points:int -> float array -> point list
(** [of_samples samples] computes the CCDF at [points] (default 200)
    equally spaced sample ranks. The input need not be sorted. Returns []
    on empty input. *)
