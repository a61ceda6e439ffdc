(** Service-time and inter-arrival distributions.

    These are the distributions of ZygOS §2.3/Figure 2 plus an empirical
    distribution used to replay measured Silo/TPC-C service times (§6.3).
    All times are in microseconds unless a caller rescales. *)

type t =
  | Deterministic of float  (** P[X = s] = 1 *)
  | Exponential of float  (** mean s *)
  | Bimodal of { p_slow : float; fast : float; slow : float }
      (** P[X = fast] = 1 - p_slow, P[X = slow] = p_slow *)
  | Empirical of float array
      (** uniform resampling from measured samples (Silo service times) *)

val deterministic : float -> t

val exponential : float -> t

val bimodal1 : mean:float -> t
(** The paper's bimodal-1: P[X = S/2] = .9, P[X = 5.5 S] = .1 — mean S. *)

val bimodal2 : mean:float -> t
(** The paper's bimodal-2: P[X = S/2] = .999, P[X = 500.5 S] = .001 —
    mean S. *)

val empirical : float array -> t
(** Empirical distribution over the given samples (copied). Raises
    [Invalid_argument] on an empty array. *)

val mean : t -> float
(** Analytic mean (sample mean for [Empirical]). *)

val squared_cv : t -> float
(** Squared coefficient of variation, Var(X)/E(X)^2. 0 for deterministic,
    1 for exponential; distinguishes the dispersion regimes of §2.3. *)

val sample_into : t -> Rng.t -> float array -> int -> unit
(** [sample_into d rng buf i] draws one value into [buf.(i)]. Hot paths
    sample through it: the value stays in flat float storage, where a
    returned float would be boxed at the call. *)

val sample : t -> Rng.t -> float
(** Draw one value through {!sample_into}, for cold callers. *)

val name : t -> string
(** Short label used in experiment output ("fixed", "exp", "bimodal1"...). *)
