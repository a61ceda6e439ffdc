(** Exact sample tally with percentile queries.

    Stores every recorded value (growable float array) and answers
    percentile queries by in-place selection on demand. This is the
    "client-side measurement agent" of the reproduction: latency samples
    from the simulated load generator land here, and all reported
    percentiles (p50/p99/...) are exact over the recorded samples, like the
    paper's mutilate-based measurements. *)

type t

val create : unit -> t

val record : t -> float -> unit
(** Add one sample. Amortized O(1). The float is boxed at the call. *)

val record_from : t -> float array -> int -> unit
(** [record_from t buf i] adds the sample [buf.(i)], boxing nothing. *)

val reserve : t -> int -> unit
(** [reserve t n] makes room for [n] samples in all; recording past them
    grows the reservoir as usual. *)

val count : t -> int

val is_empty : t -> bool

val mean : t -> float
(** Arithmetic mean; 0 when empty. Its bits depend only on the multiset
    of samples: exact integer sums per binary exponent, each rounded
    once, added in ascending exponent order. *)

val max_value : t -> float
(** Largest sample; 0 when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0, 100]: nearest-rank percentile of the
    recorded samples, placed by selection, which reorders them; a query
    after another selects only on its side of the rank that one placed.
    Raises [Invalid_argument] when empty or [p] out of range. *)

val p50 : t -> float

val p99 : t -> float

val p999 : t -> float

val samples : t -> float array
(** Copy of all recorded samples (order unspecified: percentile queries may
    reorder the internal store). *)

val clear : t -> unit
