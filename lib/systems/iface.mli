(** Uniform handle over the simulated server systems, so sweeps and SLO
    searches (lib/experiments) can treat Linux/IX/ZygOS interchangeably. *)

type t = {
  submit : Net.Request.t -> unit;
      (** deliver one request at the server NIC (called by the load
          generator at arrival time) *)
  info : unit -> (string * float) list;
      (** system-specific counters after a run: steals/event, IPI count,
          ring drops, ... — used by Figure 8 and by tests *)
}

val info_value : t -> string -> float option
(** Look up one counter by name. *)
