(** Run telemetry for the portfolio.

    A thread-safe collector of per-task records — one per engine run
    (or cache hit) — with an aggregate summary, a printable table and a
    JSON dump for the benchmark trajectory. Workers on any domain may
    {!add} concurrently. *)

type outcome = Holds | Violated | Unknown

val outcome_of_verdict : Tta_model.Engine.verdict -> outcome
val outcome_to_string : outcome -> string

type record = {
  config : string;  (** configuration id/label, e.g. ["E4 full-shifting+oos<=1"] *)
  engine : string;  (** {!Tta_model.Engine.id_to_string}, or ["cache"] *)
  outcome : outcome;
  detail : string;
  wall_s : float;
  cache_hit : bool;
  winner : bool;  (** did this run produce the task's selected verdict? *)
  counters : (string * int) list;
      (** the run's {!Tta_model.Engine.result} counters, sorted by
          name; [[]] on a cache hit. Replaces the old fixed
          [peak_bdd_nodes]/[sat_conflicts]/[explored_states] triple —
          those values are now the [reach.peak_nodes]/[sat.conflicts]/
          [explicit.states] entries. *)
}

type t

val create : unit -> t
val add : t -> record -> unit
val records : t -> record list
(** In insertion order. *)

type summary = {
  tasks : int;  (** records with [winner = true] *)
  runs : int;  (** all records *)
  holds : int;
  violated : int;
  unknown : int;  (** outcome counts over winner records *)
  cache_hits : int;
  total_wall_s : float;  (** summed over winner records: the cost of the
                             matrix as scheduled, excluding losing racers *)
  total_run_wall_s : float;  (** summed over all records *)
  max_wall_s : float;
}

val summarize : t -> summary

val pp_table : Format.formatter -> t -> unit
(** Per-record table plus the summary line. The effort column shows
    the run's most characteristic counter (peak BDD nodes, SAT
    conflicts, explored states, ...). *)

val to_json : t -> Json.t
(** [{ "records": [...], "summary": {...} }] — the schema is documented
    in doc/portfolio.md. *)
