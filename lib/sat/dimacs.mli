(** DIMACS CNF reader/writer.

    Makes the solver usable as a standalone tool ([tta sat]) and
    lets instances generated here be cross-checked against external
    solvers. *)

type instance = {
  nvars : int;
  clauses : int list list;  (** DIMACS literals: nonzero, +v / -v *)
}

exception Parse_error of string

val of_string : string -> instance
val of_file : string -> instance
val of_lines : string list -> instance

val to_string : instance -> string
val to_file : instance -> string -> unit

val load : instance -> Solver.t
(** A fresh solver with the instance's clauses; DIMACS variable [i]
    (1-based) becomes solver variable [i-1]. *)

val model_of : instance -> Solver.t -> int list
(** After a [Sat] answer: the model as DIMACS literals. *)
