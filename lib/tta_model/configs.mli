(** Configurations of the formal TTA star-topology model.

    A configuration fixes the cluster size, the star-coupler feature
    set (which determines the fault modes the couplers can exhibit, per
    Section 4.1) and the auxiliary constraints the paper adds when
    extracting readable counterexamples. *)

(** Ablations of individual start-up rules, to show which mechanisms
    are load-bearing for the safety property. *)
type protocol_variant =
  | Standard
  | No_big_bang
      (** integrate on the {e first} cold-start frame instead of the
          second *)
  | No_listen_hold
      (** drop the rule "stay in listen if a cold-start frame is on the
          channel even when the timeout just reached zero" — removing it
          lets two cold-start epochs coexist, and the safety property
          fails with {e no} coupler fault at all *)
  | No_timeout_stagger
      (** every node's listen timeout is the round length + 1 instead of
          being staggered by node id *)

val variant_to_string : protocol_variant -> string

type t = {
  nodes : int;  (** cluster size; the paper uses 4 (nodes A, B, C, D) *)
  feature_set : Guardian.Feature_set.t;
  single_fault : bool;
      (** at most one coupler faulty at a time (TTP/C fault hypothesis) *)
  oos_budget : int option;
      (** if [Some k], at most [k] slots may carry an out-of-slot
          replay over the whole run (the paper uses 1) *)
  forbid_cold_start_duplication : bool;
      (** disallow replaying a buffered cold-start frame; forces the
          paper's second counterexample (duplicated C-state frame) *)
  variant : protocol_variant;
}

val default_nodes : int

val make :
  ?nodes:int ->
  ?single_fault:bool ->
  ?oos_budget:int ->
  ?forbid_cold_start_duplication:bool ->
  ?variant:protocol_variant ->
  Guardian.Feature_set.t ->
  t
(** @raise Invalid_argument below 2 nodes. *)

(** The four configurations compared in Section 5: *)

val passive : ?nodes:int -> unit -> t
val time_windows : ?nodes:int -> unit -> t
val small_shifting : ?nodes:int -> unit -> t

val full_shifting :
  ?nodes:int -> ?oos_budget:int -> ?forbid_cold_start_duplication:bool ->
  unit -> t
(** The failing configuration; defaults to the paper's one-error
    budget. Use {!make} directly for an unlimited budget. *)

val section5 :
  ?nodes:int -> ?forbid_cold_start_duplication:bool ->
  Guardian.Feature_set.t -> t
(** The Section 5 configuration of a feature set: one of the four
    above (the forbid flag only applies to full shifting). *)

val name : t -> string
