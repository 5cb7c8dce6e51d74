(** Configurations of the formal TTA star-topology model.

    A configuration fixes the cluster size, the star-coupler feature
    set (which determines the fault modes the couplers can exhibit, per
    Section 4.1 of the paper) and the auxiliary constraints the paper
    adds when extracting readable counterexamples: the single-fault
    hypothesis, a budget on out-of-slot errors, and the prohibition of
    cold-start duplication used to obtain the second trace. *)

(* Ablations of individual start-up rules, to show which mechanisms
   are load-bearing for the safety property (beyond the coupler
   authority the paper varies). *)
type protocol_variant =
  | Standard
  | No_big_bang
      (** integrate on the {e first} cold-start frame instead of the
          second *)
  | No_listen_hold
      (** drop the rule "stay in listen if a cold-start frame is on
          the channel even when the timeout just reached zero" *)
  | No_timeout_stagger
      (** every node's listen timeout is the round length + 1 instead
          of being staggered by node id *)

let variant_to_string = function
  | Standard -> "standard"
  | No_big_bang -> "no-big-bang"
  | No_listen_hold -> "no-listen-hold"
  | No_timeout_stagger -> "no-timeout-stagger"

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

let default_nodes = 4

let make ?(nodes = default_nodes) ?(single_fault = true) ?oos_budget
    ?(forbid_cold_start_duplication = false) ?(variant = Standard) feature_set
    =
  if nodes < 2 then invalid_arg "Configs.make: need at least 2 nodes";
  { nodes; feature_set; single_fault; oos_budget;
    forbid_cold_start_duplication; variant }

(* The four configurations compared in Section 5. *)

let passive ?nodes () = make ?nodes Guardian.Feature_set.Passive
let time_windows ?nodes () = make ?nodes Guardian.Feature_set.Time_windows
let small_shifting ?nodes () = make ?nodes Guardian.Feature_set.Small_shifting

(* The failing configuration, with the paper's trace-extraction
   constraint of at most one out-of-slot error. Use {!make} directly
   for an unlimited error budget. *)
let full_shifting ?nodes ?(oos_budget = 1)
    ?(forbid_cold_start_duplication = false) () =
  make ?nodes ~oos_budget ~forbid_cold_start_duplication
    Guardian.Feature_set.Full_shifting

let section5 ?nodes ?forbid_cold_start_duplication = function
  | Guardian.Feature_set.Full_shifting ->
      full_shifting ?nodes ?forbid_cold_start_duplication ()
  | fs -> make ?nodes fs

let name cfg =
  Printf.sprintf "%s%s%s%s"
    (Guardian.Feature_set.to_string cfg.feature_set)
    (match cfg.oos_budget with
    | Some k -> Printf.sprintf "+oos<=%d" k
    | None -> "")
    (if cfg.forbid_cold_start_duplication then "+no-cs-dup" else "")
    (match cfg.variant with
    | Standard -> ""
    | v -> "+" ^ variant_to_string v)
