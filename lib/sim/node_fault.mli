(** Node-level fault models for the simulator.

    These reproduce the fault classes of the bus-topology
    fault-injection experiments that motivated the central guardian
    (Section 2.2 of the paper): babbling idiots, SOS transmissions,
    masquerading cold-start frames, frames carrying an invalid C-state —
    plus a plain crash. *)

open Ttp

type t =
  | Healthy
  | Crashed  (** transmits nothing, forever *)
  | Sos of { timing : float; value : float }
      (** transmits with marginal timing/signal: receivers disagree on
          validity *)
  | Babbling of { in_slot : int }
      (** additionally transmits in a slot it does not own *)
  | Bad_cstate of { time_offset : int }
      (** transmits frames whose C-state time is wrong by the offset *)
  | Masquerade of { as_slot : int }
      (** cold-start frames claim a different round slot, impersonating
          another node during startup *)

val to_string : t -> string

val of_string : nodes:int -> node:int -> string -> t option
(** The fault a CLI name selects for [node] of an [nodes]-node cluster:
    [none], [crash], [sos], [babbling] and [masquerade] (both aimed at
    the next slot, [(node + 1) mod nodes]) or [bad-cstate]; [None] for
    any other name. *)

val distort :
  t -> sender:int -> channel:int -> Frame.t -> Guardian.Coupler.attempt option
(** Apply the fault to what the healthy controller wanted to transmit
    in its own slot; [None] means nothing reaches the channel. *)

val extra_attempt :
  t -> sender:int -> channel:int -> slot:int -> cstate:Cstate.t ->
  Guardian.Coupler.attempt option
(** Extra transmissions the fault generates outside the node's own slot
    (the babbling idiot); [slot] is the cluster's current TDMA
    position. *)
