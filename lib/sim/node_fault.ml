(** Node-level fault models for the simulator.

    These reproduce the fault classes of the bus-topology fault-injection
    experiments that motivated the central guardian (Ademaj et al.,
    discussed in Section 2.2 of the paper): babbling idiots, SOS
    transmissions, masquerading cold-start frames, and frames carrying
    an invalid C-state — plus a plain crash. *)

open Ttp

type t =
  | Healthy
  | Crashed  (** transmits nothing, forever *)
  | Sos of { timing : float; value : float }
      (** transmits with marginal timing/signal: receivers disagree on
          validity *)
  | Babbling of { in_slot : int }
      (** additionally transmits (noise-like traffic) in a slot it does
          not own *)
  | Bad_cstate of { time_offset : int }
      (** transmits frames whose C-state time is wrong by the offset *)
  | Masquerade of { as_slot : int }
      (** cold-start frames claim a different round slot, impersonating
          another node during startup *)

let to_string = function
  | Healthy -> "healthy"
  | Crashed -> "crashed"
  | Sos { timing; value } -> Printf.sprintf "sos(t=%.2f,v=%.2f)" timing value
  | Babbling { in_slot } -> Printf.sprintf "babbling(slot=%d)" in_slot
  | Bad_cstate { time_offset } -> Printf.sprintf "bad-cstate(+%d)" time_offset
  | Masquerade { as_slot } -> Printf.sprintf "masquerade(slot=%d)" as_slot

let of_string ~nodes ~node = function
  | "none" -> Some Healthy
  | "crash" -> Some Crashed
  | "sos" -> Some (Sos { timing = 0.5; value = 0.0 })
  | "babbling" -> Some (Babbling { in_slot = (node + 1) mod nodes })
  | "bad-cstate" -> Some (Bad_cstate { time_offset = 7 })
  | "masquerade" -> Some (Masquerade { as_slot = (node + 1) mod nodes })
  | _ -> None

(* Apply the fault to what the healthy controller wanted to transmit in
   its own slot. Returns the (possibly modified) attempt. *)
let distort fault ~sender ~channel frame =
  let mk ?(sos_timing = 0.0) ?(sos_value = 0.0) f =
    let crc = Frame.crc_of ~channel f in
    { (Guardian.Coupler.clean_attempt ~sender ~frame:f ~crc) with sos_timing; sos_value }
  in
  match fault with
  | Healthy -> Some (mk frame)
  | Crashed -> None
  | Sos { timing; value } -> Some (mk ~sos_timing:timing ~sos_value:value frame)
  | Babbling _ -> Some (mk frame)
  | Bad_cstate { time_offset } ->
      let cs = frame.Frame.cstate in
      let f' =
        Frame.with_cstate frame
          {
            cs with
            Cstate.global_time =
              (cs.Cstate.global_time + time_offset) land 0xFFFF;
          }
      in
      Some (mk f')
  | Masquerade { as_slot } -> (
      match frame.Frame.kind with
      | Frame.Cold_start ->
          let cs = frame.Frame.cstate in
          let f' =
            Frame.with_cstate frame { cs with Cstate.round_slot = as_slot }
          in
          Some (mk f')
      | Frame.N | Frame.I | Frame.X -> Some (mk frame))

(* Extra transmissions the fault generates outside the node's own slot
   (the babbling idiot). [slot] is the cluster's current slot. *)
let extra_attempt fault ~sender ~channel ~slot ~cstate =
  match fault with
  | Babbling { in_slot } when slot = in_slot && in_slot <> sender ->
      let f = Frame.make ~kind:Frame.N ~sender ~cstate () in
      let crc = Frame.crc_of ~channel f lxor 0x1 (* garbled *) in
      Some { (Guardian.Coupler.clean_attempt ~sender ~frame:f ~crc) with sos_value = 0.0 }
  | Babbling _ | Healthy | Crashed | Sos _ | Bad_cstate _ | Masquerade _ ->
      None
