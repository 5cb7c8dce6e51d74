(* Tests for the cluster simulator: fault-free startup across feature
   sets, tolerance of single passive coupler faults, the SOS clique
   split on low-authority hubs (and its suppression by reshaping
   guardians), babbling-idiot containment, the out-of-slot replay
   failure, scenario scripting, and campaign aggregation. *)

open Ttp

let medl = Medl.uniform ~nodes:4 ()

let fresh ?(feature_set = Guardian.Feature_set.Time_windows) () =
  Sim.Cluster.create ~feature_set medl

let boot_ok cluster =
  Alcotest.(check bool) "boot completes" true (Sim.Cluster.boot cluster)

let clique_freezes cluster =
  List.filter
    (fun (_, _, reason) -> reason = Controller.Clique_error)
    (Sim.Event_log.freezes (Sim.Cluster.log cluster))

let test_boot_all_feature_sets () =
  List.iter
    (fun feature_set ->
      let c = fresh ~feature_set () in
      Alcotest.(check bool)
        (Guardian.Feature_set.to_string feature_set)
        true (Sim.Cluster.boot c))
    Guardian.Feature_set.all

let test_boot_membership_converges () =
  let c = fresh () in
  boot_ok c;
  Sim.Cluster.run c ~slots:8;
  for i = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "node %d sees full membership" i)
      0xF
      (Membership.to_int (Controller.membership (Sim.Cluster.controller c i)))
  done

let test_boot_cstates_agree () =
  let c = fresh () in
  boot_ok c;
  Sim.Cluster.run c ~slots:5;
  let cs0 = Controller.cstate (Sim.Cluster.controller c 0) in
  for i = 1 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "node %d C-state equals node 0's" i)
      true
      (Cstate.equal cs0 (Controller.cstate (Sim.Cluster.controller c i)))
  done

let test_single_passive_fault_tolerated () =
  List.iter
    (fun fault ->
      let c = fresh () in
      boot_ok c;
      Sim.Cluster.set_coupler_fault c ~channel:0 fault;
      Sim.Cluster.run c ~slots:32;
      Alcotest.(check int)
        (Guardian.Fault.to_string fault ^ " on one channel: nobody freezes")
        0
        (List.length (Sim.Event_log.freezes (Sim.Cluster.log c)));
      Alcotest.(check int)
        (Guardian.Fault.to_string fault ^ ": all still active")
        4
        (Sim.Cluster.count_in_state c Controller.Active))
    [ Guardian.Fault.Silence; Guardian.Fault.Bad_frame ]

let test_fault_recovery () =
  (* The channel fault clears: the cluster keeps operating as if
     nothing happened. *)
  let c = fresh () in
  boot_ok c;
  Sim.Cluster.set_coupler_fault c ~channel:1 Guardian.Fault.Silence;
  Sim.Cluster.run c ~slots:8;
  Sim.Cluster.set_coupler_fault c ~channel:1 Guardian.Fault.Healthy;
  Sim.Cluster.run c ~slots:8;
  Alcotest.(check int) "all active" 4
    (Sim.Cluster.count_in_state c Controller.Active)

(* The SOS experiment (Section 2.2 / Ademaj et al.): a node with
   marginal output splits the receivers' judgments on a low-authority
   hub, membership diverges, and clique avoidance expels a healthy
   node. A reshaping guardian removes the disagreement. *)
let sos_run feature_set =
  let c = fresh ~feature_set () in
  boot_ok c;
  Sim.Cluster.set_node_fault c ~node:1
    (Sim.Node_fault.Sos { timing = 0.5; value = 0.0 });
  Sim.Cluster.run c ~slots:32;
  c

let test_sos_splits_clique_without_reshaping () =
  let c = sos_run Guardian.Feature_set.Time_windows in
  Alcotest.(check bool) "some healthy node expelled" true
    (clique_freezes c <> []);
  (* The SOS sender itself keeps running: the victims are its
     better-tolerance peers. *)
  Alcotest.(check bool) "the marginal sender survives" true
    (Controller.state (Sim.Cluster.controller c 1) = Controller.Active)

let test_sos_reshaped_by_small_shifting () =
  let c = sos_run Guardian.Feature_set.Small_shifting in
  Alcotest.(check int) "nobody freezes behind a reshaping guardian" 0
    (List.length (Sim.Event_log.freezes (Sim.Cluster.log c)))

let test_babbling_contained_by_time_windows () =
  let c = fresh () in
  boot_ok c;
  Sim.Cluster.set_node_fault c ~node:3 (Sim.Node_fault.Babbling { in_slot = 1 });
  Sim.Cluster.run c ~slots:32;
  Alcotest.(check int) "nobody freezes" 0
    (List.length (Sim.Event_log.freezes (Sim.Cluster.log c)));
  Alcotest.(check int) "all active" 4
    (Sim.Cluster.count_in_state c Controller.Active)

let test_node_fault_of_string () =
  let parse ?(nodes = 4) ~node name =
    Option.map Sim.Node_fault.to_string
      (Sim.Node_fault.of_string ~nodes ~node name)
  in
  Alcotest.(check (option string)) "none is healthy" (Some "healthy")
    (parse ~node:0 "none");
  Alcotest.(check (option string)) "babbling aims at the next slot"
    (Some "babbling(slot=2)") (parse ~node:1 "babbling");
  Alcotest.(check (option string)) "masquerade wraps at 3 nodes"
    (Some "masquerade(slot=0)")
    (parse ~nodes:3 ~node:2 "masquerade");
  Alcotest.(check (option string)) "babbling wraps at 4 nodes"
    (Some "babbling(slot=0)") (parse ~node:3 "babbling");
  Alcotest.(check (option string)) "unknown name" None (parse ~node:0 "melt")

let test_crashed_node_removed_from_membership () =
  let c = fresh () in
  boot_ok c;
  Sim.Cluster.set_node_fault c ~node:2 Sim.Node_fault.Crashed;
  Sim.Cluster.run c ~slots:16;
  let m = Controller.membership (Sim.Cluster.controller c 0) in
  Alcotest.(check bool) "node 2 expelled from membership" false
    (Membership.mem m 2);
  Alcotest.(check bool) "others retained" true
    (Membership.mem m 0 && Membership.mem m 1 && Membership.mem m 3);
  Alcotest.(check int) "survivors stay active" 3
    (Sim.Cluster.count_in_state c Controller.Active)

(* The headline failure: an out-of-slot replay hitting a node's
   re-integration window gets the healthy node expelled. *)
let replay_into_reintegration () =
  let c = fresh ~feature_set:Guardian.Feature_set.Full_shifting () in
  boot_ok c;
  Controller.host_freeze (Sim.Cluster.controller c 3);
  let aligned =
    Sim.Cluster.run_until c ~max_slots:12 (fun c ->
        Controller.slot (Sim.Cluster.controller c 0) = 2
        && Controller.state (Sim.Cluster.controller c 0) = Controller.Active)
  in
  Alcotest.(check bool) "alignment reached" true aligned;
  Sim.Cluster.start_node c 3;
  Sim.Cluster.run c ~slots:1;
  Sim.Cluster.set_coupler_fault c ~channel:1 Guardian.Fault.Out_of_slot;
  Sim.Cluster.run c ~slots:1;
  Sim.Cluster.set_coupler_fault c ~channel:1 Guardian.Fault.Healthy;
  c

let test_replay_freezes_reintegrating_node () =
  let c = replay_into_reintegration () in
  (* Node 3 integrated on the stale replay... *)
  Alcotest.(check bool) "victim integrated on the replay" true
    (Controller.state (Sim.Cluster.controller c 3) = Controller.Passive);
  Sim.Cluster.run c ~slots:16;
  (* ...and is expelled by clique avoidance, while the others survive. *)
  Alcotest.(check bool) "victim frozen with a clique error" true
    (Controller.freeze_cause (Sim.Cluster.controller c 3)
    = Some Controller.Clique_error);
  Alcotest.(check int) "the three others stay active" 3
    (Sim.Cluster.count_in_state c Controller.Active)

let test_replay_in_steady_state_tolerated () =
  (* Integrated nodes recognize the replayed frame as incorrect; the
     replay only hurts integrating nodes. *)
  let c = fresh ~feature_set:Guardian.Feature_set.Full_shifting () in
  boot_ok c;
  Sim.Cluster.run c ~slots:2;
  Sim.Cluster.set_coupler_fault c ~channel:1 Guardian.Fault.Out_of_slot;
  Sim.Cluster.run c ~slots:2;
  Sim.Cluster.set_coupler_fault c ~channel:1 Guardian.Fault.Healthy;
  Sim.Cluster.run c ~slots:16;
  Alcotest.(check int) "all still active" 4
    (Sim.Cluster.count_in_state c Controller.Active)

let test_mode_change_propagates () =
  let c = fresh () in
  boot_ok c;
  Sim.Cluster.run c ~slots:4;
  Controller.host_request_mode_change (Sim.Cluster.controller c 1) 3;
  (* Within two rounds: node 1 transmits the request, everyone
     schedules it, and the whole cluster switches at the cycle
     boundary. *)
  Sim.Cluster.run c ~slots:8;
  for i = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "node %d in mode 3" i)
      3
      (Controller.cstate (Sim.Cluster.controller c i)).Cstate.mode
  done;
  Alcotest.(check int) "no freezes during the switch" 0
    (List.length (Sim.Event_log.freezes (Sim.Cluster.log c)));
  (* C-states (mode included) still agree afterwards. *)
  let cs0 = Controller.cstate (Sim.Cluster.controller c 0) in
  for i = 1 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "node %d C-state agrees" i)
      true
      (Cstate.equal cs0 (Controller.cstate (Sim.Cluster.controller c i)))
  done

let test_ack_graceful_degradation_on_bus () =
  (* With acknowledgment enabled, a node whose transmissions are being
     eaten (its local guardian stuck closed) discovers the failure
     itself and steps down to passive — instead of drifting into a
     clique error as in the default configuration. *)
  let config = { Controller.default_config with Controller.ack_enabled = true } in
  let b = Sim.Bus.create ~config (Medl.uniform ~nodes:4 ()) in
  Alcotest.(check bool) "boots" true (Sim.Bus.boot b);
  Sim.Bus.set_guardian_fault b ~node:2 Sim.Bus.G_stuck_closed;
  Sim.Bus.run b ~slots:40;
  let victim = Sim.Bus.controller b 2 in
  (* First failed acknowledgment: step down and retry; second: freeze
     with the accurate self-diagnosis (no misleading clique error). *)
  Alcotest.(check bool) "victim diagnosed its own transmit fault" true
    (Controller.freeze_cause victim = Some Controller.Ack_failure);
  Alcotest.(check int) "after two consecutive failures" 2
    (Controller.ack_failures victim);
  Alcotest.(check int) "others unaffected" 3
    (Sim.Bus.count_in_state b Controller.Active);
  Alcotest.(check bool) "no clique errors anywhere" true
    (List.for_all
       (fun (_, _, r) -> r <> Controller.Clique_error)
       (Sim.Event_log.freezes (Sim.Bus.log b)))

(* ------------------------------------------------------------------ *)
(* Scenario scripting *)

let test_scenario_ordering () =
  let c = fresh () in
  let hits = ref [] in
  let scenario =
    [
      Sim.Scenario.at 0 Sim.Scenario.Start_all;
      Sim.Scenario.at 5
        (Sim.Scenario.Custom (fun _ -> hits := 5 :: !hits));
      Sim.Scenario.at 2
        (Sim.Scenario.Custom (fun _ -> hits := 2 :: !hits));
    ]
  in
  Sim.Scenario.run scenario c ~slots:8;
  Alcotest.(check (list int)) "actions applied in slot order" [ 5; 2 ] !hits;
  Alcotest.(check int) "cluster actually ran" 8 (Sim.Cluster.slots_elapsed c)

let test_scenario_fault_injection () =
  let c = fresh ~feature_set:Guardian.Feature_set.Full_shifting () in
  let scenario =
    [
      Sim.Scenario.at 0 Sim.Scenario.Start_all;
      Sim.Scenario.at 20
        (Sim.Scenario.Coupler_fault
           { channel = 0; fault = Guardian.Fault.Silence });
      Sim.Scenario.at 24
        (Sim.Scenario.Coupler_fault
           { channel = 0; fault = Guardian.Fault.Healthy });
    ]
  in
  Sim.Scenario.run scenario c ~slots:40;
  let log = Sim.Cluster.log c in
  let fault_events =
    List.filter
      (fun { Sim.Event_log.event; _ } ->
        match event with
        | Sim.Event_log.Coupler_fault_set _ -> true
        | _ -> false)
      (Sim.Event_log.entries log)
  in
  Alcotest.(check int) "both fault events logged" 2 (List.length fault_events);
  Alcotest.(check int) "cluster survived" 4
    (Sim.Cluster.count_in_state c Controller.Active)

(* ------------------------------------------------------------------ *)
(* Statistics *)

let test_stats_clean_run () =
  let c = fresh () in
  boot_ok c;
  Sim.Cluster.run c ~slots:20;
  let stats = Sim.Stats.of_cluster c in
  Alcotest.(check int) "slot count matches" (Sim.Cluster.slots_elapsed c)
    stats.Sim.Stats.total_slots;
  Array.iter
    (fun (n : Sim.Stats.node_summary) ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d ends active" n.Sim.Stats.node)
        true
        (n.Sim.Stats.final_state = Controller.Active);
      Alcotest.(check int) "no freezes" 0 n.Sim.Stats.freezes;
      Alcotest.(check bool) "integrated at some point" true
        (n.Sim.Stats.first_integrated_at <> None);
      Alcotest.(check bool) "active time within sync time" true
        (n.Sim.Stats.active_slots <= n.Sim.Stats.synchronized_slots))
    stats.Sim.Stats.per_node;
  (* Startup costs a bounded prefix; after it everyone is up. *)
  Alcotest.(check bool) "availability reflects startup + steady state" true
    (stats.Sim.Stats.availability > 0.4 && stats.Sim.Stats.availability < 1.0)

let test_stats_counts_freezes () =
  let c = replay_into_reintegration () in
  Sim.Cluster.run c ~slots:16;
  let stats = Sim.Stats.of_cluster c in
  let victim = stats.Sim.Stats.per_node.(3) in
  Alcotest.(check bool) "victim frozen at the end" true
    (victim.Sim.Stats.final_state = Controller.Freeze);
  Alcotest.(check bool) "clique freeze recorded" true
    (victim.Sim.Stats.clique_freezes >= 1);
  (* The victim still accrued some synchronized time before and after
     the replay hit. *)
  Alcotest.(check bool) "nonzero uptime" true
    (victim.Sim.Stats.synchronized_slots > 0);
  Alcotest.(check bool) "lower availability than survivors" true
    (victim.Sim.Stats.synchronized_slots
    < stats.Sim.Stats.per_node.(0).Sim.Stats.synchronized_slots)

(* ------------------------------------------------------------------ *)
(* Campaigns *)

let test_campaign_safe_feature_sets () =
  List.iter
    (fun feature_set ->
      let outcomes = Sim.Campaign.run ~feature_set ~nodes:4 ~trials:10 () in
      let s = Sim.Campaign.summarize outcomes in
      Alcotest.(check int)
        (Guardian.Feature_set.to_string feature_set ^ ": trials")
        10 s.Sim.Campaign.trials;
      Alcotest.(check int)
        (Guardian.Feature_set.to_string feature_set
        ^ ": no healthy node ever freezes")
        0 s.Sim.Campaign.with_healthy_freeze;
      Alcotest.(check int)
        (Guardian.Feature_set.to_string feature_set ^ ": cluster survives")
        0 s.Sim.Campaign.with_cluster_loss)
    [
      Guardian.Feature_set.Passive;
      Guardian.Feature_set.Time_windows;
      Guardian.Feature_set.Small_shifting;
    ]

let test_campaign_deterministic_per_seed () =
  let run () =
    Sim.Campaign.run ~feature_set:Guardian.Feature_set.Full_shifting ~nodes:4
      ~trials:5 ()
  in
  Alcotest.(check bool) "same seeds, same outcomes" true (run () = run ())

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sim"
    [
      ( "startup",
        [
          Alcotest.test_case "boot under every feature set" `Quick
            test_boot_all_feature_sets;
          Alcotest.test_case "membership converges" `Quick
            test_boot_membership_converges;
          Alcotest.test_case "C-states agree" `Quick test_boot_cstates_agree;
        ] );
      ( "coupler faults",
        [
          Alcotest.test_case "single passive fault tolerated" `Quick
            test_single_passive_fault_tolerated;
          Alcotest.test_case "recovery after fault clears" `Quick
            test_fault_recovery;
          Alcotest.test_case "replay freezes re-integrating node" `Quick
            test_replay_freezes_reintegrating_node;
          Alcotest.test_case "replay tolerated in steady state" `Quick
            test_replay_in_steady_state_tolerated;
        ] );
      ( "node faults",
        [
          Alcotest.test_case "SOS splits clique without reshaping" `Quick
            test_sos_splits_clique_without_reshaping;
          Alcotest.test_case "SOS reshaped by small shifting" `Quick
            test_sos_reshaped_by_small_shifting;
          Alcotest.test_case "babbling contained by time windows" `Quick
            test_babbling_contained_by_time_windows;
          Alcotest.test_case "fault names parse" `Quick
            test_node_fault_of_string;
          Alcotest.test_case "crash removed from membership" `Quick
            test_crashed_node_removed_from_membership;
          Alcotest.test_case "mode change propagates" `Quick
            test_mode_change_propagates;
          Alcotest.test_case "ack graceful degradation" `Quick
            test_ack_graceful_degradation_on_bus;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "action ordering" `Quick test_scenario_ordering;
          Alcotest.test_case "fault injection script" `Quick
            test_scenario_fault_injection;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "clean run" `Quick test_stats_clean_run;
          Alcotest.test_case "counts freezes" `Quick test_stats_counts_freezes;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "safe feature sets" `Quick
            test_campaign_safe_feature_sets;
          Alcotest.test_case "deterministic per seed" `Quick
            test_campaign_deterministic_per_seed;
        ] );
    ]
