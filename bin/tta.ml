(* The tta command: every tool of the reproduction as a subcommand.
   tta_served and tta_cluster remain as standalone spellings of
   [tta serve] and [tta cluster] (the router spawns tta_served workers). *)

let () =
  let open Cmdliner in
  let doc =
    "Fault-tolerance tradeoffs of TTA star couplers: model checking, \
     simulation, analysis and the verification service"
  in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "tta" ~doc)
          [
            Cmd_mc.cmd;
            Cmd_sim.cmd;
            Cmd_analysis.cmd;
            Cmd_experiments.cmd;
            Cmd_portfolio.cmd;
            Cmd_sat.cmd;
            Cmd_serve.cmd;
            Cmd_loadgen.cmd;
            Cmd_cluster.cmd;
            Cmd_synth.cmd;
          ]))
