(* Model-check the TTA star-coupler configurations of the paper.

   Examples:
     tta mc --config full-shifting            # expect a counterexample
     tta mc --config passive --engine bdd     # expect a safety proof
     tta mc --config full-shifting --no-cold-start-duplication
     tta mc --engine bdd --trace run.json     # Chrome trace of the run
*)

let run config_name engine_name nodes max_depth no_cs_dup oos_budget
    reach_tuning export_smv json_path obs =
  let feature_set = Cli.feature_set_of_config config_name in
  let engine = Cli.engine_of_name engine_name in
  let cfg =
    Tta_model.Configs.make ~nodes
      ?oos_budget:
        (if feature_set = Guardian.Feature_set.Full_shifting then oos_budget
         else None)
      ~forbid_cold_start_duplication:no_cs_dup feature_set
  in
  Printf.printf "configuration: %s (%d nodes)\n" (Tta_model.Configs.name cfg)
    nodes;
  (match export_smv with
  | Some path ->
      Tta_model.Engine.export_smv cfg path;
      Printf.printf "model exported to %s (SMV input language)\n" path
  | None -> ());
  Printf.printf "engine: %s, depth bound %d\n%!" engine.Tta_model.Engine.name
    max_depth;
  let t0 = Unix.gettimeofday () in
  let r =
    engine.Tta_model.Engine.run
      ~obs:(Cli.obs_track obs ("mc/" ^ engine.Tta_model.Engine.name))
      ~max_depth ~reach_tuning cfg
  in
  let dt = Unix.gettimeofday () -. t0 in
  Cli.print_verdict ~nodes r.Tta_model.Engine.verdict;
  Printf.printf "elapsed: %.2fs\n" dt;
  let verdict, detail =
    match r.Tta_model.Engine.verdict with
    | Tta_model.Engine.Holds { detail } -> ("holds", detail)
    | Tta_model.Engine.Unknown { detail } -> ("unknown", detail)
    | Tta_model.Engine.Violated { trace; _ } ->
        ( "violated",
          Printf.sprintf "counterexample of %d steps" (Array.length trace) )
  in
  Cli.write_json ~what:"results" json_path
    (Json.Obj
       [
         ("config", Json.String (Tta_model.Configs.name cfg));
         ("engine", Json.String engine.Tta_model.Engine.name);
         ("nodes", Json.Int nodes);
         ("max_depth", Json.Int max_depth);
         ("wall_s", Json.Float dt);
         ("verdict", Json.String verdict);
         ("detail", Json.String detail);
         ( "counters",
           Json.Obj
             (List.map
                (fun (n, v) -> (n, Json.Int v))
                r.Tta_model.Engine.counters) );
       ]);
  Cli.obs_finish obs;
  0

let cmd =
  let open Cmdliner in
  let export_smv =
    Arg.(
      value
      & opt (some string) None
      & info [ "export-smv" ] ~docv:"FILE"
          ~doc:
            "Also write the model to FILE in the SMV input language \
             (NuSMV dialect), with the property as an INVARSPEC.")
  in
  let no_cs_dup =
    Arg.(
      value & flag
      & info
          [ "no-cold-start-duplication" ]
          ~doc:
            "Prohibit replaying buffered cold-start frames (forces the \
             paper's second counterexample).")
  in
  let oos_budget =
    Arg.(
      value
      & opt (some int) (Some 1)
      & info [ "oos-budget" ] ~docv:"K"
          ~doc:
            "Limit on out-of-slot errors for full-shifting couplers \
             (paper: 1).")
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:"Model-check TTA star-coupler fault-tolerance configurations")
    Term.(
      const run $ Cli.config () $ Cli.engine () $ Cli.nodes () $ Cli.depth ()
      $ no_cs_dup $ oos_budget $ Cli.reach_tuning () $ export_smv $ Cli.json ()
      $ Cli.obs ())
