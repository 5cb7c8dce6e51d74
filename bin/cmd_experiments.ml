(* Run the experiment registry: every reproduced result of the paper as
   a structured paper-vs-measured row (see DESIGN.md's per-experiment
   index and EXPERIMENTS.md for the recorded paper-scale outcomes).

     tta experiments                 # the fast set (numeric + simulator)
     tta experiments --all           # also the model-checking verdicts,
                                     # scheduled by the portfolio pool
     tta experiments --all --nodes 4 # paper-scale model checking
*)

let run all no_cache nodes domains json_path obs =
  let telemetry = Portfolio.Telemetry.create () in
  let outcomes =
    if all then begin
      Printf.printf
        "running the full registry at %d nodes (model checking on %d \
         domain(s), cached)...\n%!"
        nodes domains;
      let cache = if no_cache then None else Some (Portfolio.Cache.create ()) in
      Core.Experiments.all_portfolio ~nodes ~domains ?cache ~telemetry
        ?obs:(Cli.obs_collector obs) ()
    end
    else Core.Experiments.quick ()
  in
  let failures = ref 0 in
  List.iter
    (fun o ->
      if not o.Core.Experiments.matches then incr failures;
      Format.printf "%a@.@." Core.Experiments.pp_outcome o)
    outcomes;
  if Portfolio.Telemetry.records telemetry <> [] then
    Format.printf "%a@." Portfolio.Telemetry.pp_table telemetry;
  Cli.write_json ~what:"telemetry" json_path
    (Portfolio.Telemetry.to_json telemetry);
  Printf.printf "%d/%d experiments reproduced\n"
    (List.length outcomes - !failures)
    (List.length outcomes);
  Cli.obs_finish obs;
  if !failures = 0 then 0 else 1

let cmd =
  let open Cmdliner in
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Also run the model-checking experiments (E1-E5), scheduled by \
             the portfolio pool.")
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Reproduce every result of the paper as paper-vs-measured rows")
    Term.(
      const run $ all $ Cli.no_cache () $ Cli.nodes ~default:3 ()
      $ Cli.domains () $ Cli.json () $ Cli.obs ())
