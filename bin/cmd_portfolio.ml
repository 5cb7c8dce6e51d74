(* Portfolio-verify the paper's configuration matrix on multiple cores.

   Examples:
     tta portfolio                          # Section 5 matrix, all cores
     tta portfolio --nodes 3 --domains 2    # reduced scale, two workers
     tta portfolio --race -c full-shifting  # race all four engines
     tta portfolio --json telemetry.json    # dump the run telemetry
     tta portfolio --trace trace.json       # Chrome trace of every run

   Verdicts are cached under _cache/ (keyed by a content hash of the
   compiled model plus engine parameters), so a re-run only re-checks
   what changed; --no-cache forces cold runs. *)

let run_race ~config_name ~nodes ~depth ~engines ~cache ~telemetry ~obs
    ~faults ~reach_tuning =
  (* The Section 5 instance, not [Configs.make]: full-shifting carries
     the paper's one-error out-of-slot budget. *)
  let cfg =
    Tta_model.Configs.section5 ~nodes (Cli.feature_set_of_config config_name)
  in
  Printf.printf "racing %s on %s (%d nodes), depth bound %d\n%!"
    (String.concat " vs "
       (List.map Tta_model.Engine.id_to_string engines))
    (Tta_model.Configs.name cfg)
    nodes depth;
  let r =
    Portfolio.race ?cache ~telemetry ?obs:(Cli.obs_collector obs) ~faults
      ~engines ~max_depth:depth ~reach_tuning cfg
  in
  List.iter
    (fun (e, msg) ->
      Printf.printf "  %-16s FAILED     %s\n"
        (Tta_model.Engine.id_to_string e)
        msg)
    r.Portfolio.failures;
  List.iter
    (fun (e, v, wall) ->
      Printf.printf "  %-16s %-9s %.2fs%s\n"
        (Tta_model.Engine.id_to_string e)
        (Portfolio.Telemetry.outcome_to_string
           (Portfolio.Telemetry.outcome_of_verdict v))
        wall
        (if e = r.Portfolio.engine then "  <- selected (priority)"
         else ""))
    r.Portfolio.runs;
  if r.Portfolio.cache_hit then
    Printf.printf "  (cache hit: verdict served from %s)\n"
      (Tta_model.Engine.id_to_string r.Portfolio.engine);
  Printf.printf "winner: %s in %.2fs\n"
    (Tta_model.Engine.id_to_string r.Portfolio.engine)
    r.Portfolio.wall_s;
  Cli.print_verdict ~nodes r.Portfolio.verdict;
  match r.Portfolio.verdict with
  | Tta_model.Engine.Unknown _ -> 1
  | _ -> 0

let run_matrix ~nodes ~domains ~safe_depth ~unsafe_depth ~cache ~telemetry
    ~obs ~faults ~reach_tuning =
  let jobs =
    Portfolio.section5_jobs ~nodes ?safe_depth ?unsafe_depth ()
  in
  Printf.printf
    "Section 5 matrix at %d nodes: %d jobs across %d domain(s)%s\n%!" nodes
    (List.length jobs) domains
    (match cache with
    | Some c -> Printf.sprintf ", cache at %s/" (Portfolio.Cache.dir c)
    | None -> ", cache disabled");
  let t0 = Unix.gettimeofday () in
  let results =
    Portfolio.run_matrix ~domains ?cache ~telemetry
      ?obs:(Cli.obs_collector obs) ~faults ~reach_tuning jobs
  in
  let dt = Unix.gettimeofday () -. t0 in
  let failures = ref 0 in
  List.iter
    (fun (j, r) ->
      let ok =
        match r.Portfolio.verdict with
        | Tta_model.Engine.Unknown _ ->
            incr failures;
            false
        | _ -> true
      in
      Printf.printf "  %-36s %-9s %7.2fs %s%s\n" j.Portfolio.label
        (Portfolio.Telemetry.outcome_to_string
           (Portfolio.Telemetry.outcome_of_verdict r.Portfolio.verdict))
        r.Portfolio.wall_s
        (if r.Portfolio.cache_hit then "[cache]" else "")
        (if ok then "" else "  <- no verdict"))
    results;
  Printf.printf "matrix wall clock: %.2fs\n" dt;
  !failures

let main config_name race nodes depth safe_depth unsafe_depth domains
    engines_s cache reach_tuning json_path chaos obs =
  let engines = Cli.engine_ids_of_names engines_s in
  let faults = Cli.faults_of_chaos chaos in
  let cache = cache faults in
  let telemetry = Portfolio.Telemetry.create () in
  let failures =
    if race || config_name <> "" then
      let config_name = if config_name = "" then "full-shifting" else config_name in
      run_race ~config_name ~nodes ~depth ~engines ~cache ~telemetry ~obs
        ~faults ~reach_tuning
    else
      run_matrix ~nodes ~domains ~safe_depth ~unsafe_depth ~cache ~telemetry
        ~obs ~faults ~reach_tuning
  in
  print_newline ();
  Format.printf "%a" Portfolio.Telemetry.pp_table telemetry;
  Option.iter Cli.print_cache_stats cache;
  Cli.print_chaos faults;
  Cli.write_json ~what:"telemetry" json_path
    (Portfolio.Telemetry.to_json telemetry);
  Cli.obs_finish obs;
  if failures = 0 then 0 else 1

let cmd =
  let open Cmdliner in
  let config =
    Arg.(
      value & opt string ""
      & info
          [ "c"; "config"; "f"; "feature-set" ]
          ~docv:"CONFIG"
          ~doc:
            "Race the engines on one feature set (passive, time-windows, \
             small-shifting, full-shifting) instead of running the matrix.")
  in
  let race =
    Arg.(
      value & flag
      & info [ "race" ]
          ~doc:
            "Engine-racing mode (implied by $(b,--config)); defaults to \
             full-shifting.")
  in
  let safe_depth =
    Arg.(
      value & opt (some int) None
      & info [ "safe-depth" ] ~docv:"K"
          ~doc:"Matrix mode: iteration bound for the safe rows (default 100).")
  in
  let unsafe_depth =
    Arg.(
      value & opt (some int) None
      & info [ "unsafe-depth" ] ~docv:"K"
          ~doc:"Matrix mode: bound for the violated rows (default 100).")
  in
  Cmd.v
    (Cmd.info "portfolio"
       ~doc:"Multicore portfolio verification of the TTA star-coupler matrix")
    Term.(
      const main $ config $ race $ Cli.nodes ()
      $ Cli.depth ~default:100 ()
      $ safe_depth $ unsafe_depth $ Cli.domains () $ Cli.engines ()
      $ Cli.cache () $ Cli.reach_tuning () $ Cli.json () $ Cli.chaos ()
      $ Cli.obs ())
