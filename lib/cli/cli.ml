(* Shared command-line vocabulary — see the interface. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Common flag terms *)

let config ?(default = "full-shifting") () =
  Arg.(
    value & opt string default
    & info
        [ "c"; "config"; "f"; "feature-set" ]
        ~docv:"CONFIG"
        ~doc:
          "Star-coupler feature set: passive, time-windows, small-shifting, \
           or full-shifting.")

let engine ?(default = "bmc") () =
  Arg.(
    value & opt string default
    & info [ "e"; "engine" ] ~docv:"ENGINE"
        ~doc:
          "Verification engine: bdd (reachability), bmc (SAT), induction \
           (SAT k-induction), or explicit (BFS).")

let engines ?(default = "bdd,explicit,induction,bmc") () =
  Arg.(
    value & opt string default
    & info [ "engines" ] ~docv:"LIST"
        ~doc:"Comma-separated engines to race: bdd, bmc, induction, explicit.")

let nodes ?(default = 4) () =
  Arg.(
    value & opt int default
    & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Cluster size (paper: 4).")

let depth ?(default = 24) () =
  Arg.(
    value & opt int default
    & info [ "d"; "depth" ] ~docv:"K"
        ~doc:"Unrolling/iteration bound for the engines.")

let json () =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write the machine-readable results to FILE as JSON.")

let domains () =
  Arg.(
    value
    & opt int (Portfolio.Pool.default_domains ())
    & info [ "j"; "domains" ] ~docv:"N"
        ~doc:"Worker domains for the portfolio pool (default: all cores).")

let seed () =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Sampling seed.")

let reach_tuning () =
  let strategy =
    Arg.(
      value & opt string "bfs"
      & info [ "strategy" ] ~docv:"NAME"
          ~doc:
            "Fixpoint exploration strategy for the BDD engine: bfs \
             (breadth-first, the default) or saturation (guard-local \
             worklist sweeps). Both produce identical verdicts and \
             counterexample lengths.")
  in
  let tuning s =
    let strategy =
      match String.lowercase_ascii (String.trim s) with
      | "bfs" -> Symkit.Reach.Bfs
      | "saturation" -> Symkit.Reach.Saturation
      | _ ->
          prerr_endline
            ("unknown --strategy '" ^ s ^ "' (expected bfs | saturation)");
          exit 2
    in
    { Symkit.Reach.default_tuning with strategy }
  in
  Term.(const tuning $ strategy)

let chaos () =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"SEED[:SPEC]"
        ~doc:
          "Arm deterministic fault injection. SEED is an integer; the \
           optional SPEC is a comma-separated rule list such as \
           'engine_start=crash\\@0.2x4,cache_read=corrupt\\@0.25x4' \
           (points: engine_start, engine_step, cache_read, cache_write, \
           sock_send, sock_recv, link_send, link_recv; actions: crash, \
           corrupt, drop, stallMILLIS, delayMILLIS; \\@P caps the firing \
           probability, xN the total firings). A bare SEED uses a \
           built-in mixed-fault spec. The link_* points fire on the \
           cluster router's per-worker lines (drop loses a line, delay \
           defers it); elsewhere drop behaves as crash and delay as \
           stall. The cluster router arms the spec twice: on its own \
           registry (the link_* points) and on every worker daemon.")

(* ------------------------------------------------------------------ *)
(* Daemon flags *)

let addr_of_string ~flag s =
  match Service.Server.addr_of_string s with
  | Ok a -> a
  | Error e ->
      prerr_endline ("bad " ^ flag ^ " address '" ^ s ^ "': " ^ e);
      exit 2

let socket ~doc () =
  let s =
    Arg.(
      required
      & opt (some string) None
      & info [ "s"; "socket" ] ~docv:"ADDR" ~doc)
  in
  Term.(const (addr_of_string ~flag:"--socket") $ s)

let cache_dir () =
  Arg.(
    value & opt string "_cache"
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Verdict cache directory (the cluster router's workers share it \
           through the cache's advisory lock).")

let no_cache () =
  Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the verdict cache.")

let cache_max_entries () =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-max-entries" ] ~docv:"N"
        ~doc:
          "Cap the persistent verdict cache at N entries; the \
           least-recently-used entries are evicted first. Unbounded when \
           omitted.")

let cache () =
  let open_ dir disabled max_entries faults =
    if disabled then None
    else Some (Portfolio.Cache.create ~dir ?max_entries ~faults ())
  in
  Term.(const open_ $ cache_dir () $ no_cache () $ cache_max_entries ())

let queue_cap () =
  Arg.(
    value & opt int 64
    & info [ "queue-cap" ] ~docv:"N"
        ~doc:
          "Admission bound of each daemon: queued computations beyond N are \
           shed with an overloaded response.")

let sessions () =
  Arg.(
    value & flag
    & info [ "sessions" ]
        ~doc:
          "Keep a pool of warm incremental solver sessions in each daemon: \
           single-SAT-engine requests of a family they have seen reuse \
           unrolling and learned clauses instead of starting cold. \
           Consistent hashing sends a family to the same cluster worker, so \
           warm hits survive sharding.")

(* ------------------------------------------------------------------ *)
(* Uniform parsers *)

let feature_set_of_config s =
  match Guardian.Feature_set.of_string s with
  | Some fs -> fs
  | None ->
      prerr_endline
        ("unknown --config '" ^ s
       ^ "' (expected passive | time-windows | small-shifting | \
          full-shifting)");
      exit 2

let engine_of_name s =
  match Tta_model.Engine.of_string s with
  | Some e -> e
  | None ->
      prerr_endline
        ("unknown --engine '" ^ s
       ^ "' (expected bdd | bmc | induction | explicit)");
      exit 2

let engine_ids_of_names s =
  let parts =
    List.filter
      (fun p -> p <> "")
      (List.map String.trim (String.split_on_char ',' s))
  in
  let ids = List.map (fun p -> (engine_of_name p).Tta_model.Engine.id) parts in
  if ids = [] then begin
    prerr_endline "--engines: empty engine list";
    exit 2
  end;
  ids

let faults_of_chaos = function
  | None -> Resilience.Faults.disabled
  | Some spec -> (
      match Resilience.Faults.of_spec spec with
      | Ok f -> f
      | Error msg ->
          prerr_endline ("--chaos: " ^ msg);
          exit 2)

let index ~flag ~count i =
  if i < 0 || i >= count then begin
    Printf.eprintf "out-of-range %s '%d' (expected 0..%d)\n" flag i
      (count - 1);
    exit 2
  end;
  i

(* ------------------------------------------------------------------ *)
(* Shared report lines *)

let write_json ~what path j =
  Option.iter
    (fun path ->
      Json.to_file path j;
      Printf.printf "%s written to %s\n" what path)
    path

let print_ready bound =
  let port =
    match bound with
    | Service.Server.Tcp (_, port) -> [ ("port", Json.Int port) ]
    | Service.Server.Unix_socket _ -> []
  in
  print_string
    (Json.to_string
       (Json.Obj
          ([
             ("ready", Json.Bool true);
             ("socket", Json.String (Service.Server.addr_to_string bound));
           ]
          @ port))
    ^ "\n")

let print_chaos ?(scope = "") faults =
  if Resilience.Faults.enabled faults then begin
    Printf.printf "chaos: %sspec %s\n" scope (Resilience.Faults.to_spec faults);
    List.iter
      (fun (rule, n) -> Printf.printf "  %-28s fired %d\n" rule n)
      (Resilience.Faults.injections faults)
  end

let print_cache_stats c =
  Printf.printf
    "cache: %d hits, %d misses, %d entries, %d evicted, %d quarantined\n"
    (Portfolio.Cache.hits c) (Portfolio.Cache.misses c)
    (Portfolio.Cache.entries c)
    (Portfolio.Cache.evictions c)
    (Portfolio.Cache.quarantined c)

let print_verdict ~nodes = function
  | Tta_model.Engine.Holds { detail } ->
      Printf.printf "PROPERTY HOLDS: %s\n" detail
  | Tta_model.Engine.Unknown { detail } ->
      Printf.printf "UNDECIDED: %s\n" detail
  | Tta_model.Engine.Violated { trace; model } -> (
      Printf.printf
        "PROPERTY VIOLATED: a single coupler fault froze an integrated \
         node.\nCounterexample (%d steps):\n%s"
        (Array.length trace)
        (Tta_model.Engine.describe_trace model trace ~nodes);
      match Symkit.Trace.validate model trace with
      | Ok () -> Printf.printf "(trace replays cleanly against the model)\n"
      | Error e -> Printf.printf "WARNING: trace validation failed: %s\n" e)

(* ------------------------------------------------------------------ *)
(* Observability *)

type obs = {
  trace : string option;
  metrics : bool;
  collector : Obs.Collector.t option;
}

let obs () =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record spans and metrics and write a Chrome trace_event file \
             on exit (load it in chrome://tracing or Perfetto).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the collected metrics table on exit.")
  in
  let make trace metrics =
    let collector =
      if trace <> None || metrics then Some (Obs.Collector.create ())
      else None
    in
    { trace; metrics; collector }
  in
  Term.(const make $ trace $ metrics)

let obs_collector o = o.collector

let obs_track o name =
  match o.collector with
  | None -> Obs.disabled
  | Some col -> Obs.Collector.track col name

let obs_finish o =
  match o.collector with
  | None -> ()
  | Some col ->
      (match o.trace with
      | Some path ->
          Obs.Collector.write_chrome_trace col path;
          Printf.printf "trace written to %s (chrome://tracing)\n" path
      | None -> ());
      if o.metrics then Format.printf "%a" Obs.Collector.pp_table col
