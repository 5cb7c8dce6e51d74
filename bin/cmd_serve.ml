(* The verification daemon: a long-running server answering JSON-lines
   verification requests over a Unix-domain or TCP socket.

   Examples:
     tta serve --socket /tmp/tta.sock
     tta serve --socket 127.0.0.1:7171 --workers 2 --queue-cap 16
     tta serve --socket /tmp/tta.sock --cache-dir _cache \
               --cache-max-entries 256 --trace served_trace.json

   Protocol, scheduling and shutdown semantics: doc/service.md.
   Send SIGTERM (or SIGINT) for a graceful drain. *)

let main addr workers queue_cap cache sessions session_cap grace chaos obs =
  let faults = Cli.faults_of_chaos chaos in
  let cache = cache faults in
  let session_pool =
    if sessions then Some (Sessions.create ~capacity:session_cap ())
    else None
  in
  Service.Server.serve ?cache ?sessions:session_pool ~workers ~queue_cap
    ?obs:(Cli.obs_collector obs) ~faults ~grace
    ~on_ready:(fun srv ->
      (* Machine-readable readiness first — supervisors (the cluster
         router, CI scripts) parse this one line to learn the bound
         address, including a kernel-assigned port for --socket HOST:0.
         The human-oriented banner follows. *)
      let bound = Service.Server.bound_addr srv in
      Cli.print_ready bound;
      Printf.printf "tta_served: listening on %s (%d workers, queue cap %d)%s\n%!"
        (Service.Server.addr_to_string bound)
        workers queue_cap
        (if Resilience.Faults.enabled faults then
           " [chaos " ^ Resilience.Faults.to_spec faults ^ "]"
         else ""))
    addr;
  (* serve returned: a signal triggered the drain. *)
  (match session_pool with
  | Some p ->
      let s = Sessions.stats p in
      Printf.printf
        "sessions: %d hits, %d misses (%d family mismatches), %d evicted, %d \
         discarded, %d warm\n"
        s.Sessions.hits s.Sessions.misses s.Sessions.mismatches
        s.Sessions.evictions s.Sessions.discards s.Sessions.idle
  | None -> ());
  Option.iter Cli.print_cache_stats cache;
  Cli.print_chaos faults;
  Cli.obs_finish obs;
  Printf.printf "tta_served: drained, bye\n%!";
  0

let cmd =
  let open Cmdliner in
  let workers =
    Arg.(
      value
      & opt int (Portfolio.Pool.default_domains ())
      & info [ "w"; "workers" ] ~docv:"N"
          ~doc:"Verification worker domains (default: all cores).")
  in
  let session_cap =
    Arg.(
      value & opt int 32
      & info [ "session-cap" ] ~docv:"N"
          ~doc:"Idle warm sessions kept before LRU eviction (with --sessions).")
  in
  let grace =
    Arg.(
      value & opt float 5.0
      & info [ "grace" ] ~docv:"SECONDS"
          ~doc:
            "Drain grace period: on SIGTERM, in-flight runs are \
             force-cancelled after this long.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-running TTA verification daemon (JSON lines over a socket)")
    Term.(
      const main
      $ Cli.socket
          ~doc:
            "Listen address: a Unix-domain socket path, or HOST:PORT for \
             TCP."
          ()
      $ workers $ Cli.queue_cap () $ Cli.cache () $ Cli.sessions ()
      $ session_cap $ grace $ Cli.chaos () $ Cli.obs ())
