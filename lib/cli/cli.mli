(** Shared command-line vocabulary for the [tta] subcommands.

    One place defines the flag spellings every subcommand uses —
    [--config] (alias [--feature-set]), [--engine]/[--engines],
    [--nodes], [--depth], [--json], [--trace]/[--metrics], the daemon
    and cache flags — and the report lines several of them print, plus
    the uniform parsers (which exit with code 2 and the same wording)
    and the observability plumbing that turns [--trace FILE] /
    [--metrics] into an {!Obs.Collector} and exports it on exit. *)

(** {1 Common flag terms} *)

val config : ?default:string -> unit -> string Cmdliner.Term.t
(** [-c]/[--config] (aliases [-f]/[--feature-set]): the star-coupler
    feature set. *)

val engine : ?default:string -> unit -> string Cmdliner.Term.t
(** [-e]/[--engine]: one verification engine ([bdd], [bmc],
    [induction], [explicit], or a long name). *)

val engines : ?default:string -> unit -> string Cmdliner.Term.t
(** [--engines]: a comma-separated engine list (for racing). *)

val nodes : ?default:int -> unit -> int Cmdliner.Term.t
(** [-n]/[--nodes]: cluster size (paper: 4). *)

val depth : ?default:int -> unit -> int Cmdliner.Term.t
(** [-d]/[--depth]: unrolling/iteration bound. *)

val json : unit -> string option Cmdliner.Term.t
(** [--json FILE]: machine-readable output. *)

val domains : unit -> int Cmdliner.Term.t
(** [-j]/[--domains N]: portfolio pool workers (default: all cores). *)

val seed : unit -> int Cmdliner.Term.t
(** [--seed SEED]: sampling seed (default 1). *)

val reach_tuning : unit -> Symkit.Reach.tuning Cmdliner.Term.t
(** [--strategy bfs|saturation]: {!Symkit.Reach.default_tuning} with
    the chosen fixpoint strategy (default [bfs]); exits with code 2 on
    unknown names. *)

val chaos : unit -> string option Cmdliner.Term.t
(** [--chaos SEED[:SPEC]]: arm deterministic fault injection (see
    {!Resilience.Faults.of_spec} for the grammar). Parse the result
    with {!faults_of_chaos}. *)

(** {1 Daemon flags} *)

val addr_of_string : flag:string -> string -> Service.Server.addr
(** Parse a socket address (a Unix-domain path or HOST:PORT) given to
    [flag]; exits with code 2 when it is malformed. *)

val socket : doc:string -> unit -> Service.Server.addr Cmdliner.Term.t
(** Required [-s]/[--socket ADDR], parsed by {!addr_of_string}. *)

val cache_dir : unit -> string Cmdliner.Term.t
(** [--cache-dir DIR] (default [_cache]). *)

val no_cache : unit -> bool Cmdliner.Term.t
(** [--no-cache]. *)

val cache_max_entries : unit -> int option Cmdliner.Term.t
(** [--cache-max-entries N]: cap the persistent verdict cache at [N]
    entries (LRU eviction); unbounded when omitted. *)

val cache :
  unit -> (Resilience.Faults.t -> Portfolio.Cache.t option) Cmdliner.Term.t
(** {!cache_dir}, {!no_cache} and {!cache_max_entries} together: applied
    to the tool's fault registry, the verdict cache they describe
    ([None] under [--no-cache]). *)

val queue_cap : unit -> int Cmdliner.Term.t
(** [--queue-cap N]: a daemon's admission bound (default 64). *)

val sessions : unit -> bool Cmdliner.Term.t
(** [--sessions]: keep a pool of warm solver sessions in a daemon. *)

(** {1 Uniform parsers}

    All of these print one standard diagnostic to stderr and [exit 2]
    on unknown input, so every tool rejects a typo identically. *)

val feature_set_of_config : string -> Guardian.Feature_set.t
val engine_of_name : string -> Tta_model.Engine.t
val engine_ids_of_names : string -> Tta_model.Engine.id list
(** Comma-separated, e.g. ["bdd,explicit"]; rejects the empty list. *)

val faults_of_chaos : string option -> Resilience.Faults.t
(** The parsed [--chaos] value as a fault-injection registry;
    {!Resilience.Faults.disabled} when the flag was absent. *)

val index : flag:string -> count:int -> int -> int
(** [index ~flag ~count i] is [i] when [0 <= i < count]; otherwise it
    rejects the value given to [flag]. *)

(** {1 Shared report lines} *)

val write_json : what:string -> string option -> Json.t -> unit
(** Under [--json FILE] ([Some FILE]), write the value there and print
    ["<what> written to FILE"]; nothing otherwise. *)

val print_ready : Service.Server.addr -> unit
(** The one-line [{"ready":true,"socket":...}] readiness record a
    daemon or router prints once it is bound ([port] added for TCP);
    supervisors parse it to learn a kernel-assigned port. *)

val print_chaos : ?scope:string -> Resilience.Faults.t -> unit
(** ["chaos: <scope>spec ..."] plus one ["fired N"] line per rule;
    nothing when fault injection is off. *)

val print_cache_stats : Portfolio.Cache.t -> unit
(** ["cache: H hits, M misses, E entries, V evicted, Q quarantined"]. *)

val print_verdict : nodes:int -> Tta_model.Engine.verdict -> unit
(** The verdict, and for a violation the described counterexample and
    whether it replays against the model. *)

(** {1 Observability} *)

type obs
(** The tool's observability context: the parsed [--trace]/[--metrics]
    flags and, when either was given, a live collector. *)

val obs : unit -> obs Cmdliner.Term.t
(** [--trace FILE] (write a Chrome [trace_event] file on exit) and
    [--metrics] (print the collected metrics table on exit). *)

val obs_collector : obs -> Obs.Collector.t option
(** [Some] iff [--trace] or [--metrics] was given — pass to
    [Portfolio.race]/[run_matrix]. *)

val obs_track : obs -> string -> Obs.t
(** A named track of the context's collector, or {!Obs.disabled} when
    observability is off — pass to an engine or campaign. *)

val obs_finish : obs -> unit
(** Export: write the Chrome trace (announcing the path on stdout)
    and/or print the metrics table. A no-op when neither flag was
    given — default output stays byte-identical. *)
