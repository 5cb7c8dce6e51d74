(* Run telemetry — see the interface. *)

type outcome = Holds | Violated | Unknown

let outcome_of_verdict = function
  | Tta_model.Engine.Holds _ -> Holds
  | Tta_model.Engine.Violated _ -> Violated
  | Tta_model.Engine.Unknown _ -> Unknown

let outcome_to_string = function
  | Holds -> "holds"
  | Violated -> "violated"
  | Unknown -> "unknown"

type record = {
  config : string;
  engine : string;
  outcome : outcome;
  detail : string;
  wall_s : float;
  cache_hit : bool;
  winner : bool;
  counters : (string * int) list;
}

type t = { lock : Mutex.t; mutable rev_records : record list }

let create () = { lock = Mutex.create (); rev_records = [] }

let add t r =
  Mutex.lock t.lock;
  t.rev_records <- r :: t.rev_records;
  Mutex.unlock t.lock

let records t =
  Mutex.lock t.lock;
  let rs = List.rev t.rev_records in
  Mutex.unlock t.lock;
  rs

type summary = {
  tasks : int;
  runs : int;
  holds : int;
  violated : int;
  unknown : int;
  cache_hits : int;
  total_wall_s : float;
  total_run_wall_s : float;
  max_wall_s : float;
}

let summarize t =
  let rs = records t in
  let winners = List.filter (fun r -> r.winner) rs in
  let count p l = List.length (List.filter p l) in
  {
    tasks = List.length winners;
    runs = List.length rs;
    holds = count (fun r -> r.outcome = Holds) winners;
    violated = count (fun r -> r.outcome = Violated) winners;
    unknown = count (fun r -> r.outcome = Unknown) winners;
    cache_hits = count (fun r -> r.cache_hit) rs;
    total_wall_s =
      List.fold_left (fun acc r -> acc +. r.wall_s) 0.0 winners;
    total_run_wall_s = List.fold_left (fun acc r -> acc +. r.wall_s) 0.0 rs;
    max_wall_s = List.fold_left (fun acc r -> Float.max acc r.wall_s) 0.0 rs;
  }

(* The effort column: the run's most characteristic counter, tried in
   engine-specificity order so each engine shows the number a reader
   would reach for first. *)
let effort_of_counters counters =
  let get n = List.assoc_opt n counters in
  match
    List.find_map
      (fun (name, unit_) ->
        Option.map (fun v -> (v, unit_)) (get name))
      [
        ("reach.peak_nodes", "bddn");
        ("sat.conflicts", "cfl");
        ("explicit.states", "sts");
        ("sim.trials", "trl");
      ]
  with
  | Some (v, unit_) -> Printf.sprintf "%d %s" v unit_
  | None -> "-"

let pp_table ppf t =
  let rs = records t in
  Format.fprintf ppf "  %-36s %-16s %-9s %8s %6s %3s %12s@."
    "configuration" "engine" "outcome" "wall" "cache" "win" "effort";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-36s %-16s %-9s %7.2fs %6s %3s %12s@." r.config
        r.engine
        (outcome_to_string r.outcome)
        r.wall_s
        (if r.cache_hit then "hit" else "miss")
        (if r.winner then "*" else "")
        (effort_of_counters r.counters))
    rs;
  let s = summarize t in
  Format.fprintf ppf
    "  %d tasks (%d engine runs): %d holds, %d violated, %d unknown; %d \
     cache hits; %.2fs task wall (%.2fs incl. losers, %.2fs max)@."
    s.tasks s.runs s.holds s.violated s.unknown s.cache_hits s.total_wall_s
    s.total_run_wall_s s.max_wall_s

let record_to_json r =
  Json.Obj
    [
      ("config", Json.String r.config);
      ("engine", Json.String r.engine);
      ("outcome", Json.String (outcome_to_string r.outcome));
      ("detail", Json.String r.detail);
      ("wall_s", Json.Float r.wall_s);
      ("cache_hit", Json.Bool r.cache_hit);
      ("winner", Json.Bool r.winner);
      ( "counters",
        Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) r.counters) );
    ]

let summary_to_json s =
  Json.Obj
    [
      ("tasks", Json.Int s.tasks);
      ("runs", Json.Int s.runs);
      ("holds", Json.Int s.holds);
      ("violated", Json.Int s.violated);
      ("unknown", Json.Int s.unknown);
      ("cache_hits", Json.Int s.cache_hits);
      ("total_wall_s", Json.Float s.total_wall_s);
      ("total_run_wall_s", Json.Float s.total_run_wall_s);
      ("max_wall_s", Json.Float s.max_wall_s);
    ]

let to_json t =
  Json.Obj
    [
      ("records", Json.List (List.map record_to_json (records t)));
      ("summary", summary_to_json (summarize t));
    ]
