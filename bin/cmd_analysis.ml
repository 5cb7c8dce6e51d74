(* Print the Section 6 analysis: the worked buffer-size examples
   (equations 6, 8, 9), the Figure 3 series, and the leaky-bucket
   empirical validation of equation (1). *)

let print_worked_examples () =
  print_endline "== Worked examples (Section 6) ==";
  List.iter
    (fun (e : Analysis.Buffer.worked_example) ->
      Printf.printf "  %-40s = %.6g %s\n" e.Analysis.Buffer.label
        e.Analysis.Buffer.result e.Analysis.Buffer.unit_)
    (Analysis.Buffer.worked_examples ());
  print_newline ()

let print_figure3 () =
  print_endline
    "== Figure 3: rho_max/rho_min limit vs f_max (feasible region below) ==";
  List.iter
    (fun s -> Format.printf "%a@." Analysis.Figure3.pp_series s)
    (Analysis.Figure3.default_families ());
  (match Analysis.Figure3.highlighted_point () with
  | Some r ->
      Printf.printf
        "highlighted point: f_min = f_max = 128  =>  ratio = %.1f (= f_max/5, \
         not f_max)\n"
        r
  | None -> print_endline "highlighted point infeasible (unexpected)");
  print_newline ()

let print_leaky_bucket () =
  print_endline
    "== Leaky bucket: measured buffer occupancy vs analytic B_min (eq 1) ==";
  let le = Analysis.Frames_catalog.line_encoding_bits in
  Printf.printf "  %-12s %-12s %-8s %-10s %-10s\n" "node rate" "hub rate"
    "frame" "measured" "B_min";
  List.iter
    (fun (node_rate, guardian_rate, frame_bits) ->
      let measured =
        Guardian.Leaky_bucket.required_buffer ~node_rate ~guardian_rate
          ~frame_bits ~le
      in
      let bound =
        Guardian.Leaky_bucket.analytic_bound ~node_rate ~guardian_rate
          ~frame_bits ~le
      in
      Printf.printf "  %-12g %-12g %-8d %-10d %-10.1f\n" node_rate
        guardian_rate frame_bits measured bound)
    [
      (1.0, 1.0002, 2076);
      (1.0002, 1.0, 2076);
      (1.0, 1.0111, 2076);
      (1.0, 1.1, 2076);
      (1.0, 1.3026, 76);
      (1.0, 2.0, 76);
    ];
  print_newline ()

let print_frame_catalog () =
  print_endline "== Frame sizes: specification constants vs executable codec ==";
  Printf.printf
    "  spec: N=%d cold-start=%d I(min)=%d I(protocol)=%d X(max)=%d le=%d\n"
    Analysis.Frames_catalog.min_n_frame_bits
    Analysis.Frames_catalog.min_cold_start_bits
    Analysis.Frames_catalog.min_i_frame_bits
    Analysis.Frames_catalog.protocol_i_frame_bits
    Analysis.Frames_catalog.max_x_frame_bits
    Analysis.Frames_catalog.line_encoding_bits;
  Printf.printf "  codec:";
  List.iter
    (fun (k, bits) -> Printf.printf " %s=%d" k bits)
    (Analysis.Frames_catalog.codec_sizes ());
  print_newline ();
  print_newline ()

let analysis_json () =
  let worked =
    Json.List
      (List.map
         (fun (e : Analysis.Buffer.worked_example) ->
           Json.Obj
             [
               ("label", Json.String e.Analysis.Buffer.label);
               ("result", Json.Float e.Analysis.Buffer.result);
               ("unit", Json.String e.Analysis.Buffer.unit_);
             ])
         (Analysis.Buffer.worked_examples ()))
  in
  let series (s : Analysis.Figure3.series) =
    Json.Obj
      [
        ("f_min", Json.Int s.Analysis.Figure3.f_min);
        ("le", Json.Int s.Analysis.Figure3.le);
        ( "points",
          Json.List
            (List.map
               (fun (p : Analysis.Figure3.point) ->
                 Json.Obj
                   [
                     ("f_max", Json.Int p.Analysis.Figure3.f_max);
                     ( "ratio",
                       match p.Analysis.Figure3.ratio with
                       | None -> Json.Null
                       | Some r -> Json.Float r );
                   ])
               s.Analysis.Figure3.points) );
      ]
  in
  Json.Obj
    [
      ("worked_examples", worked);
      ( "figure3",
        Json.List (List.map series (Analysis.Figure3.default_families ())) );
    ]

let run figure3_only json_path =
  if figure3_only then print_figure3 ()
  else begin
    print_worked_examples ();
    print_figure3 ();
    print_leaky_bucket ();
    print_frame_catalog ()
  end;
  Cli.write_json ~what:"results" json_path (analysis_json ());
  0

let cmd =
  let open Cmdliner in
  let fig3 =
    Arg.(
      value & flag
      & info [ "figure3" ] ~doc:"Print only the Figure 3 data series.")
  in
  Cmd.v
    (Cmd.info "analysis"
       ~doc:"Buffer-size / frame-size / clock-rate tradeoff analysis")
    Term.(const run $ fig3 $ Cli.json ())
