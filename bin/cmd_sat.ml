(* A standalone DIMACS SAT solver front-end over the library's CDCL
   engine, speaking the conventional s/v output format so results can
   be compared with any other solver. Exits 10 (SAT) or 20 (UNSAT).

     tta sat problem.cnf
     echo "p cnf 2 2\n1 2 0\n-1 0" | tta sat -
*)

let read_stdin () =
  let rec go acc =
    match input_line stdin with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let run path =
  match
    if path = "-" then Sat.Dimacs.of_lines (read_stdin ())
    else Sat.Dimacs.of_file path
  with
  | exception Sat.Dimacs.Parse_error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      2
  | exception Sys_error msg ->
      prerr_endline msg;
      2
  | instance -> (
      let solver = Sat.Dimacs.load instance in
      let t0 = Unix.gettimeofday () in
      let result = Sat.solve solver in
      let dt = Unix.gettimeofday () -. t0 in
      Printf.printf "c %s\nc %.3fs\n" (Sat.stats solver) dt;
      match result with
      | Sat.Sat ->
          print_endline "s SATISFIABLE";
          print_string "v";
          List.iter (Printf.printf " %d") (Sat.Dimacs.model_of instance solver);
          print_endline " 0";
          10
      | Sat.Unsat ->
          print_endline "s UNSATISFIABLE";
          20)

let cmd =
  let open Cmdliner in
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"DIMACS CNF file, or - for standard input.")
  in
  Cmd.v
    (Cmd.info "sat" ~doc:"Solve a DIMACS CNF problem with the CDCL solver")
    Term.(const run $ path)
