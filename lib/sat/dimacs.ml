(* DIMACS CNF reader/writer.

   Makes the solver usable as a standalone tool (tta sat) and
   lets instances generated here be cross-checked against external
   solvers. The format: a header "p cnf <vars> <clauses>" followed by
   whitespace-separated nonzero literals, each clause terminated by 0;
   lines starting with 'c' are comments. *)

type instance = {
  nvars : int;
  clauses : int list list;  (** DIMACS literals: nonzero, +v / -v *)
}

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* Tokenize a channel into ints, skipping comments. *)
let tokens_of_lines lines =
  List.concat_map
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = 'c' then []
      else
        String.split_on_char ' ' line
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun s -> s <> ""))
    lines

let of_lines lines =
  match tokens_of_lines lines with
  | "p" :: "cnf" :: nv :: nc :: rest ->
      let nvars =
        try int_of_string nv
        with Failure _ -> parse_error "bad variable count %S" nv
      in
      let nclauses =
        try int_of_string nc
        with Failure _ -> parse_error "bad clause count %S" nc
      in
      let lits =
        List.map
          (fun tok ->
            match int_of_string_opt tok with
            | Some l -> l
            | None -> parse_error "bad literal %S" tok)
          rest
      in
      let clauses =
        let rec go current acc = function
          | [] ->
              if current <> [] then
                parse_error "unterminated final clause"
              else List.rev acc
          | 0 :: rest -> go [] (List.rev current :: acc) rest
          | l :: rest ->
              if abs l > nvars then
                parse_error "literal %d out of range (p cnf %d ...)" l nvars;
              go (l :: current) acc rest
        in
        go [] [] lits
      in
      if List.length clauses <> nclauses then
        parse_error "header promised %d clauses, found %d" nclauses
          (List.length clauses);
      { nvars; clauses }
  | _ -> parse_error "missing 'p cnf' header"

let of_string s = of_lines (String.split_on_char '\n' s)

let of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec read acc =
        match input_line ic with
        | line -> read (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      of_lines (read []))

let to_string { nvars; clauses } =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" nvars (List.length clauses));
  List.iter
    (fun clause ->
      List.iter (fun l -> Buffer.add_string buf (string_of_int l ^ " ")) clause;
      Buffer.add_string buf "0\n")
    clauses;
  Buffer.contents buf

let to_file inst path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string inst))

(* Load an instance into a solver. DIMACS variable i (1-based) becomes
   solver variable i-1. *)
let load inst =
  let s = Solver.create () in
  for _ = 1 to inst.nvars do
    ignore (Solver.new_var s)
  done;
  List.iter
    (fun clause ->
      Solver.add_clause s
        (List.map
           (fun l ->
             if l > 0 then Solver.pos (l - 1) else Solver.neg (-l - 1))
           clause))
    inst.clauses;
  s

(* The model of a satisfiable instance, as DIMACS literals. *)
let model_of inst s =
  let m = Solver.model s in
  List.init inst.nvars (fun v -> if m.(v) then v + 1 else -(v + 1))
