(* Any ASCII whitespace separates fields: other solvers routinely emit
   tab-separated clauses and [p\tcnf] headers, and the format never gave
   the space character special status. *)
let split_ws s =
  let is_ws = function ' ' | '\t' | '\r' | '\012' -> true | _ -> false in
  let toks = ref [] in
  let start = ref (-1) in
  String.iteri
    (fun i c ->
      if is_ws c then begin
        if !start >= 0 then toks := String.sub s !start (i - !start) :: !toks;
        start := -1
      end
      else if !start < 0 then start := i)
    s;
  if !start >= 0 then
    toks := String.sub s !start (String.length s - !start) :: !toks;
  List.rev !toks

exception End_marker

let fail fmt = Printf.ksprintf failwith fmt

let parse text =
  let lines = String.split_on_char '\n' text in
  let header = ref None in
  let tokens = ref [] in
  (try
     List.iteri
       (fun i line ->
         let line = String.trim line in
         if line = "" || line.[0] = 'c' then ()
         else if line.[0] = '%' then
           (* Conventional end-of-file marker (SATLIB benchmarks follow
              it with a lone "0"); everything after it is ignored. *)
           raise End_marker
         else if line.[0] = 'p' then begin
           if !header <> None then fail "line %d: duplicate header" (i + 1);
           match split_ws line with
           | [ "p"; "cnf"; vars; clauses ] -> (
               match (int_of_string_opt vars, int_of_string_opt clauses) with
               | Some v, Some c when v >= 0 && c >= 0 -> header := Some (v, c)
               | _ -> fail "line %d: malformed header numbers" (i + 1))
           | _ -> fail "line %d: malformed header line" (i + 1)
         end
         else
           split_ws line
           |> List.iter (fun tok ->
                  match int_of_string_opt tok with
                  | Some l -> tokens := (i + 1, l) :: !tokens
                  | None -> fail "line %d: non-integer literal %S" (i + 1) tok))
       lines
   with End_marker -> ());
  let num_vars, expected_clauses =
    match !header with
    | Some h -> h
    | None -> failwith "missing 'p cnf' header"
  in
  let clauses, current =
    List.fold_left
      (fun (clauses, current) (line, l) ->
        if l = 0 then (List.rev current :: clauses, [])
        else if l < -num_vars || l > num_vars then
          fail "line %d: literal %d out of range (%d variables)" line l num_vars
        else (clauses, l :: current))
      ([], [])
      (List.rev !tokens)
  in
  if current <> [] then failwith "clause missing terminating 0";
  let clauses = List.rev clauses in
  if List.length clauses <> expected_clauses then
    fail "the header declares %d clauses, the file has %d" expected_clauses
      (List.length clauses);
  Cnf.make ~num_vars clauses

let parse_file path = parse (In_channel.with_open_bin path In_channel.input_all)

let print ppf (f : Cnf.t) =
  Format.fprintf ppf "p cnf %d %d@." f.Cnf.num_vars (Cnf.num_clauses f);
  List.iter
    (fun clause ->
      List.iter (fun l -> Format.fprintf ppf "%d " l) clause;
      Format.fprintf ppf "0@.")
    f.Cnf.clauses

let to_string f = Format.asprintf "%a" print f
