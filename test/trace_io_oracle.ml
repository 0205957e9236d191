(* The eotrace line parser as it was before the in-place scanner: the
   whole line split into a token list first, then matched.  Kept as the
   oracle the scanner must agree with, directive for directive and
   message for message. *)

open Trace_io

(* Splits a line into whitespace-separated tokens, treating a double-quoted
   section (with backslash escapes) as a single token. *)
let tokenize lineno line =
  let n = String.length line in
  let tokens = ref [] in
  let i = ref 0 in
  while !i < n do
    while !i < n && line.[!i] = ' ' do incr i done;
    if !i < n then
      if line.[!i] = '"' then begin
        incr i;
        let b = Buffer.create 16 in
        let closed = ref false in
        while !i < n && not !closed do
          (match line.[!i] with
          | '\\' when !i + 1 < n ->
              incr i;
              (match line.[!i] with
              | 'n' -> Buffer.add_char b '\n'
              | c -> Buffer.add_char b c)
          | '"' -> closed := true
          | c -> Buffer.add_char b c);
          incr i
        done;
        if not !closed then
          failwith (Printf.sprintf "line %d: unterminated string" lineno);
        tokens := Buffer.contents b :: !tokens
      end
      else begin
        let start = !i in
        while !i < n && line.[!i] <> ' ' do incr i done;
        tokens := String.sub line start (!i - start) :: !tokens
      end
  done;
  List.rev !tokens

let int_of lineno s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> failwith (Printf.sprintf "line %d: expected integer, got %S" lineno s)

let parse_line ~lineno raw =
  let raw =
    match String.index_opt raw '#' with
    | Some i when not (String.contains raw '"') -> String.sub raw 0 i
    | _ -> raw
  in
  match tokenize lineno (String.trim raw) with
  | [] -> D_blank
  | "eotrace" :: version ->
      if version <> [ "1" ] then
        failwith (Printf.sprintf "line %d: unsupported version" lineno);
      D_header
  | "outcome" :: rest ->
      D_outcome
        (match rest with
        | [ "completed" ] -> Trace.Completed
        | [ "fuel_exhausted" ] -> Trace.Fuel_exhausted
        | "deadlocked" :: pids ->
            Trace.Deadlocked (List.map (int_of lineno) pids)
        | _ -> failwith (Printf.sprintf "line %d: bad outcome" lineno))
  | "vars" :: names -> D_vars (Array.of_list names)
  | "sems" :: names ->
      let stripped =
        List.map
          (fun n ->
            match String.length n with
            | 0 -> (n, false)
            | len when n.[len - 1] = '*' -> (String.sub n 0 (len - 1), true)
            | _ -> (n, false))
          names
      in
      D_sems
        ( Array.of_list (List.map fst stripped),
          Array.of_list (List.map snd stripped) )
  | "events" :: names -> D_events (Array.of_list names)
  | "sem_init" :: values ->
      D_sem_init (Array.of_list (List.map (int_of lineno) values))
  | "ev_init" :: values ->
      D_ev_init (Array.of_list (List.map (fun v -> v = "1") values))
  | [ "process"; pid; name ] -> D_process (int_of lineno pid, name)
  | "event" :: id :: pid :: seq :: rest ->
      let kind, rest =
        match rest with
        | "computation" :: r -> (Event.Computation, r)
        | "sem_p" :: s :: r -> (Event.Sync (Event.Sem_p (int_of lineno s)), r)
        | "sem_v" :: s :: r -> (Event.Sync (Event.Sem_v (int_of lineno s)), r)
        | "post" :: v :: r -> (Event.Sync (Event.Post (int_of lineno v)), r)
        | "wait" :: v :: r -> (Event.Sync (Event.Wait (int_of lineno v)), r)
        | "clear" :: v :: r -> (Event.Sync (Event.Clear (int_of lineno v)), r)
        | "fork" :: r -> (Event.Sync Event.Fork, r)
        | "join" :: r -> (Event.Sync Event.Join, r)
        | _ -> failwith (Printf.sprintf "line %d: bad event kind" lineno)
      in
      let label, rest =
        match rest with
        | label :: r -> (label, r)
        | [] -> failwith (Printf.sprintf "line %d: missing label" lineno)
      in
      let reads, writes =
        let rec split_rw acc = function
          | "writes" :: ws -> (List.rev acc, List.map (int_of lineno) ws)
          | r :: rest -> split_rw (int_of lineno r :: acc) rest
          | [] -> failwith (Printf.sprintf "line %d: missing writes" lineno)
        in
        match rest with
        | "reads" :: rest -> split_rw [] rest
        | _ -> failwith (Printf.sprintf "line %d: missing reads" lineno)
      in
      D_event
        (Event.make ~id:(int_of lineno id) ~pid:(int_of lineno pid)
           ~seq:(int_of lineno seq) ~kind ~label ~reads ~writes ())
  | [ "po"; a; b ] -> D_po (int_of lineno a, int_of lineno b)
  | [ "violation"; e ] -> D_violation (int_of lineno e)
  | [ "final"; x; v ] -> D_final (x, int_of lineno v)
  | tok :: _ ->
      failwith (Printf.sprintf "line %d: unknown directive %S" lineno tok)
