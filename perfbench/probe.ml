(* The benchmark's OCaml side: it writes each workload's seeded inputs,
   computes the reference answers run.py checks outputs against,
   and runs the traced in-process replays that split an operation into
   the library layers it calls.  perfbench/run.py drives it; see
   perfbench/README.md for the workloads and metrics.

   Usage: probe.exe SUBCOMMAND [--key value ...]; every subcommand
   prints one JSON object (or one line per item) on stdout. *)

let now = Unix.gettimeofday

let die fmt = Format.kasprintf (fun s -> prerr_endline ("probe: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* A span per call the benchmark makes into a layer, kept in memory and
   written out when the run ends.  [op] is the operation (request,
   instance, streaming analysis) the span belongs to; [parent] is the
   enclosing span, [-1] for an operation's root.  When tracing is off,
   [with_] is a plain call. *)
module Span = struct
  type t = {
    id : int;
    parent : int;
    op : int;
    name : string;
    t0 : float;
    t1 : float;
  }

  let on = ref false
  let recorded = ref []
  let next_id = ref 0
  let stack = ref []
  let current_op = ref 0

  let with_ name f =
    if not !on then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      stack := id :: !stack;
      let t0 = now () in
      let close () =
        let t1 = now () in
        stack := List.tl !stack;
        recorded := { id; parent; op = !current_op; name; t0; t1 } :: !recorded
      in
      match f () with
      | r ->
          close ();
          r
      | exception e ->
          close ();
          raise e
    end

  (* One operation: its root span is named "op", so the traced total
     and the part no layer span covers can be read off the tree. *)
  let op i f =
    current_op := i;
    with_ "op" f

  let dump path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\": %d, \"parent\": %d, \"op\": %d, \"name\": %S, \"start\": \
           %.6f, \"end\": %.6f}\n"
          s.id s.parent s.op s.name s.t0 s.t1)
      (List.rev !recorded);
    close_out oc

  (* Busy and self milliseconds per span name, summed over all ops. *)
  let summary () =
    let child_ms = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child_ms s.parent
            ((s.t1 -. s.t0) *. 1000.
            +. Option.value ~default:0. (Hashtbl.find_opt child_ms s.parent)))
      !recorded;
    let busy = Hashtbl.create 16 and self = Hashtbl.create 16 in
    let add tbl k v =
      Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
    in
    List.iter
      (fun s ->
        let ms = (s.t1 -. s.t0) *. 1000. in
        add busy s.name ms;
        add self s.name
          (ms -. Option.value ~default:0. (Hashtbl.find_opt child_ms s.id)))
      !recorded;
    let to_obj tbl =
      Jsonout.Obj
        (List.sort compare
           (Hashtbl.fold (fun k v acc -> (k, Jsonout.Float v) :: acc) tbl []))
    in
    [ ("busy_ms", to_obj busy); ("self_ms", to_obj self) ]
end

(* ------------------------------------------------------------------ *)
(* Arguments and output                                                *)
(* ------------------------------------------------------------------ *)

let args = Hashtbl.create 8

let () =
  let n = Array.length Sys.argv in
  let rec go i =
    if i + 1 < n then begin
      let k = Sys.argv.(i) in
      if String.length k < 3 || String.sub k 0 2 <> "--" then
        die "expected --key value, got %S" k;
      Hashtbl.replace args (String.sub k 2 (String.length k - 2)) Sys.argv.(i + 1);
      go (i + 2)
    end
    else if i < n then die "missing value for %S" Sys.argv.(i)
  in
  go 2

let arg k =
  match Hashtbl.find_opt args k with Some v -> v | None -> die "missing --%s" k

let int_arg k =
  match int_of_string_opt (arg k) with
  | Some v -> v
  | None -> die "--%s expects an integer" k

let traced () = int_arg "trace" = 1
let ( // ) = Filename.concat
let emit fields = print_endline (Jsonout.to_string (Jsonout.Obj fields))
let ms s = Jsonout.Float (s *. 1000.)

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> output_string oc l; output_char oc '\n') lines)

(* Resident set size of this process, from /proc (0 where unavailable). *)
let rss_mb () =
  match In_channel.with_open_bin "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.
  | status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmRSS"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.
              | [] -> acc)
          | _ -> acc)
        0. (String.split_on_char '\n' status)

let counters_json c keys =
  List.map (fun (name, k) -> (name, Jsonout.Int (Counters.get c k))) keys

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* A set-up run [--repeat] times in this one process, each time into a
   fresh directory DIR/s<k> (so no repetition pays for truncating an
   earlier one's files); prints the wall time of each.  One process keeps
   the generator's heap warm, so the times measure generating and
   writing the inputs rather than a fresh process touching its memory. *)
let repeated write =
  let dir = arg "dir" in
  let times =
    List.init (int_arg "repeat") (fun k ->
        let sub = dir // Printf.sprintf "s%d" k in
        Sys.mkdir sub 0o755;
        let t0 = now () in
        write sub;
        now () -. t0)
  in
  emit [ ("setup_s", Jsonout.List (List.map (fun t -> Jsonout.Float t) times)) ]

(* ------------------------------------------------------------------ *)
(* stream_mesh                                                         *)
(* ------------------------------------------------------------------ *)

(* The seeded pc_mesh trace, plus its planted races: the "race"-labelled
   events come in pairs writing one fresh variable. *)
let mesh_inputs dir =
  let t =
    Progen.big_trace ~family:Progen.Pc_mesh ~events:(int_arg "events")
      ~seed:(int_arg "seed")
  in
  Bigtrace.save (dir // "mesh.eotrace") t;
  let by_var = Hashtbl.create 64 in
  Array.iter
    (fun (e : Event.t) ->
      if e.Event.label = "race" then
        List.iter
          (fun v ->
            Hashtbl.replace by_var v
              (e.Event.id :: Option.value ~default:[] (Hashtbl.find_opt by_var v)))
          e.Event.writes)
    t.Bigtrace.events;
  let pairs =
    Hashtbl.fold
      (fun _ ids acc ->
        match List.sort compare ids with
        | [ a; b ] -> Printf.sprintf "%d %d" a b :: acc
        | _ -> die "planted race variable with %d writers" (List.length ids))
      by_var []
  in
  write_lines (dir // "mesh.planted") (List.sort compare pairs)

(* One streaming analysis, as [races --engine auto] runs it on a saved
   trace past --max-events. *)
let mesh_op () =
  Span.on := traced ();
  let c = if !Span.on then Counters.create () else Counters.null in
  let t0 = now () in
  let report, load_rss =
    Span.op 0 (fun () ->
        let big = Span.with_ "prog.load" (fun () -> Bigtrace.read (arg "file")) in
        let load_rss = rss_mb () in
        ( Span.with_ "triage.races_big" (fun () -> Triage.races_big ~stats:c big),
          load_rss ))
  in
  let wall = now () -. t0 in
  if !Span.on then Span.dump (arg "spans");
  emit
    ([
       ("wall_ms", ms wall);
       ("events", Jsonout.Int report.Triage.events);
       ("candidates", Jsonout.Int report.Triage.candidates);
       ("refuted", Jsonout.Int report.Triage.refuted);
       ("certified", Jsonout.Int report.Triage.certified);
       ("undecided", Jsonout.Int report.Triage.undecided);
       ("truncated", Jsonout.Bool report.Triage.truncated);
       ( "races",
         Jsonout.List
           (List.map
              (fun (a, b, _) -> Jsonout.Obj [ ("e1", Jsonout.Int a); ("e2", Jsonout.Int b) ])
              report.Triage.races) );
       ("load_rss_mb", Jsonout.Float load_rss);
     ]
    @ counters_json c
        [
          ("tier_hits_approx", Counters.Triage_approx_hits);
          ("escalations", Counters.Triage_escalations);
        ]
    @ Span.summary ())

(* ------------------------------------------------------------------ *)
(* serve_mixed                                                         *)
(* ------------------------------------------------------------------ *)

(* Programs of at most 12 events: three processes of two to four
   statements. *)
let program_config =
  {
    Progen.default_config with
    Progen.processes = (3, 3);
    stmts_per_process = (2, 4);
    shared_vars = 2;
  }

let hot_count = 24

(* One-off programs are drawn per percentile band of a fixed reference
   distribution (see [band_edges]); a block of requests on a connection
   holds one program from each band and four times as many hot
   requests. *)
let bands = 100
let block = 5 * bands
let reference_draws = 10_000

(* The pair query's relation.  mcw and cow are left out: they answer from
   the reduced summary, which the session LRU stores as a third entry, so
   how full the cache is would depend on the draw. *)
let pair_relations = [| "mhb"; "chb"; "ccw"; "mow" |]

let request_line ~src ~engine ~queries =
  Jsonout.to_string
    (Jsonout.Obj
       [
         ("schema", Jsonout.Str "eventorder.request/1");
         ("program", Jsonout.Str src);
         ("engine", Jsonout.Str engine);
         ("queries", Jsonout.List (List.map (fun q -> Jsonout.Str q) queries));
       ])

(* One seeded Progen draw: a program that runs to completion in at most
   12 events and whose key [seen] does not hold yet, with its score: the
   feasible-schedule count |F(P)| (a counting DP, ~0.06 ms) plus a
   fraction in [0, 1) read off the program key, which breaks ties.
   |F(P)| predicts what the exact engines pay for the program on a
   miss: over 4,000 draws, the logarithms of |F(P)| and of the
   in-process cost correlate at 0.97. *)
let rec candidate rng seen =
  let ast = Progen.generate program_config ~seed:(Random.State.bits rng) in
  let tr = Interp.run ast in
  let n = Trace.n_events tr in
  if tr.Trace.outcome <> Trace.Completed || n < 2 || n > 12 then candidate rng seen
  else
    let x = Trace.to_execution tr in
    let key = Program_key.hash (Program_key.of_execution x) in
    if Hashtbl.mem seen key then candidate rng seen
    else begin
      Hashtbl.replace seen key ();
      let count = Session.schedule_count (Session.of_execution ~cache:Session.no_cache x) in
      let split = float_of_int (int_of_string ("0x" ^ String.sub key 0 6)) /. 16777216. in
      (float_of_int count +. split, (ast, n))
    end

(* The reference distribution: the percentile edges of the score over
   [reference_draws] draws from a fixed seed.  Band j holds the scores
   from [edges.(j - 1)] up to [edges.(j)]; band 0 starts at 0 and the
   last band has no upper end, so the costly tail stays in. *)
let band_edges () =
  let rng = Random.State.make [| 0; 0xba4d |] in
  let seen = Hashtbl.create reference_draws in
  let scores = Array.init reference_draws (fun _ -> fst (candidate rng seen)) in
  Array.sort compare scores;
  Array.init (bands - 1) (fun j -> scores.((j + 1) * reference_draws / bands))

let band_of edges score =
  let rec go j = if j < Array.length edges && edges.(j) <= score then go (j + 1) else j in
  go 0

(* Writes programs.ndjson (line i: the one request ever sent for
   program i; ids 0..23 are the hot set) and conn0.txt / conn1.txt (the
   program id sequence each connection replays).  Every block of 500
   requests on a connection is 100 programs seen nowhere else, one from
   each percentile band, and 400 uniform draws from the hot set,
   shuffled.  Seeded draws fill the bands until each holds a program for
   every block; a draw whose band is already full is dropped.  So every
   block has the same cost profile, and the seed changes only which
   programs fill it.

   - The hot set is one program from each pair of bands in the cheaper
     half (bands 0-1, 2-3, ..., 46-47).  Hot programs are computed
     again after every eviction, some 1,500 times a run between
     them, so one costly hot program would decide the run.
   - Engines alternate by hot id, and for one-off programs by band and
     block, so each band is asked under packed and auto equally. *)
let serve_inputs () =
  let dir = arg "dir" and per_conn = int_arg "requests" in
  let edges = band_edges () in
  let rng = Random.State.make [| int_arg "seed"; 0x5e7e |] in
  let blocks = (per_conn + block - 1) / block in
  let seen = Hashtbl.create 8192 in
  let hot = Array.make hot_count None in
  let cold = Array.make bands [] and filled = Array.make bands 0 in
  let missing = ref (hot_count + (bands * 2 * blocks)) and draws = ref 0 in
  while !missing > 0 do
    let score, p = candidate rng seen in
    incr draws;
    let j = band_of edges score in
    if j < 2 * hot_count && hot.(j / 2) = None then begin
      hot.(j / 2) <- Some p;
      decr missing
    end
    else if filled.(j) < 2 * blocks then begin
      cold.(j) <- p :: cold.(j);
      filled.(j) <- filled.(j) + 1;
      decr missing
    end
  done;
  let cold = Array.map Array.of_list cold in
  let line (ast, n) ~packed =
    let a = Random.State.int rng n in
    let b = (a + 1 + Random.State.int rng (n - 1)) mod n in
    let relation = pair_relations.(Random.State.int rng (Array.length pair_relations)) in
    request_line
      ~src:(Format.asprintf "%a" Ast.pp ast)
      ~engine:(if packed then "packed" else "auto")
      ~queries:[ "relations"; "races"; Printf.sprintf "%s:%d:%d" relation a b ]
  in
  (* Program ids: the hot set, then block k's one-off programs at
     hot_count + k * bands + band. *)
  let programs =
    List.init hot_count (fun i -> line (Option.get hot.(i)) ~packed:(i mod 2 = 0))
    @ List.concat
        (List.init (2 * blocks) (fun k ->
             List.init bands (fun j -> line cold.(j).(k) ~packed:((k + j) mod 2 = 0))))
  in
  let sequence conn =
    List.concat
      (List.init blocks (fun k ->
           let first = hot_count + (((conn * blocks) + k) * bands) in
           shuffle rng
             (List.init bands (fun j -> first + j)
             @ List.init (block - bands) (fun _ -> Random.State.int rng hot_count))))
  in
  let conn0 = sequence 0 in
  let conn1 = sequence 1 in
  write_lines (dir // "programs.ndjson") programs;
  write_lines (dir // "conn0.txt") (List.map string_of_int conn0);
  write_lines (dir // "conn1.txt") (List.map string_of_int conn1);
  emit
    [
      ("programs", Jsonout.Int (List.length programs));
      ("hot", Jsonout.Int hot_count);
      ("draws", Jsonout.Int !draws);
    ]

let load_programs dir = Array.of_list (read_lines (dir // "programs.ndjson"))
let load_ids path = List.map int_of_string (read_lines path)

let decode_request line =
  match Jsonin.parse line with
  | Ok doc -> Api.request_of_json doc
  | Error msg -> die "malformed request line: %s" msg

let run_program (req : Api.request) =
  match req.Api.program with
  | Some src -> Interp.run ~policy:req.Api.policy (Parse.program src)
  | None -> die "request without a program"

(* The seed engine's answers for each listed program, uncached — what
   every daemon response for that program must equal. *)
let serve_ref () =
  let programs = load_programs (arg "dir") in
  List.iter
    (fun id ->
      let req = decode_request programs.(id) in
      let trace = run_program req in
      let x = Trace.to_execution trace in
      Engine.set Engine.Naive;
      let session = Session.of_execution ~cache:Session.no_cache x in
      let results = Api.answers session trace x req.Api.queries in
      Printf.printf "%d\t%s\n" id
        (Jsonout.to_string (Jsonout.List (List.map (Api.result_json x) results))))
    (load_ids (arg "ids"))

let outcome_string = function
  | Trace.Completed -> "completed"
  | Trace.Deadlocked _ -> "deadlocked"
  | Trace.Fuel_exhausted -> "fuel_exhausted"

(* One request through the calls [Api.handle_line] makes, each under
   its layer's span, with the session's counters folded into [total].
   Each query is answered by [Api.answers] under the span of the layer
   it calls into.  Returns the response line, which run.py compares
   with the daemon's. *)
let handle_traced (config : Api.config) total line =
  let req = Span.with_ "api.decode" (fun () -> decode_request line) in
  let engine =
    match (req.Api.engine, config.Api.engine) with
    | Some e, _ | None, Some e -> e
    | None, None -> Engine.default_of_env ()
  in
  Engine.set engine;
  let model =
    match (req.Api.model, config.Api.model) with
    | Some m, _ | None, Some m -> m
    | None, None -> Memmodel.default_of_env ()
  in
  Memmodel.set model;
  let trace = Span.with_ "prog.interp" (fun () -> run_program req) in
  let x = Span.with_ "model.execution" (fun () -> Trace.to_execution trace) in
  let tel = Telemetry.create () in
  let session, key =
    Span.with_ "feasible.session" (fun () ->
        let s =
          Session.of_execution ~jobs:config.Api.jobs ~stats:tel
            ~cache:config.Api.cache x
        in
        Triage.attach s;
        (s, Program_key.hash (Session.key s)))
  in
  let results =
    List.concat_map
      (fun q ->
        let layer =
          match Api.query_of_string q with
          | Api.Relations -> "core.relations"
          | Api.Races -> "race.races"
          | Api.Pair _ -> "core.pair"
          | _ -> die "query %S is not part of this workload" q
        in
        Span.with_ layer (fun () -> Api.answers session trace x [ q ]))
      req.Api.queries
  in
  let response =
    Span.with_ "api.render" (fun () ->
        Jsonout.to_string
          (Jsonout.Obj
             [
               ("schema", Jsonout.Str "eventorder.response/1");
               ( "status",
                 Jsonout.Str
                   (if Budget.exhausted (Session.budget session) then "timeout"
                    else "ok") );
               ("op", Jsonout.Str "batch");
               ("events", Jsonout.Int (Trace.n_events trace));
               ("outcome", Jsonout.Str (outcome_string trace.Trace.outcome));
               ("program_key", Jsonout.Str key);
               ("engine", Jsonout.Str (Engine.to_string engine));
               ("model", Jsonout.Str (Memmodel.to_string model));
               ("jobs", Jsonout.Int config.Api.jobs);
               ("results", Jsonout.List (List.map (Api.result_json x) results));
             ]))
  in
  Counters.merge_into ~dst:total (Telemetry.counters tel);
  response

(* The daemon's work for a request sequence, in process: prime the hot
   set as the daemon was primed, then replay the sequence.  Untraced,
   each request is one [Api.handle_line]; traced, it is split into the
   layer calls above.  Writes each response line to --out, prints the
   per-request handling times in ms (one line) and then the summary
   object. *)
let serve_replay () =
  let dir = arg "dir" in
  let programs = load_programs dir in
  let config = Api.default_config () in
  let handle line = Jsonout.to_string (Api.handle_line config line).Api.response in
  for id = 0 to hot_count - 1 do
    ignore (handle programs.(id))
  done;
  let ids = load_ids (arg "ids") in
  let total = Counters.create () in
  Span.on := traced ();
  let timed =
    List.mapi
      (fun i id ->
        let t0 = now () in
        let response =
          Span.op i (fun () ->
              if !Span.on then handle_traced config total programs.(id)
              else handle programs.(id))
        in
        (now () -. t0, response))
      ids
  in
  write_lines (arg "out") (List.map snd timed);
  print_endline
    (String.concat " "
       (List.map (fun (t, _) -> Printf.sprintf "%.4f" (t *. 1000.)) timed));
  if !Span.on then Span.dump (dir // "spans.jsonl");
  emit
    ([ ("ops", Jsonout.Int (List.length ids)) ]
    @ counters_json total
        [
          ("cache_memory_hits", Counters.Cache_memory_hits);
          ("cache_misses", Counters.Cache_misses);
          ("enum_nodes", Counters.Enum_nodes);
          ("reach_memo_hits", Counters.Reach_memo_hits);
          ("reach_memo_misses", Counters.Reach_memo_misses);
          ("tier_hits_approx", Counters.Triage_approx_hits);
          ("tier_hits_reach", Counters.Triage_reach_hits);
          ("tier_hits_sat", Counters.Triage_sat_hits);
          ("tier_hits_enum", Counters.Triage_enum_hits);
          ("escalations", Counters.Triage_escalations);
        ]
    @ Span.summary ())

(* ------------------------------------------------------------------ *)
(* sat_reductions                                                      *)
(* ------------------------------------------------------------------ *)

(* An unsatisfiable implication chain over n variables in a seeded order
   and polarity: l1, l1 -> l2, ..., l(n-1) -> ln, not ln. *)
let chain rng n =
  let order = Array.of_list (shuffle rng (List.init n (fun i -> i + 1))) in
  let lit i = if Random.State.bool rng then order.(i) else -order.(i) in
  let lits = Array.init n lit in
  Cnf.make ~num_vars:n
    (shuffle rng
       ([ [ lits.(0); lits.(0); lits.(0) ] ]
       @ List.init (n - 1) (fun i ->
             [ -lits.(i); -lits.(i); lits.(i + 1) ])
       @ [ [ -lits.(n - 1); -lits.(n - 1); -lits.(n - 1) ] ]))

(* All eight sign patterns over three variables (unsatisfiable), clause
   and literal order seeded. *)
let signs rng =
  Cnf.make ~num_vars:3
    (shuffle rng (List.map (shuffle rng) (Sat_gen.all_sign_patterns [ 1; 2; 3 ])))

let planted vars clauses rng =
  Sat_gen.planted_3cnf ~seed:(Random.State.bits rng) ~num_vars:vars
    ~num_clauses:clauses

(* One cycle of instances, 60 to 100 events each, with a fixed size and
   satisfiability mix; the seed changes only the formulas. *)
let templates =
  [
    ("planted-3x4/sem", `Sem, planted 3 4);
    ("planted-3x5/sem", `Sem, planted 3 5);
    ("chain-4/sem", `Sem, fun rng -> chain rng 4);
    ("planted-3x5/evt", `Evt, planted 3 5);
    ("chain-4/evt", `Evt, fun rng -> chain rng 4);
    ("planted-4x6/sem", `Sem, planted 4 6);
    ("signs-3/evt", `Evt, signs);
    ("planted-4x6/evt", `Evt, planted 4 6);
    ("planted-3x7/sem", `Sem, planted 3 7);
    ("signs-3/sem", `Sem, signs);
  ]

(* Writes I.eotrace (the reduction program's observed execution) per
   instance, and sat.manifest: one "I TEMPLATE EVENTS DIMACS" line per
   instance, with the formula's DIMACS lines joined by ';'. *)
let sat_inputs dir =
  let rng = Random.State.make [| int_arg "seed"; 0x5a7 |] in
  let only = Hashtbl.find_opt args "templates" |> Option.map int_of_string in
  let templates = List.filteri (fun i _ -> Option.fold ~none:true ~some:(fun k -> i < k) only) templates in
  let manifest = ref [] and i = ref 0 in
  for _ = 1 to int_arg "cycles" do
    List.iter
      (fun (name, red, make) ->
        let f = make rng in
        let trace =
          match red with
          | `Sem -> Reduction_sem.trace (Reduction_sem.build f)
          | `Evt -> Reduction_evt.trace (Reduction_evt.build f)
        in
        let events = Trace.n_events trace in
        Trace_io.save (dir // Printf.sprintf "%d.eotrace" !i) trace;
        let dimacs = String.map (fun c -> if c = '\n' then ';' else c) (Dimacs.to_string f) in
        manifest := Printf.sprintf "%d %s %d %s" !i name events dimacs :: !manifest;
        incr i)
      templates
  done;
  write_lines (dir // "sat.manifest") (List.rev !manifest)

let manifest dir =
  List.map
    (fun l -> Scanf.sscanf l "%d %s %d %[^\n]" (fun i _ _ dimacs -> (i, dimacs)))
    (read_lines (dir // "sat.manifest"))

(* DPLL's verdict on each formula: MHB(a,b) must hold iff "unsat",
   CHB(b,a) iff "sat". *)
let sat_ref () =
  let dir = arg "dir" in
  List.iter
    (fun (i, dimacs) ->
      Printf.printf "%d %s\n" i
        (if Dpll.is_satisfiable (Dimacs.parse (String.map (fun c -> if c = ';' then '\n' else c) dimacs))
         then "sat" else "unsat"))
    (manifest dir)

(* The first [count] instances through the layers the sat engine runs:
   build the execution, its skeleton and the feasibility CNF, then the
   two solver probes MHB(a,b) and CHB(b,a) rest on.  Prints one
   "I MHB CHB" line per instance, then the summary object. *)
let sat_replay () =
  let dir = arg "dir" in
  let instances = List.filteri (fun i _ -> i < int_arg "count") (manifest dir) in
  Span.on := traced ();
  let c = if !Span.on then Counters.create () else Counters.null in
  let t0 = now () in
  List.iter
    (fun (i, _) ->
      let mhb, chb =
        Span.op i (fun () ->
            let trace =
              Span.with_ "prog.load" (fun () ->
                  Trace_io.load (dir // Printf.sprintf "%d.eotrace" i))
            in
            let x = Span.with_ "model.execution" (fun () -> Trace.to_execution trace) in
            let a = (Trace.find_event trace "a").Event.id
            and b = (Trace.find_event trace "b").Event.id in
            let sk = Span.with_ "feasible.skeleton" (fun () -> Skeleton.of_execution x) in
            let enc =
              Span.with_ "encode.build" (fun () ->
                  Encode.build ~stats:c (Session.encode_program sk))
            in
            Span.with_ "sat.solve" (fun () ->
                let feasible = Encode.feasible_witness enc <> None in
                let b_first = Encode.exists_before_witness enc b a <> None in
                (feasible && not b_first, b_first)))
      in
      Printf.printf "%d %b %b\n" i mhb chb)
    instances;
  let wall = now () -. t0 in
  if !Span.on then Span.dump (dir // "spans.jsonl");
  emit
    ([ ("ops", Jsonout.Int (List.length instances)); ("wall_ms", ms wall) ]
    @ counters_json c
        [
          ("encoder_vars", Counters.Encoder_vars);
          ("encoder_clauses", Counters.Encoder_clauses);
          ("solver_conflicts", Counters.Solver_conflicts);
          ("solver_propagations", Counters.Solver_propagations);
        ]
    @ Span.summary ())

(* ------------------------------------------------------------------ *)

let () =
  if Array.length Sys.argv < 2 then die "usage: probe.exe SUBCOMMAND [--key value ...]";
  match Sys.argv.(1) with
  | "version" -> emit [ ("ocaml", Jsonout.Str Sys.ocaml_version) ]
  | "mesh-inputs" -> repeated mesh_inputs
  | "mesh-op" -> mesh_op ()
  | "serve-inputs" -> serve_inputs ()
  | "serve-ref" -> serve_ref ()
  | "serve-replay" -> serve_replay ()
  | "sat-inputs" -> repeated sat_inputs
  | "sat-ref" -> sat_ref ()
  | "sat-replay" -> sat_replay ()
  | s -> die "unknown subcommand %S" s
