(* The request-API layer is the one dispatcher both the [batch]
   subcommand and the analysis server route through, so its contract is
   differential: whatever arrives as an [eventorder.request/1] line must
   produce byte-identical results to the in-process [Api.answers] path,
   which in turn must agree with the legacy one-shot analyses.  Plus the
   hand-written JSON parser, which the server trusts with untrusted
   bytes, round-trips everything [Jsonout] can print and rejects the
   classic malformed shapes. *)

let qcheck = QCheck_alcotest.to_alcotest
let small_execution = Test_session.small_execution
let same_summary = Test_session.same_summary
let same_races = Test_session.same_races
let with_engine = Test_session.with_engine

(* ------------------------------------------------------------------ *)
(* Jsonin: parse (print doc) = doc                                     *)
(* ------------------------------------------------------------------ *)

(* Floats are excluded: Jsonout prints them with a fixed format, so the
   round-trip holds only up to formatting.  Everything else must be
   exact. *)
let json_gen =
  let open QCheck.Gen in
  let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  let str = string_size ~gen:printable (int_bound 8) in
  let scalar =
    oneof
      [
        map (fun n -> Jsonout.Int n) small_signed_int;
        map (fun s -> Jsonout.Str s) str;
        map (fun b -> Jsonout.Bool b) bool;
        return Jsonout.Null;
      ]
  in
  sized_size (int_bound 8)
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (2, scalar);
               ( 1,
                 map
                   (fun l -> Jsonout.List l)
                   (list_size (int_bound 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun l -> Jsonout.Obj l)
                   (list_size (int_bound 4) (pair key (self (n / 2)))) );
             ])

let arbitrary_json =
  QCheck.make ~print:Jsonout.to_string json_gen

let test_jsonin_roundtrip =
  QCheck.Test.make ~name:"Jsonin.parse inverts Jsonout printing" ~count:200
    arbitrary_json (fun doc ->
      (match Jsonin.parse (Jsonout.to_string doc) with
      | Ok v when v = doc -> ()
      | Ok _ -> QCheck.Test.fail_reportf "compact round-trip changed the doc"
      | Error e -> QCheck.Test.fail_reportf "compact rejected: %s" e);
      (match Jsonin.parse (Jsonout.to_string_pretty doc) with
      | Ok v when v = doc -> ()
      | Ok _ -> QCheck.Test.fail_reportf "pretty round-trip changed the doc"
      | Error e -> QCheck.Test.fail_reportf "pretty rejected: %s" e);
      true)

let ok_doc s =
  match Jsonin.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "%S rejected: %s" s e

let rejects s =
  match Jsonin.parse s with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%S should have been rejected" s

let test_jsonin_edges () =
  (* Every escape form, including a surrogate pair, decodes to UTF-8. *)
  (match ok_doc {|"a\"b\\c\/dAé😀\n\t"|} with
  | Jsonout.Str s ->
      Alcotest.(check string)
        "escapes" "a\"b\\c/dA\xc3\xa9\xf0\x9f\x98\x80\n\t" s
  | _ -> Alcotest.fail "escape test: not a string");
  Alcotest.(check bool)
    "numbers" true
    (ok_doc "[-0, 42, 3.5, 1e3]"
    = Jsonout.List
        [ Jsonout.Int 0; Jsonout.Int 42; Jsonout.Float 3.5; Jsonout.Float 1e3 ]);
  (* Integers past the native range degrade to float, not an error. *)
  (match ok_doc "123456789123456789123456789" with
  | Jsonout.Float _ -> ()
  | _ -> Alcotest.fail "big integer should parse as a float");
  Alcotest.(check bool)
    "empty containers" true
    (ok_doc " { } " = Jsonout.Obj [] && ok_doc " [ ] " = Jsonout.List []);
  (* Malformed shapes the server must survive. *)
  rejects "";
  rejects "{";
  rejects "true x";
  rejects "\"a\nb\"" (* raw control byte inside a string *);
  rejects {|"\ud800"|} (* lone high surrogate *);
  rejects {|"\udc00"|} (* lone low surrogate *);
  rejects {|"\ud83dx"|} (* high surrogate without its pair *);
  rejects {|"\q"|};
  (* The depth cap turns a nesting bomb into an error, not a stack
     overflow; sane nesting stays fine. *)
  rejects (String.make 600 '[' ^ String.make 600 ']');
  ignore (ok_doc (String.make 100 '[' ^ String.make 100 ']'))

(* ------------------------------------------------------------------ *)
(* Api.answers = the legacy one-shot analyses                          *)
(* ------------------------------------------------------------------ *)

let fixed_queries = [ "relations"; "reduced"; "races"; "first"; "schedules" ]

let test_answers_match_legacy =
  QCheck.Test.make ~name:"Api.answers = legacy one-shot analyses" ~count:20
    Gen_progs.arbitrary_program (fun prog ->
      QCheck.assume (small_execution prog <> None);
      QCheck.assume (Gen_progs.completed_trace prog <> None);
      let trace = Option.get (Gen_progs.completed_trace prog) in
      let x = Trace.to_execution trace in
      let sk = Skeleton.of_execution x in
      let ref_full = Relations.compute_enumerated sk in
      let ref_reduced = Relations.compute_reduced sk in
      let ref_races = Race.feasible_races x in
      let ref_first = Gen_progs.first_races x in
      List.iter
        (fun engine ->
          with_engine engine @@ fun () ->
          let name = Engine.to_string engine in
          let session = Session.of_execution ~cache:Session.no_cache x in
          let results = Api.answers session trace x fixed_queries in
          List.iter
            (fun (r : Api.result) ->
              if r.Api.timed_out then
                QCheck.Test.fail_reportf "%s: %s timed out without a deadline"
                  name r.Api.query;
              match (r.Api.query, r.Api.answer) with
              | "relations", Api.Summary s -> same_summary name ref_full s
              | "reduced", Api.Summary s -> same_summary name ref_reduced s
              | "races", Api.Race_list l -> same_races name ref_races l
              | "first", Api.Race_list l -> same_races name ref_first l
              | "schedules", Api.Count n ->
                  if n <> ref_full.Relations.feasible_count then
                    QCheck.Test.fail_reportf "%s: schedules %d vs %d" name n
                      ref_full.Relations.feasible_count
              | q, _ ->
                  QCheck.Test.fail_reportf "%s: %s answered the wrong shape"
                    name q)
            results)
        [ Engine.Naive; Engine.Packed ];
      true)

let test_pair_queries_match_decide =
  QCheck.Test.make ~name:"Api pair queries = Decide across engines" ~count:12
    Gen_progs.arbitrary_program (fun prog ->
      QCheck.assume (small_execution prog <> None);
      QCheck.assume (Gen_progs.completed_trace prog <> None);
      let trace = Option.get (Gen_progs.completed_trace prog) in
      let x = Trace.to_execution trace in
      let n = Execution.n_events x in
      QCheck.assume (n >= 2);
      let a = 0 and b = n - 1 in
      let queries =
        List.map
          (fun rel -> Printf.sprintf "%s:%d:%d" (Api.relation_key rel) a b)
          Relations.all_relations
      in
      List.iter
        (fun engine ->
          with_engine engine @@ fun () ->
          let name = Engine.to_string engine in
          let d = Decide.create x in
          let session = Session.of_execution ~cache:Session.no_cache x in
          let results = Api.answers session trace x queries in
          List.iter2
            (fun rel (r : Api.result) ->
              match r.Api.answer with
              | Api.Holds { holds; _ } ->
                  if holds <> Decide.holds d rel a b then
                    QCheck.Test.fail_reportf "%s: %s:%d:%d disagrees with \
                                              Decide"
                      name (Api.relation_key rel) a b
              | _ ->
                  QCheck.Test.fail_reportf "%s: pair query answered the \
                                            wrong shape" name)
            Relations.all_relations results)
        [ Engine.Naive; Engine.Packed; Engine.Sat ];
      true)

(* ------------------------------------------------------------------ *)
(* handle_line (the wire path) = Api.answers (the in-process path)     *)
(* ------------------------------------------------------------------ *)

let test_config : Api.config =
  {
    Api.engine = None;
    model = None;
    limit = None;
    jobs = 2;
    max_events = 40;
    timeout_ms = None;
    cache = Session.no_cache;
  }

let obj_field doc name =
  match doc with
  | Jsonout.Obj fields -> List.assoc_opt name fields
  | _ -> None

let str_field doc name =
  match obj_field doc name with Some (Jsonout.Str s) -> Some s | _ -> None

let request_line ?engine ~trace queries =
  Jsonout.to_string
    (Jsonout.Obj
       ([ ("schema", Jsonout.Str "eventorder.request/1");
          ("id", Jsonout.Int 7);
          ("trace", Jsonout.Str (Trace_io.to_string trace));
          ( "queries",
            Jsonout.List (List.map (fun q -> Jsonout.Str q) queries) );
        ]
       @ match engine with
         | Some e -> [ ("engine", Jsonout.Str (Engine.to_string e)) ]
         | None -> []))

let test_handle_line_matches_answers =
  QCheck.Test.make
    ~name:"handle_line response results = direct Api.answers JSON" ~count:15
    Gen_progs.arbitrary_program (fun prog ->
      QCheck.assume (small_execution prog <> None);
      QCheck.assume (Gen_progs.completed_trace prog <> None);
      let trace = Option.get (Gen_progs.completed_trace prog) in
      let x = Trace.to_execution trace in
      let queries = fixed_queries @ [ "mhb:0:0" ] in
      with_engine (Engine.current ()) @@ fun () ->
      let h =
        Api.handle_line test_config
          (request_line ~engine:Engine.Packed ~trace queries)
      in
      if h.Api.shutdown then
        QCheck.Test.fail_reportf "a batch request asked for shutdown";
      let resp = h.Api.response in
      if str_field resp "schema" <> Some "eventorder.response/1" then
        QCheck.Test.fail_reportf "wrong response schema";
      if obj_field resp "id" <> Some (Jsonout.Int 7) then
        QCheck.Test.fail_reportf "request id not echoed";
      if str_field resp "status" <> Some "ok" then
        QCheck.Test.fail_reportf "unlimited request not ok";
      if str_field resp "engine" <> Some (Engine.to_string Engine.Packed) then
        QCheck.Test.fail_reportf "request engine not honoured";
      let expected =
        with_engine Engine.Packed @@ fun () ->
        let session = Session.of_execution ~jobs:2 ~cache:Session.no_cache x in
        Jsonout.List
          (List.map (Api.result_json x) (Api.answers session trace x queries))
      in
      (match obj_field resp "results" with
      | Some got when got = expected -> ()
      | Some _ ->
          QCheck.Test.fail_reportf "wire results differ from Api.answers"
      | None -> QCheck.Test.fail_reportf "response carries no results");
      true)

(* The per-request engine must resolve from the request, then the server
   config, then the environment default — never from whatever engine the
   previous request happened to leave in the domain. *)
let test_engine_resolution () =
  let prog = Parse.program "proc a { x := 1 }\nproc b { y := x }" in
  match Gen_progs.completed_trace prog with
  | None -> Alcotest.fail "example program did not complete"
  | Some trace ->
      let check expect line_engine cfg_engine =
        with_engine Engine.Sat @@ fun () ->
        let cfg = { test_config with Api.engine = cfg_engine } in
        let h =
          Api.handle_line cfg
            (request_line ?engine:line_engine ~trace [ "schedules" ])
        in
        Alcotest.(check (option string))
          "resolved engine"
          (Some (Engine.to_string expect))
          (str_field h.Api.response "engine")
      in
      check Engine.Naive (Some Engine.Naive) (Some Engine.Packed);
      check Engine.Naive None (Some Engine.Naive);
      (* Neither side names one: the environment default wins, not the
         Sat engine the previous request left behind. *)
      check (Engine.default_of_env ()) None None

(* ------------------------------------------------------------------ *)
(* Error codes and control ops                                         *)
(* ------------------------------------------------------------------ *)

let expect_error ?allow_shutdown code line =
  let h = Api.handle_line ?allow_shutdown test_config line in
  Alcotest.(check (option string))
    ("schema of " ^ line) (Some "eventorder.error/1")
    (str_field h.Api.response "schema");
  Alcotest.(check (option string))
    ("code of " ^ line)
    (Some (Api.code_string code))
    (str_field h.Api.response "code");
  Alcotest.(check bool) "no shutdown on error" false h.Api.shutdown

let test_error_codes () =
  expect_error Api.Parse "{nope";
  expect_error Api.Parse "";
  (* Structurally valid JSON, invalid requests. *)
  expect_error Api.Usage {|{"op":"batch"}|} (* missing schema *);
  expect_error Api.Usage {|{"schema":"eventorder.request/2","op":"ping"}|};
  expect_error Api.Usage
    {|{"schema":"eventorder.request/1","op":"frobnicate"}|};
  expect_error Api.Usage
    {|{"schema":"eventorder.request/1","program":"proc p { x := 1 }"}|}
    (* no queries *);
  expect_error Api.Usage
    {|{"schema":"eventorder.request/1","queries":["relations"]}|}
    (* neither program nor trace *);
  expect_error Api.Usage
    {|{"schema":"eventorder.request/1","program":"proc p { x := 1 }","trace":"x","queries":["relations"]}|};
  expect_error Api.Parse
    {|{"schema":"eventorder.request/1","program":"proc p { ?? }","queries":["relations"]}|};
  expect_error Api.Usage
    {|{"schema":"eventorder.request/1","program":"proc p { x := 1 }","queries":["nonsense"]}|};
  expect_error Api.Usage
    {|{"schema":"eventorder.request/1","program":"proc p { x := 1 }","queries":["relations"],"timeout_ms":0}|};
  (* Shutdown is refused unless the transport opts in. *)
  expect_error Api.Usage {|{"schema":"eventorder.request/1","op":"shutdown"}|};
  (* The id is echoed even when the request fails validation. *)
  let h =
    Api.handle_line test_config
      {|{"schema":"eventorder.request/1","id":"req-9","op":"frobnicate"}|}
  in
  Alcotest.(check (option string))
    "id echoed on error" (Some "req-9")
    (str_field h.Api.response "id")

let test_control_ops () =
  let ping =
    Api.handle_line test_config
      {|{"schema":"eventorder.request/1","op":"ping"}|}
  in
  Alcotest.(check (option string))
    "ping ok" (Some "ok")
    (str_field ping.Api.response "status");
  Alcotest.(check (option string))
    "ping op" (Some "ping")
    (str_field ping.Api.response "op");
  let stats =
    Api.handle_line
      ~extra_stats:(fun () -> [ ("requests_served", Jsonout.Int 3) ])
      test_config
      {|{"schema":"eventorder.request/1","op":"stats"}|}
  in
  Alcotest.(check (option string))
    "stats schema" (Some "eventorder.stats/1")
    (str_field stats.Api.response "schema");
  Alcotest.(check bool)
    "extra stats merged" true
    (obj_field stats.Api.response "requests_served" = Some (Jsonout.Int 3));
  let stop =
    Api.handle_line ~allow_shutdown:true test_config
      {|{"schema":"eventorder.request/1","op":"shutdown"}|}
  in
  Alcotest.(check bool) "shutdown flagged" true stop.Api.shutdown;
  Alcotest.(check (option string))
    "shutdown op" (Some "shutdown")
    (str_field stop.Api.response "op")

(* A request limit below 1 is refused like jobs and timeout_ms, instead
   of enumerating one schedule and reporting a truncated summary. *)
let test_limit_below_one () =
  List.iter
    (fun limit ->
      expect_error Api.Usage
        (Printf.sprintf
           {|{"schema":"eventorder.request/1","program":"proc p { x := 1 }","queries":["relations"],"limit":%d}|}
           limit))
    [ 0; -1 ]

(* An exception escaping the answering code is a defect, not an input
   error: it becomes one [internal] error document, and the same config
   answers the next request normally. *)
let test_internal_error () =
  let line =
    {|{"schema":"eventorder.request/1","id":3,"program":"proc a { x := 1 }\nproc b { y := x }","queries":["schedules"]}|}
  in
  let h =
    Api.handle_line ~serialize:(fun _ _ -> raise Not_found) test_config line
  in
  Alcotest.(check (option string))
    "internal code" (Some "internal")
    (str_field h.Api.response "code");
  Alcotest.(check bool)
    "id echoed" true
    (obj_field h.Api.response "id" = Some (Jsonout.Int 3));
  let next = Api.handle_line test_config line in
  Alcotest.(check (option string))
    "next request ok" (Some "ok")
    (str_field next.Api.response "status")

(* Each vocabulary is declared once, in [Config].  The typed parsers
   accept a name iff some value of [all] prints as it, so [all] printing
   as exactly the Config names pins both directions: every Config name
   parses and round-trips, and nothing else (an alias, a case or blank
   variant) parses. *)
let test_vocabularies () =
  let check what names all of_string to_string =
    Alcotest.(check (list string))
      (what ^ ": every value prints as a Config name, in order")
      names (List.map to_string all);
    List.iter
      (fun name ->
        match of_string name with
        | Some v ->
            Alcotest.(check string) (what ^ " round-trips") name (to_string v)
        | None -> Alcotest.failf "%s %S rejected by of_string" what name)
      names;
    List.iter
      (fun name ->
        Alcotest.(check bool) (what ^ " rejects " ^ name) true
          (of_string name = None))
      [ ""; "bogus"; "sc "; " packed"; "SC"; "Packed"; "armv8" ]
  in
  check "engine" Config.engine_names Engine.all Engine.of_string
    Engine.to_string;
  check "model" Config.model_names Memmodel.all Memmodel.of_string
    Memmodel.to_string

let test_op_classification () =
  let parsed line = Result.get_ok (Jsonin.parse line) in
  let classify line =
    match Jsonin.parse line with
    | Ok doc -> Api.request_op doc
    | Error _ -> None
  in
  Alcotest.(check bool)
    "batch routes to the queue" true
    (classify {|{"schema":"eventorder.request/1","op":"batch"}|}
    = Some Api.Batch);
  Alcotest.(check bool)
    "missing op defaults to batch" true
    (classify {|{"schema":"eventorder.request/1"}|} = Some Api.Batch);
  Alcotest.(check bool)
    "stats stays inline" true
    (classify {|{"schema":"eventorder.request/1","op":"stats"}|}
    = Some Api.Stats);
  Alcotest.(check bool)
    "garbage is unclassifiable" true
    (classify "{nope" = None);
  Alcotest.(check bool)
    "a non-object is unclassifiable" true
    (classify "[1]" = None);
  Alcotest.(check bool)
    "id recovery survives bad requests" true
    (Api.request_id (parsed {|{"id":41,"op":"frobnicate"}|})
    = Some (Jsonout.Int 41));
  Alcotest.(check bool)
    "an object id is not recovered" true
    (Api.request_id (parsed {|{"id":{"a":1}}|}) = None)

(* ---- request framing (the daemon's read side) ---- *)

let frame ?max_line pieces =
  let f = Server.framer ?max_line () in
  let lines = ref [] in
  let ok =
    List.for_all
      (fun piece ->
        Server.feed f (Bytes.of_string piece) 0 (String.length piece)
          (fun line -> lines := line :: !lines))
      pieces
  in
  (ok, List.rev !lines)

(* Any split of a byte stream frames the same lines: those the stream
   completes, the tail left pending.  Each piece sits inside a larger
   read buffer, as the daemon's reads do. *)
let test_framing_any_split =
  let gen =
    QCheck.Gen.(
      string_size ~gen:(oneofl [ 'a'; 'b'; ' '; '\n'; '{'; '\xff' ]) (int_bound 200)
      >>= fun stream ->
      list_size (int_bound 8) (int_bound (String.length stream))
      >>= fun cuts -> return (stream, List.sort_uniq compare cuts))
  in
  QCheck.Test.make ~name:"framing: any split yields the same lines" ~count:500
    (QCheck.make ~print:(fun (s, _) -> String.escaped s) gen)
    (fun (stream, cuts) ->
      let bounds = (0 :: cuts) @ [ String.length stream ] in
      let rec pieces = function
        | a :: (b :: _ as rest) -> String.sub stream a (b - a) :: pieces rest
        | [ _ ] | [] -> []
      in
      let f = Server.framer () in
      let lines = ref [] in
      let junk = Bytes.make 300 'z' in
      List.iter
        (fun piece ->
          let off = 7 in
          Bytes.blit_string piece 0 junk off (String.length piece);
          if
            not
              (Server.feed f junk off (String.length piece) (fun l ->
                   lines := l :: !lines))
          then QCheck.Test.fail_report "a short line was refused")
        (pieces bounds);
      let want =
        match List.rev (String.split_on_char '\n' stream) with
        | _pending :: complete -> List.rev complete
        | [] -> []
      in
      List.rev !lines = want)

let test_framing_cap () =
  let check name want (ok, lines) =
    Alcotest.(check (pair bool (list string))) name want (ok, lines)
  in
  let line k = String.make k 'x' in
  check "a line at the cap passes" (true, [ line 10 ]) (frame ~max_line:10 [ line 10 ^ "\n" ]);
  check "a complete line past the cap is refused" (false, [ "ok" ])
    (frame ~max_line:10 [ "ok\n" ^ line 11 ^ "\nnext\n" ]);
  check "a pending line past the cap is refused" (false, [])
    (frame ~max_line:10 [ line 6; line 5 ]);
  check "the pending tail is not a line" (true, [ "a"; "" ])
    (frame ~max_line:10 [ "a\n\nb" ])

let suite =
  [
    qcheck test_jsonin_roundtrip;
    Alcotest.test_case "jsonin edge cases" `Quick test_jsonin_edges;
    qcheck test_answers_match_legacy;
    qcheck test_pair_queries_match_decide;
    qcheck test_handle_line_matches_answers;
    Alcotest.test_case "engine resolution order" `Quick test_engine_resolution;
    Alcotest.test_case "error codes" `Quick test_error_codes;
    Alcotest.test_case "control ops" `Quick test_control_ops;
    Alcotest.test_case "op classification" `Quick test_op_classification;
    qcheck test_framing_any_split;
    Alcotest.test_case "framing refuses an oversized line" `Quick
      test_framing_cap;
    Alcotest.test_case "request limit below 1" `Quick test_limit_below_one;
    Alcotest.test_case "internal errors" `Quick test_internal_error;
    Alcotest.test_case "engine and model vocabularies" `Quick test_vocabularies;
  ]
