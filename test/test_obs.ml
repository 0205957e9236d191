(* Unit tests for the telemetry subsystem: counter semantics, JSON
   construction, config precedence, and the report type. *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_null_is_inert () =
  let c = Counters.null in
  Alcotest.(check bool) "disabled" false (Counters.enabled c);
  Counters.bump c Counters.Enum_nodes;
  Counters.add c Counters.Enum_pops 7;
  Counters.set c Counters.Classes 3;
  Counters.add_time c Counters.T_total 1.0;
  Alcotest.(check int) "bump ignored" 0 (Counters.get c Counters.Enum_nodes);
  Alcotest.(check int) "add ignored" 0 (Counters.get c Counters.Enum_pops);
  Alcotest.(check int) "set ignored" 0 (Counters.get c Counters.Classes);
  Alcotest.(check (float 0.0)) "time ignored" 0.0
    (Counters.get_time c Counters.T_total)

let test_counter_arithmetic () =
  let c = Counters.create () in
  Alcotest.(check bool) "enabled" true (Counters.enabled c);
  List.iter
    (fun k -> Alcotest.(check int) "starts at zero" 0 (Counters.get c k))
    Counters.all_keys;
  Counters.bump c Counters.Enum_nodes;
  Counters.bump c Counters.Enum_nodes;
  Counters.add c Counters.Enum_nodes 3;
  Alcotest.(check int) "bump + add" 5 (Counters.get c Counters.Enum_nodes);
  Counters.set c Counters.Classes 9;
  Counters.set c Counters.Classes 4;
  Alcotest.(check int) "set overwrites" 4 (Counters.get c Counters.Classes)

let test_timer_accumulates () =
  let c = Counters.create () in
  let v = Counters.time c Counters.T_total (fun () -> 41 + 1) in
  Alcotest.(check int) "thunk result" 42 v;
  Counters.add_time c Counters.T_total 1.5;
  Alcotest.(check bool) "time accumulated" true
    (Counters.get_time c Counters.T_total >= 1.5);
  (* A raising thunk still records its time. *)
  (try Counters.time c Counters.T_split (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "exception-safe" true
    (Counters.get_time c Counters.T_split >= 0.0)

let test_merge_into () =
  let dst = Counters.create () and src = Counters.create () in
  Counters.add dst Counters.Enum_nodes 2;
  Counters.add src Counters.Enum_nodes 5;
  Counters.add src Counters.Por_reps 1;
  Counters.add_time src Counters.T_enumerate 0.25;
  Counters.merge_into ~dst src;
  Alcotest.(check int) "counts summed" 7 (Counters.get dst Counters.Enum_nodes);
  Alcotest.(check int) "new key copied" 1 (Counters.get dst Counters.Por_reps);
  Alcotest.(check bool) "times summed" true
    (Counters.get_time dst Counters.T_enumerate >= 0.25);
  (* Merging into or from the null instance is a no-op. *)
  Counters.merge_into ~dst:Counters.null src;
  Counters.merge_into ~dst Counters.null;
  Alcotest.(check int) "null merge no-op" 7
    (Counters.get dst Counters.Enum_nodes)

let test_key_names_distinct () =
  let names = List.map Counters.key_name Counters.all_keys in
  Alcotest.(check int) "all names distinct"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  let timer_names = List.map Counters.timer_name Counters.all_timers in
  Alcotest.(check int) "timer names distinct"
    (List.length timer_names)
    (List.length (List.sort_uniq compare timer_names))

let test_jsonout_compact () =
  let doc =
    Jsonout.Obj
      [
        ("s", Jsonout.Str "a\"b\n");
        ("i", Jsonout.Int (-3));
        ("f", Jsonout.Float 1.5);
        ("b", Jsonout.Bool true);
        ("n", Jsonout.Null);
        ("l", Jsonout.List [ Jsonout.Int 1; Jsonout.Int 2 ]);
      ]
  in
  Alcotest.(check string) "compact rendering"
    "{\"s\":\"a\\\"b\\n\",\"i\":-3,\"f\":1.500000,\"b\":true,\"n\":null,\"l\":[1,2]}"
    (Jsonout.to_string doc)

let test_jsonout_pretty () =
  let doc =
    Jsonout.Obj
      [ ("xs", Jsonout.List [ Jsonout.Int 1 ]); ("o", Jsonout.Obj []) ]
  in
  let s = Jsonout.to_string_pretty doc in
  Alcotest.(check bool) "trailing newline" true
    (String.length s > 0 && s.[String.length s - 1] = '\n');
  (* Scalar-only lists stay on one line. *)
  Alcotest.(check bool) "inline scalar list" true (contains s "\"xs\": [1]")

(* The writer against the one it replaced (Jsonout_ref), byte for byte,
   compact and pretty: trees of every shape whose ints include the
   extremes and whose strings and keys draw from all 256 bytes. *)
let json_gen =
  let open QCheck.Gen in
  let any_string =
    oneof
      [
        string_size ~gen:char (int_bound 12);
        string_size ~gen:printable (int_bound 12);
        return (String.init 256 Char.chr);
      ]
  in
  let ints =
    oneof
      [
        oneofl [ 0; 1; -1; 9; 10; -10; min_int; max_int; min_int + 1; max_int - 1 ];
        small_signed_int;
        int_range min_int max_int;
      ]
  in
  let floats =
    oneof
      [
        float;
        map float_of_int small_signed_int;
        oneofl [ 0.; -0.; 1e15; -1e15; 1.5; nan; infinity; neg_infinity ];
      ]
  in
  sized
  @@ fix (fun self n ->
         let scalar =
           oneof
             [
               return Jsonout.Null;
               map (fun b -> Jsonout.Bool b) bool;
               map (fun i -> Jsonout.Int i) ints;
               map (fun f -> Jsonout.Float f) floats;
               map (fun s -> Jsonout.Str s) any_string;
             ]
         in
         if n = 0 then scalar
         else
           frequency
             [
               (2, scalar);
               ( 1,
                 map
                   (fun xs -> Jsonout.List xs)
                   (list_size (int_bound 4) (self (n / 3))) );
               ( 1,
                 map
                   (fun fs -> Jsonout.Obj fs)
                   (list_size (int_bound 4) (pair any_string (self (n / 3)))) );
             ])

let test_writer_matches_reference =
  QCheck.Test.make ~name:"jsonout = the reference writer, compact and pretty"
    ~count:1000
    (QCheck.make ~print:Jsonout_ref.to_string json_gen)
    (fun v ->
      Jsonout.to_string v = Jsonout_ref.to_string v
      && Jsonout.to_line v = Jsonout_ref.to_string v ^ "\n"
      && Jsonout.to_string_pretty v = Jsonout_ref.to_string_pretty v)

let test_config_precedence () =
  Alcotest.(check int) "cli wins" 7
    (Config.resolve ~cli:(Some 7) ~env:(fun () -> 3));
  Alcotest.(check int) "env thunk otherwise" 3
    (Config.resolve ~cli:None ~env:(fun () -> 3));
  (* Unset variable falls back to the default without warning. *)
  Alcotest.(check int) "lookup default" 42
    (Config.lookup ~var:"EO_NO_SUCH_VARIABLE" ~expected:"an integer"
       ~default_text:"42" ~parse:int_of_string_opt ~default:42)

(* EO_JOBS never silently clamps: non-positive values are rejected with
   a diagnostic that names the rule, malformed ones with one that names
   the expectation. *)
let test_jobs_of_string () =
  (match Config.jobs_of_string "3" with
  | Ok 3 -> ()
  | _ -> Alcotest.fail "3 should parse");
  (match Config.jobs_of_string " 4 " with
  | Ok 4 -> ()
  | _ -> Alcotest.fail "whitespace should be trimmed");
  (match Config.jobs_of_string "0" with
  | Error msg ->
      Alcotest.(check bool) "0 rejected, not clamped" true
        (contains msg "rejecting" && contains msg "at least 1")
  | Ok j -> Alcotest.failf "0 accepted as %d" j);
  (match Config.jobs_of_string "-2" with
  | Error msg ->
      Alcotest.(check bool) "-2 rejected, not clamped" true
        (contains msg "rejecting EO_JOBS=-2")
  | Ok j -> Alcotest.failf "-2 accepted as %d" j);
  match Config.jobs_of_string "many" with
  | Error msg ->
      Alcotest.(check bool) "malformed diagnosed" true
        (contains msg "malformed" && contains msg "positive integer")
  | Ok j -> Alcotest.failf "\"many\" accepted as %d" j

(* EO_ENGINE never silently falls back: an unknown engine name is
   rejected with a diagnostic listing the valid engines, so a typo like
   "stat" cannot quietly run the packed engine instead. *)
let test_engine_of_string () =
  List.iter
    (fun name ->
      match Config.engine_of_string name with
      | Ok n -> Alcotest.(check string) (name ^ " accepted") name n
      | Error msg -> Alcotest.failf "%s rejected: %s" name msg)
    Config.engine_names;
  (match Config.engine_of_string " SAT " with
  | Ok "sat" -> ()
  | Ok n -> Alcotest.failf "\" SAT \" parsed as %s" n
  | Error _ -> Alcotest.fail "case and whitespace should be normalized");
  match Config.engine_of_string "frobnicate" with
  | Error msg ->
      Alcotest.(check bool) "unknown engine diagnosed" true
        (contains msg "rejecting EO_ENGINE=\"frobnicate\"");
      List.iter
        (fun name ->
          Alcotest.(check bool) ("lists " ^ name) true (contains msg name))
        Config.engine_names
  | Ok n -> Alcotest.failf "\"frobnicate\" accepted as %s" n

(* EO_CACHE_DIR must be absolute — a relative path would resolve against
   whatever the working directory happens to be. *)
let test_cache_dir_of_string () =
  (match Config.cache_dir_of_string "/tmp/eo-cache" with
  | Ok "/tmp/eo-cache" -> ()
  | _ -> Alcotest.fail "absolute path should parse");
  (match Config.cache_dir_of_string "relative/cache" with
  | Error msg ->
      Alcotest.(check bool) "relative rejected" true
        (contains msg "absolute path")
  | Ok d -> Alcotest.failf "relative path accepted as %s" d);
  match Config.cache_dir_of_string "  " with
  | Error msg ->
      Alcotest.(check bool) "empty diagnosed" true (contains msg "empty")
  | Ok d -> Alcotest.failf "blank accepted as %s" d

let test_cache_dir_env () =
  let with_env v f =
    let saved = Sys.getenv_opt "EO_CACHE_DIR" in
    Unix.putenv "EO_CACHE_DIR" v;
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "EO_CACHE_DIR" (Option.value saved ~default:""))
      f
  in
  with_env "/abs/cache" (fun () ->
      Alcotest.(check (option string)) "absolute accepted" (Some "/abs/cache")
        (Config.cache_dir ()));
  with_env "not/absolute" (fun () ->
      Alcotest.(check (option string)) "relative disables caching" None
        (Config.cache_dir ()));
  with_env "" (fun () ->
      Alcotest.(check (option string)) "unset means disabled" None
        (Config.cache_dir ()))

(* EO_TIMEOUT_MS follows the EO_JOBS discipline: non-positive values
   are rejected (a zero timeout would mean "always expired"), malformed
   ones diagnosed — never silently clamped. *)
let test_timeout_of_string () =
  (match Config.timeout_of_string "250" with
  | Ok 250 -> ()
  | _ -> Alcotest.fail "250 should parse");
  (match Config.timeout_of_string " 50 " with
  | Ok 50 -> ()
  | _ -> Alcotest.fail "whitespace should be trimmed");
  (match Config.timeout_of_string "0" with
  | Error msg ->
      Alcotest.(check bool) "0 rejected, not clamped" true
        (contains msg "rejecting" && contains msg "at least 1 ms")
  | Ok ms -> Alcotest.failf "0 accepted as %d" ms);
  (match Config.timeout_of_string "-100" with
  | Error msg ->
      Alcotest.(check bool) "-100 rejected" true
        (contains msg "rejecting EO_TIMEOUT_MS=-100")
  | Ok ms -> Alcotest.failf "-100 accepted as %d" ms);
  match Config.timeout_of_string "soon" with
  | Error msg ->
      Alcotest.(check bool) "malformed diagnosed" true
        (contains msg "malformed" && contains msg "millisecond")
  | Ok ms -> Alcotest.failf "\"soon\" accepted as %d" ms

let test_timeout_env () =
  let with_env v f =
    let saved = Sys.getenv_opt "EO_TIMEOUT_MS" in
    Unix.putenv "EO_TIMEOUT_MS" v;
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "EO_TIMEOUT_MS" (Option.value saved ~default:""))
      f
  in
  with_env "1500" (fun () ->
      Alcotest.(check (option int)) "valid accepted" (Some 1500)
        (Config.timeout_ms ()));
  with_env "never" (fun () ->
      Alcotest.(check (option int)) "invalid disables the timeout" None
        (Config.timeout_ms ()));
  with_env "" (fun () ->
      Alcotest.(check (option int)) "unset means no timeout" None
        (Config.timeout_ms ()))

(* [reset_for_testing] clears the memoized env reads, so a test can
   change EO_JOBS/EO_ENGINE mid-process and see the new value. *)
let test_reset_for_testing () =
  let saved = Sys.getenv_opt "EO_JOBS" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "EO_JOBS" (Option.value saved ~default:"");
      Config.reset_for_testing ())
    (fun () ->
      Config.reset_for_testing ();
      Unix.putenv "EO_JOBS" "2";
      Alcotest.(check int) "fresh read" 2 (Config.jobs ());
      Unix.putenv "EO_JOBS" "5";
      Alcotest.(check int) "memo holds across env changes" 2 (Config.jobs ());
      Config.reset_for_testing ();
      Alcotest.(check int) "reset re-reads the environment" 5
        (Config.jobs ()))

let test_telemetry_report () =
  let tel = Telemetry.create () in
  Telemetry.set_run tel ~engine:"packed" ~jobs:3;
  Telemetry.set_split_depth tel 2;
  Telemetry.set_task_schedules tel [| 4; 1; 0 |];
  Telemetry.ensure_domains tel 3;
  Telemetry.note_domain_wall tel 1 0.5;
  Counters.bump (Telemetry.counters tel) Counters.Enum_nodes;
  Alcotest.(check string) "engine" "packed" (Telemetry.engine tel);
  Alcotest.(check int) "jobs" 3 (Telemetry.jobs tel);
  Alcotest.(check int) "split depth" 2 (Telemetry.split_depth tel);
  Alcotest.(check (array int)) "task schedules" [| 4; 1; 0 |]
    (Telemetry.task_schedules tel);
  Alcotest.(check int) "domain wall slots" 3
    (Array.length (Telemetry.domain_wall_s tel));
  (match Telemetry.to_json tel with
  | Jsonout.Obj fields ->
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " present") true (List.mem_assoc k fields))
        [ "engine"; "jobs"; "counters"; "timers_s"; "parallel" ]
  | _ -> Alcotest.fail "to_json should be an object");
  (* timed_domain with no report runs the thunk bare. *)
  Alcotest.(check int) "timed_domain None" 5
    (Telemetry.timed_domain None 0 (fun () -> 5));
  Alcotest.(check int) "timed_domain Some" 6
    (Telemetry.timed_domain (Some tel) 0 (fun () -> 6));
  let s = Format.asprintf "%a" Telemetry.pp tel in
  Alcotest.(check bool) "pp mentions engine" true (contains s "packed")

let suite =
  [
    Alcotest.test_case "null counters are inert" `Quick test_null_is_inert;
    Alcotest.test_case "counter arithmetic" `Quick test_counter_arithmetic;
    Alcotest.test_case "timers accumulate" `Quick test_timer_accumulates;
    Alcotest.test_case "merge_into sums" `Quick test_merge_into;
    Alcotest.test_case "JSON names distinct" `Quick test_key_names_distinct;
    Alcotest.test_case "jsonout compact" `Quick test_jsonout_compact;
    Alcotest.test_case "jsonout pretty" `Quick test_jsonout_pretty;
    QCheck_alcotest.to_alcotest test_writer_matches_reference;
    Alcotest.test_case "config precedence" `Quick test_config_precedence;
    Alcotest.test_case "EO_JOBS rejects non-positive" `Quick
      test_jobs_of_string;
    Alcotest.test_case "EO_ENGINE rejects unknown engines" `Quick
      test_engine_of_string;
    Alcotest.test_case "EO_CACHE_DIR must be absolute" `Quick
      test_cache_dir_of_string;
    Alcotest.test_case "EO_CACHE_DIR environment read" `Quick
      test_cache_dir_env;
    Alcotest.test_case "EO_TIMEOUT_MS rejects non-positive" `Quick
      test_timeout_of_string;
    Alcotest.test_case "EO_TIMEOUT_MS environment read" `Quick
      test_timeout_env;
    Alcotest.test_case "reset_for_testing clears memos" `Quick
      test_reset_for_testing;
    Alcotest.test_case "telemetry report" `Quick test_telemetry_report;
  ]
