(* Differential property tests for the shared-session layer: whatever
   combination of engine, worker count and cache temperature serves a
   query, the answers must be bit-identical to the legacy one-shot
   paths.  This is the contract that lets every consumer (relations,
   decisions, races, the CLI batch mode) ride one session safely. *)

let qcheck = QCheck_alcotest.to_alcotest

let small_execution prog =
  match Gen_progs.completed_trace prog with
  | Some t when Trace.n_events t <= 9 -> Some (Trace.to_execution t)
  | _ -> None

let rel_pairs s rel = List.sort compare (Rel.to_pairs (Relations.to_rel s rel))

let same_summary name (a : Relations.t) (b : Relations.t) =
  if a.Relations.feasible_count <> b.Relations.feasible_count then
    QCheck.Test.fail_reportf "%s: feasible_count %d vs %d" name
      a.Relations.feasible_count b.Relations.feasible_count;
  if a.Relations.distinct_classes <> b.Relations.distinct_classes then
    QCheck.Test.fail_reportf "%s: distinct_classes %d vs %d" name
      a.Relations.distinct_classes b.Relations.distinct_classes;
  List.iter
    (fun rel ->
      if rel_pairs a rel <> rel_pairs b rel then
        QCheck.Test.fail_reportf "%s: %s matrix differs" name
          (Relations.relation_name rel))
    Relations.all_relations

let race_key (r : Race.race) = (r.Race.e1, r.Race.e2, r.Race.variables)

let same_races name a b =
  let a = List.sort compare (List.map race_key a) in
  let b = List.sort compare (List.map race_key b) in
  if a <> b then QCheck.Test.fail_reportf "%s: race sets differ" name

let with_engine engine f =
  let saved = Engine.current () in
  Engine.set engine;
  Fun.protect ~finally:(fun () -> Engine.set saved) f

let with_model model f =
  let saved = Memmodel.current () in
  Memmodel.set model;
  Fun.protect ~finally:(fun () -> Memmodel.set saved) f

(* 1. One session with every consumer attached answers exactly like the
   legacy per-call paths, across both engines and worker counts. *)
let test_session_matches_legacy =
  QCheck.Test.make ~name:"session folds = legacy per-call results" ~count:30
    Gen_progs.arbitrary_program (fun prog ->
      QCheck.assume (small_execution prog <> None);
      let x = Option.get (small_execution prog) in
      let sk = Skeleton.of_execution x in
      let ref_full = Relations.compute_enumerated sk in
      let ref_reduced = Relations.compute_reduced sk in
      let ref_races = Race.feasible_races x in
      let ref_first = Gen_progs.first_races x in
      List.iter
        (fun engine ->
          with_engine engine @@ fun () ->
          List.iter
            (fun jobs ->
              let name =
                Printf.sprintf "%s/jobs=%d" (Engine.to_string engine) jobs
              in
              let session =
                Session.create ~jobs ~cache:Session.no_cache sk
              in
              same_summary (name ^ " full") ref_full
                (Relations.of_session session);
              same_summary (name ^ " reduced") ref_reduced
                (Relations.of_session_reduced session);
              same_races (name ^ " races") ref_races
                (Race.feasible_races_session session);
              same_races (name ^ " first") ref_first
                (Race.first_races_session session);
              if
                Session.schedule_count session
                <> ref_full.Relations.feasible_count
              then
                QCheck.Test.fail_reportf "%s: schedule_count %d vs %d" name
                  (Session.schedule_count session)
                  ref_full.Relations.feasible_count)
            [ 1; 4 ])
        [ Engine.Naive; Engine.Packed ];
      true)

(* 2. Per-pair decisions riding a session (shared reach engine, shared
   class summary) answer exactly like a private legacy [Decide.create]
   for every relation and every pair. *)
let test_decide_on_session =
  QCheck.Test.make ~name:"Decide.of_session = legacy Decide.create"
    ~count:25 Gen_progs.arbitrary_program (fun prog ->
      QCheck.assume (small_execution prog <> None);
      let x = Option.get (small_execution prog) in
      let session = Session.of_execution ~cache:Session.no_cache x in
      let d_session = Decide.of_session session in
      let d_legacy = Decide.create x in
      let n = Execution.n_events x in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if a <> b then
            List.iter
              (fun rel ->
                if
                  Decide.holds d_session rel a b
                  <> Decide.holds d_legacy rel a b
                then
                  QCheck.Test.fail_reportf "%s disagrees on (%d, %d)"
                    (Relations.relation_name rel) a b)
              Relations.all_relations
        done
      done;
      true)

let counter session_tel key = Counters.get (Telemetry.counters session_tel) key

(* Warm-cache round trip: answers identical, zero search — no
   enumeration, and no class walk or reachability pass (the summary
   [relations] answers from without a limit). *)
let warm_roundtrip name cache x =
  let sk = Skeleton.of_execution x in
  (* Cold: compute and store. *)
  let cold = Session.create ~cache sk in
  let cold_full = Relations.of_session cold in
  let cold_races = Race.feasible_races_session cold in
  (* Warm: a fresh session over the same program must be served entirely
     from the cache — same answers, no enumeration at all. *)
  let tel = Telemetry.create () in
  let warm = Session.create ~stats:tel ~cache sk in
  same_summary (name ^ " warm summary") cold_full (Relations.of_session warm);
  same_races (name ^ " warm races") cold_races
    (Race.feasible_races_session warm);
  List.iter
    (fun key ->
      if counter tel key <> 0 then
        QCheck.Test.fail_reportf "%s: warm session searched (%s %d)" name
          (Counters.key_name key) (counter tel key))
    [ Counters.Enum_nodes; Counters.Por_nodes; Counters.Reach_queries ];
  if counter tel Counters.Cache_misses <> 0 then
    QCheck.Test.fail_reportf "%s: warm session missed the cache" name

let test_memory_cache =
  QCheck.Test.make ~name:"warm memory cache: same answers, zero enum_nodes"
    ~count:20 Gen_progs.arbitrary_program (fun prog ->
      QCheck.assume (small_execution prog <> None);
      let x = Option.get (small_execution prog) in
      Session.clear_memory_cache ();
      warm_roundtrip "memory" { Session.memory = true; dir = None } x;
      Session.clear_memory_cache ();
      true)

let temp_cache_dir () =
  let path = Filename.temp_file "eo_session_test" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_disk_cache =
  QCheck.Test.make ~name:"warm disk cache: same answers, zero enum_nodes"
    ~count:10 Gen_progs.arbitrary_program (fun prog ->
      QCheck.assume (small_execution prog <> None);
      let x = Option.get (small_execution prog) in
      let dir = temp_cache_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          (* memory off: every warm hit must come from disk. *)
          warm_roundtrip "disk" { Session.memory = false; dir = Some dir } x);
      true)

(* 3. The canonical program key ignores event numbering: reversing all
   event ids yields the same hash, and a cache warmed under one
   numbering serves the other (the payload is stored in canonical
   coordinates). *)
let permute_execution (x : Execution.t) perm =
  let n = Array.length x.Execution.events in
  let events =
    Array.init n (fun _ -> x.Execution.events.(0) (* placeholder *))
  in
  Array.iteri
    (fun old e -> events.(perm.(old)) <- { e with Event.id = perm.(old) })
    x.Execution.events;
  let remap rel =
    let r = Rel.create n in
    List.iter (fun (a, b) -> Rel.add r perm.(a) perm.(b)) (Rel.to_pairs rel);
    r
  in
  {
    x with
    Execution.events;
    program_order = remap x.Execution.program_order;
    temporal = remap x.Execution.temporal;
    dependences = remap x.Execution.dependences;
  }

let test_key_renumbering =
  QCheck.Test.make
    ~name:"Program_key stable under renumbering; cache carries over"
    ~count:20 Gen_progs.arbitrary_program (fun prog ->
      QCheck.assume (small_execution prog <> None);
      let x = Option.get (small_execution prog) in
      let n = Execution.n_events x in
      QCheck.assume (n > 1);
      let perm = Array.init n (fun i -> n - 1 - i) in
      let y = permute_execution x perm in
      let kx = Program_key.of_execution x in
      let ky = Program_key.of_execution y in
      if not (Program_key.equal kx ky) then
        QCheck.Test.fail_reportf "hashes differ under renumbering:@.%s@.vs@.%s"
          (Program_key.serialize x) (Program_key.serialize y);
      (* Warm the cache under numbering [x], query under numbering [y]:
         the decoded races must be [x]'s races pushed through the
         permutation — and nothing may be recomputed. *)
      Session.clear_memory_cache ();
      let cache = { Session.memory = true; dir = None } in
      let races_x =
        Race.feasible_races_session (Session.of_execution ~cache x)
      in
      let tel = Telemetry.create () in
      let races_y =
        Race.feasible_races_session (Session.of_execution ~stats:tel ~cache y)
      in
      let expected =
        List.map
          (fun (r : Race.race) ->
            let a = perm.(r.Race.e1) and b = perm.(r.Race.e2) in
            { r with Race.e1 = min a b; e2 = max a b })
          races_x
      in
      same_races "renumbered races" expected races_y;
      if counter tel Counters.Cache_memory_hits < 1 then
        QCheck.Test.fail_reportf
          "renumbered query did not hit the warmed cache";
      (* The summary payload likewise: [y]'s relations are [x]'s pushed
         through the permutation, served from the entry [x] stored. *)
      let sum_x = Relations.of_session (Session.of_execution ~cache x) in
      let tel = Telemetry.create () in
      let sum_y =
        Relations.of_session (Session.of_execution ~stats:tel ~cache y)
      in
      List.iter
        (fun rel ->
          let pushed =
            List.sort compare
              (List.map
                 (fun (a, b) -> (perm.(a), perm.(b)))
                 (rel_pairs sum_x rel))
          in
          if pushed <> rel_pairs sum_y rel then
            QCheck.Test.fail_reportf "renumbered %s differs"
              (Relations.relation_name rel))
        Relations.all_relations;
      if counter tel Counters.Reach_queries <> 0 then
        QCheck.Test.fail_reportf "renumbered relations recomputed";
      Session.clear_memory_cache ();
      true)

(* The canonical permutations are mutually inverse — the property the
   payload encode/decode round trip rests on. *)
let test_key_permutations =
  QCheck.Test.make ~name:"Program_key permutations are inverse" ~count:30
    Gen_progs.arbitrary_program (fun prog ->
      QCheck.assume (small_execution prog <> None);
      let x = Option.get (small_execution prog) in
      let k = Program_key.of_execution x in
      let tc = k.Program_key.to_canonical
      and oc = k.Program_key.of_canonical in
      Array.iteri
        (fun i c ->
          if oc.(c) <> i then
            QCheck.Test.fail_reportf "to/of_canonical not inverse at %d" i)
        tc;
      String.length (Program_key.hash k) = 32)

(* ---- cache hardening ---- *)

(* A small racy fixture: two schedules orders, a write/write race on x,
   enough events that every enumeration pass spends several nodes. *)
let fixture_src = "proc a { x := 1; y := 1 }\nproc b { x := 2; z := 1 }"

let fixture_execution () =
  match Gen_progs.completed_trace (Parse.program fixture_src) with
  | Some t -> Trace.to_execution t
  | None -> Alcotest.fail "fixture program deadlocked"

(* 4. Two processes (here: domains) racing to warm the same disk cache
   directory must not corrupt it: each write lands in a unique tmp file
   and is renamed atomically, so whatever interleaving wins, a third
   session finds a valid entry and recomputes nothing. *)
let test_cache_two_writers () =
  let x = fixture_execution () in
  let reference = Race.feasible_races x in
  let dir = temp_cache_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cache = { Session.memory = false; dir = Some dir } in
      let writer () =
        Domain.spawn (fun () ->
            let x = fixture_execution () in
            let session = Session.of_execution ~cache x in
            ignore (Relations.of_session session);
            Race.feasible_races_session session)
      in
      let d1 = writer () and d2 = writer () in
      let r1 = Domain.join d1 and r2 = Domain.join d2 in
      same_races "writer 1" reference r1;
      same_races "writer 2" reference r2;
      (* The surviving cache files must be complete and valid: a warm
         session decodes them without recomputing. *)
      let tel = Telemetry.create () in
      let warm = Session.of_execution ~stats:tel ~cache x in
      same_races "after the race" reference (Race.feasible_races_session warm);
      Alcotest.(check int) "no enumeration on warm read" 0
        (counter tel Counters.Enum_nodes))

(* 5. A corrupted cache payload must never crash or poison an answer:
   the decoder rejects it and the session recomputes from scratch. *)
let cache_file dir kind =
  match
    Array.find_opt
      (fun f ->
        Filename.check_suffix f ".eocache"
        && List.mem kind (String.split_on_char '.' f))
      (Sys.readdir dir)
  with
  | Some f -> Filename.concat dir f
  | None -> Alcotest.failf "no %s cache entry written" kind

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* Keep the two header lines (version, entry key) and pass the payload
   through [corrupt]: the version/key checks pass, so only the payload
   decoder stands between the garbage and the answer. *)
let corrupt_payload path corrupt =
  let content = read_file path in
  let after_headers =
    let i = String.index content '\n' in
    String.index_from content (i + 1) '\n' + 1
  in
  write_file path
    (String.sub content 0 after_headers
    ^ corrupt
        (String.sub content after_headers
           (String.length content - after_headers)))

let test_corrupted_cache_fallback () =
  let x = fixture_execution () in
  let reference = Race.feasible_races x in
  let summary_reference =
    Relations.of_session (Session.of_execution ~cache:Session.no_cache x)
  in
  let dir = temp_cache_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cache = { Session.memory = false; dir = Some dir } in
      let cold = Session.of_execution ~cache x in
      same_races "cold" reference (Race.feasible_races_session cold);
      ignore (Relations.of_session cold : Relations.t);
      corrupt_payload (cache_file dir "races") (fun _ ->
          "3 0 1 not-a-variable-list \xff\xfe garbage");
      let tel = Telemetry.create () in
      let recovered =
        Race.feasible_races_session (Session.of_execution ~stats:tel ~cache x)
      in
      same_races "recomputed past the corruption" reference recovered;
      (* The blob layer can't tell the payload is garbage (that's the
         race decoder's job), so the real proof of recovery is the
         recomputation itself: the reachability engine must have run. *)
      Alcotest.(check bool) "fell back to a fresh computation" true
        (counter tel Counters.Reach_queries > 0);
      (* The summary entry: one hex digit of its first row changed keeps
         the format valid, so only the checksum catches it. *)
      let summary_file = cache_file dir "summary-reduced" in
      corrupt_payload summary_file (fun payload ->
          let i = String.index payload '\n' + 1 in
          String.mapi
            (fun j c -> if j <> i then c else if c = '0' then '1' else '0')
            payload);
      let tel = Telemetry.create () in
      let recovered = Relations.of_session (Session.of_execution ~stats:tel ~cache x) in
      same_summary "summary recomputed past the corruption" summary_reference
        recovered;
      Alcotest.(check int) "corrupt summary is a miss" 0
        (counter tel Counters.Cache_disk_hits);
      Alcotest.(check bool) "summary recomputed" true
        (counter tel Counters.Reach_queries > 0);
      (* The recomputation stored a sound entry again. *)
      let tel = Telemetry.create () in
      same_summary "served after the repair" summary_reference
        (Relations.of_session (Session.of_execution ~stats:tel ~cache x));
      Alcotest.(check int) "repaired entry hits" 1
        (counter tel Counters.Cache_disk_hits))

(* 5b. An entry written under the previous cache version — its summary
   in the old pair-list payload — reads as a miss, and the recomputed
   summary replaces it under the current version. *)
let v1_summary_payload (key : Program_key.t) (s : Session.summary) =
  let tc = key.Program_key.to_canonical in
  let buf = Buffer.create 256 in
  Printf.bprintf buf "summary %d %d %b %d\n" s.Session.n
    s.Session.feasible_count s.Session.truncated s.Session.distinct_classes;
  List.iter
    (fun (tag, rel) ->
      let pairs =
        List.sort compare
          (List.map (fun (a, b) -> (tc.(a), tc.(b))) (Rel.to_pairs rel))
      in
      Printf.bprintf buf "%s %d\n" tag (List.length pairs);
      List.iter (fun (a, b) -> Printf.bprintf buf "%d %d\n" a b) pairs)
    [
      ("before", s.Session.before_some);
      ("comparable", s.Session.comparable_some);
      ("incomparable", s.Session.incomparable_some);
    ];
  Buffer.contents buf

let test_old_cache_version_is_a_miss () =
  with_engine Engine.Packed @@ fun () ->
  with_model Memmodel.Sc @@ fun () ->
  let x = fixture_execution () in
  let key = Program_key.of_execution x in
  let fresh = Session.summary_reduced (Session.of_execution x) in
  let dir = temp_cache_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let ek =
        String.concat "."
          [ Program_key.hash key; "summary-reduced"; "packed"; "sc"; "nolimit" ]
      in
      let path = Filename.concat dir (ek ^ ".eocache") in
      write_file path
        ("eocache/1\n" ^ ek ^ "\n" ^ v1_summary_payload key fresh);
      let cache = { Session.memory = false; dir = Some dir } in
      let tel = Telemetry.create () in
      let got = Relations.of_session (Session.of_execution ~stats:tel ~cache x) in
      same_summary "past the old entry" (Relations.of_summary fresh) got;
      Alcotest.(check int) "old version is no hit" 0
        (counter tel Counters.Cache_disk_hits);
      Alcotest.(check int) "old version is a miss" 1
        (counter tel Counters.Cache_misses);
      Alcotest.(check string) "rewritten under the current version"
        ("eocache/2\n" ^ ek ^ "\n" ^ Session.encode_summary key fresh)
        (read_file path))

(* 6. Budget-truncated results must never be cached: a later unbudgeted
   session over the same program would otherwise be served the partial
   answer as if it were exact. *)
let test_budget_results_not_cached () =
  let x = fixture_execution () in
  let sk = Skeleton.of_execution x in
  let reference = Relations.compute_enumerated sk in
  Session.clear_memory_cache ();
  let cache = { Session.memory = true; dir = None } in
  let budget = Budget.create ~node_budget:1 () in
  let truncated =
    match
      Relations.of_session_outcome (Session.create ~budget ~cache sk)
    with
    | Budget.Bound_hit s -> s
    | Budget.Exact _ -> Alcotest.fail "one-node budget did not truncate"
  in
  Alcotest.(check bool) "partial pass undercounts" true
    (truncated.Relations.feasible_count < reference.Relations.feasible_count);
  let fresh = Relations.of_session (Session.create ~cache sk) in
  same_summary "unbudgeted session after a truncated one" reference fresh;
  Session.clear_memory_cache ()

(* 7. A session keeps the engine and memory model it was made under.
   Switching both afterwards — to the environment defaults, which is
   also what a freshly spawned worker domain starts from — must change
   no answer and no counter: neither the session's own queries nor the
   race decisions its worker domains run may read the switches. *)
let keeps_src =
  "proc p0 { x := 1; assert y = 0; y := 2 }\n\
   proc p1 { y := 1; assert x = 0; x := 2 }\n\
   proc p2 { assert x = 1; assert y = 1 }"

let test_session_keeps_its_switches () =
  let x =
    match Gen_progs.completed_trace (Parse.program keeps_src) with
    | Some t -> Trace.to_execution t
    | None -> Alcotest.fail "fixture program deadlocked"
  in
  let n = Execution.n_events x in
  let run ~switch ~jobs =
    with_engine Engine.Naive @@ fun () ->
    with_model Memmodel.Tso @@ fun () ->
    let tel = Telemetry.create () in
    let session ?limit () =
      Session.of_execution ?limit ~jobs ~stats:tel ~cache:Session.no_cache x
    in
    let s = session () and capped = session ~limit:2000 () in
    if switch then begin
      Engine.set Engine.Packed;
      Memmodel.set Memmodel.Sc
    end;
    let summary = Relations.of_session s in
    let races =
      List.map race_key
        (Race.feasible_races_session s
        @ Race.first_races_session s
        @ Race.feasible_races_session capped)
    in
    let pairs =
      List.init (n * n) (fun i ->
          let a = i / n and b = i mod n in
          ( Session.exists_before s a b,
            Session.must_before s a b,
            Session.exists_race s a b ))
    in
    ( summary.Relations.feasible_count,
      List.map (rel_pairs summary) Relations.all_relations,
      races,
      pairs,
      List.map (Counters.get (Telemetry.counters tel)) Counters.all_keys )
  in
  List.iter
    (fun jobs ->
      let count, rels, races, pairs, counters = run ~switch:false ~jobs in
      let count', rels', races', pairs', counters' = run ~switch:true ~jobs in
      let name what = Printf.sprintf "jobs=%d: %s" jobs what in
      Alcotest.(check int) (name "feasible count") count count';
      Alcotest.(check (list (list (pair int int)))) (name "relations") rels rels';
      Alcotest.(check (list (triple int int (list int)))) (name "races") races
        races';
      Alcotest.(check (list (triple bool bool bool))) (name "pair queries")
        pairs pairs';
      Alcotest.(check (list int)) (name "counters") counters counters')
    [ 1; 2 ]

(* ---- the summary payload ---- *)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let key_of to_canonical =
  let of_canonical = Array.make (Array.length to_canonical) 0 in
  Array.iteri (fun i c -> of_canonical.(c) <- i) to_canonical;
  { Program_key.hash = "k"; to_canonical; of_canonical }

let random_rel st n =
  let density = Random.State.float st 1. in
  let r = Rel.create n in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if Random.State.float st 1. < density then Rel.add r a b
    done
  done;
  r

(* A summary on [n] events under a random numbering [kx] of some
   program, and a renumbering [perm] of it: event [i] under [kx] is
   event [perm.(i)] under [ky], so both keys send it to one canonical
   index.  Past 62 events some row carries canonical column 62, the top
   bit of its first word. *)
type payload_case = {
  summary : Session.summary;
  kx : Program_key.t;
  ky : Program_key.t;
  perm : int array;
}

let payload_case_gen n_gen st =
  let n = n_gen st in
  let canon = shuffle st (Array.init n Fun.id) in
  let perm = shuffle st (Array.init n Fun.id) in
  let ky_canon = Array.make n 0 in
  Array.iteri (fun i c -> ky_canon.(perm.(i)) <- c) canon;
  let kx = key_of canon in
  let before_some = random_rel st n in
  if n > 62 then Rel.add before_some (Random.State.int st n) kx.Program_key.of_canonical.(62);
  let summary =
    {
      Session.n;
      feasible_count =
        (if Random.State.bool st then Random.State.int st 1000
         else Random.State.bits st * Random.State.bits st);
      truncated = Random.State.bool st;
      distinct_classes = Random.State.int st 100_000;
      before_some;
      comparable_some = random_rel st n;
      incomparable_some = random_rel st n;
    }
  in
  { summary; kx; ky = key_of ky_canon; perm }

let print_payload_case c =
  Printf.sprintf "n = %d\n%s" c.summary.Session.n
    (Session.encode_summary c.kx c.summary)

let same_bits (a : Session.summary) (b : Session.summary) =
  a.Session.n = b.Session.n
  && a.Session.feasible_count = b.Session.feasible_count
  && a.Session.truncated = b.Session.truncated
  && a.Session.distinct_classes = b.Session.distinct_classes
  && Rel.equal a.Session.before_some b.Session.before_some
  && Rel.equal a.Session.comparable_some b.Session.comparable_some
  && Rel.equal a.Session.incomparable_some b.Session.incomparable_some

let renumber perm (s : Session.summary) =
  let push r =
    let out = Rel.create s.Session.n in
    Rel.iter (fun a b -> Rel.add out perm.(a) perm.(b)) r;
    out
  in
  {
    s with
    Session.before_some = push s.Session.before_some;
    comparable_some = push s.Session.comparable_some;
    incomparable_some = push s.Session.incomparable_some;
  }

let payload_roundtrip name n_gen =
  QCheck.Test.make ~name ~count:100
    (QCheck.make ~print:print_payload_case (payload_case_gen n_gen))
    (fun c ->
      let payload = Session.encode_summary c.kx c.summary in
      (match Session.decode_summary c.kx payload with
      | Some s when same_bits s c.summary -> ()
      | Some _ -> QCheck.Test.fail_report "same numbering: other bits"
      | None -> QCheck.Test.fail_report "same numbering: rejected");
      match Session.decode_summary c.ky payload with
      | Some s -> same_bits s (renumber c.perm c.summary)
      | None -> QCheck.Test.fail_report "renumbered: rejected")

let test_payload_roundtrip_small =
  payload_roundtrip "summary payload round trip, renumbered, n <= 12"
    (fun st -> Random.State.int st 13)

let test_payload_roundtrip_wide =
  payload_roundtrip
    "summary payload round trip, renumbered, 64-130 events (several words)"
    (fun st -> 64 + Random.State.int st 67)

(* Any one-byte change — a substitution, an insertion, a deletion — or a
   cut decodes to nothing or to the very summary encoded, and never
   raises. *)
let test_payload_mutations =
  let gen st =
    let c =
      payload_case_gen
        (fun st ->
          if Random.State.int st 4 = 0 then 62 + Random.State.int st 6
          else Random.State.int st 13)
        st
    in
    let payload = Session.encode_summary c.kx c.summary in
    let len = String.length payload in
    let at = Random.State.int st len in
    let byte = String.make 1 (Char.chr (Random.State.int st 256)) in
    let mutated =
      match Random.State.int st 4 with
      | 0 ->
          String.sub payload 0 at ^ byte
          ^ String.sub payload (at + 1) (len - at - 1)
      | 1 -> String.sub payload 0 at ^ byte ^ String.sub payload at (len - at)
      | 2 -> String.sub payload 0 at ^ String.sub payload (at + 1) (len - at - 1)
      | _ -> String.sub payload 0 at
    in
    (c, mutated)
  in
  QCheck.Test.make ~name:"summary payload: byte mutations never decode wrong"
    ~count:1000
    (QCheck.make ~print:(fun (c, m) -> print_payload_case c ^ "\nmutated:\n" ^ String.escaped m) gen)
    (fun (c, mutated) ->
      match Session.decode_summary c.kx mutated with
      | None -> true
      | Some s -> same_bits s c.summary)

let suite =
  [
    qcheck test_session_matches_legacy;
    qcheck test_decide_on_session;
    qcheck test_memory_cache;
    qcheck test_disk_cache;
    qcheck test_key_renumbering;
    qcheck test_key_permutations;
    Alcotest.test_case "two writers, one cache dir" `Quick
      test_cache_two_writers;
    Alcotest.test_case "corrupted cache entry falls back" `Quick
      test_corrupted_cache_fallback;
    Alcotest.test_case "an eocache/1 entry is a miss, rewritten" `Quick
      test_old_cache_version_is_a_miss;
    qcheck test_payload_roundtrip_small;
    qcheck test_payload_roundtrip_wide;
    qcheck test_payload_mutations;
    Alcotest.test_case "budget-truncated results are not cached" `Quick
      test_budget_results_not_cached;
    Alcotest.test_case "a session keeps its engine and model" `Quick
      test_session_keeps_its_switches;
  ]
