(* The Parallel fan-out's failure and budget contracts.

   A raising task must not orphan worker domains or make the surfaced
   exception depend on domain interleaving: every domain is joined and
   the lowest-indexed failing task's exception is re-raised.  A tripped
   budget must not poke holes in the result: [map] still returns a
   complete array (budget-aware tasks return partial accumulators). *)

let test_map_matches_sequential () =
  let xs = Array.init 100 (fun i -> i) in
  let f i = (i * i) + 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        (Array.map f xs)
        (Parallel.map ~jobs f xs))
    [ 1; 2; 4 ]

let test_raising_task_deterministic () =
  (* Tasks 8, 11 and 17 raise; whatever the interleaving, the exception
     of task 8 — the lowest index — must surface, every time. *)
  let xs = Array.init 20 (fun i -> i) in
  let f i =
    if i = 8 || i = 11 || i = 17 then failwith (Printf.sprintf "task %d" i)
    else i
  in
  for round = 1 to 20 do
    match Parallel.map ~jobs:4 f xs with
    | _ -> Alcotest.fail "exception swallowed"
    | exception Failure msg ->
        Alcotest.(check string)
          (Printf.sprintf "round %d" round)
          "task 8" msg
  done

let test_raising_task_sequential_path () =
  let xs = Array.init 6 (fun i -> i) in
  let f i = if i >= 2 then failwith (Printf.sprintf "task %d" i) else i in
  match Parallel.map ~jobs:1 f xs with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure msg -> Alcotest.(check string) "lowest" "task 2" msg

let test_budget_map_returns_total_array () =
  (* Trip the budget before the fan-out even starts: a budget-aware task
     sees exhaustion on its first poll and returns its (empty) partial
     accumulator, but [map] still claims and returns every slot. *)
  let budget = Budget.create ~node_budget:1000 () in
  Budget.cancel budget;
  let xs = Array.init 32 (fun i -> i) in
  let f i = if Budget.exhausted budget then -1 else i in
  let ys = Parallel.map ~budget ~jobs:4 f xs in
  Alcotest.(check int) "total length" 32 (Array.length ys);
  Array.iter
    (fun y -> Alcotest.(check int) "partial accumulator" (-1) y)
    ys

let test_budget_deadline_between_tasks () =
  (* Workers re-check the wall clock between tasks, so even tasks that
     never poll observe a passed deadline: later tasks see the shared
     trip flag. *)
  let budget = Budget.create ~timeout_ms:1 () in
  let xs = Array.init 16 (fun i -> i) in
  let f _ =
    Unix.sleepf 0.002;
    Budget.exhausted budget
  in
  let ys = Parallel.map ~budget ~jobs:2 f xs in
  Alcotest.(check int) "total length" 16 (Array.length ys);
  Alcotest.(check bool) "deadline observed" true (Budget.exhausted budget);
  Alcotest.(check bool) "some task saw the trip" true
    (Array.exists (fun b -> b) ys)

let test_budget_deadline_one_domain () =
  (* The same contract when a single domain drains the tasks — what any
     request becomes on a one-CPU host — checked on every host. *)
  let budget = Budget.create ~timeout_ms:1 () in
  let xs = Array.init 16 (fun i -> i) in
  let f _ =
    Unix.sleepf 0.002;
    Budget.exhausted budget
  in
  let ys = Parallel.map ~budget ~jobs:1 f xs in
  Alcotest.(check int) "total length" 16 (Array.length ys);
  Alcotest.(check bool) "deadline observed" true (Budget.exhausted budget);
  Alcotest.(check bool) "later tasks saw the trip" true ys.(15)

let test_domains_capped_at_host () =
  (* Asking for more workers than the host runs at once still answers
     exactly, but spawns no more domains than it can run. *)
  let cpus = Domain.recommended_domain_count () in
  let xs = Array.init 64 (fun i -> i) in
  let f i = (i * 7) + 3 in
  let tel = Telemetry.create () in
  Alcotest.(check (array int)) "results" (Array.map f xs)
    (Parallel.map ~telemetry:tel ~jobs:(cpus + 2) f xs);
  Alcotest.(check bool)
    (Printf.sprintf "at most %d domains ran" cpus)
    true
    (Array.length (Telemetry.domain_wall_s tel) <= cpus)

let suite =
  [
    Alcotest.test_case "map = Array.map" `Quick test_map_matches_sequential;
    Alcotest.test_case "lowest-index exception wins" `Quick
      test_raising_task_deterministic;
    Alcotest.test_case "sequential path raises too" `Quick
      test_raising_task_sequential_path;
    Alcotest.test_case "tripped budget keeps the array total" `Quick
      test_budget_map_returns_total_array;
    Alcotest.test_case "deadline observed between tasks" `Quick
      test_budget_deadline_between_tasks;
    Alcotest.test_case "one domain observes the deadline between tasks"
      `Quick test_budget_deadline_one_domain;
    Alcotest.test_case "domains capped at the host's count" `Quick
      test_domains_capped_at_host;
  ]
