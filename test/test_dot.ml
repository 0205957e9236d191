let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let trace_of src =
  match Gen_progs.completed_trace (Parse.program src) with
  | Some t -> t
  | None -> Alcotest.fail "fixture program deadlocked"

let producer_consumer =
  "sem s = 0\nproc producer { x := 1; v(s) }\nproc consumer { p(s); y := x }"

let test_escape () =
  Alcotest.(check string) "quotes" "say \\\"hi\\\"" (Dot.escape "say \"hi\"");
  Alcotest.(check string) "backslash" "a\\\\b" (Dot.escape "a\\b");
  Alcotest.(check string) "newline" "a\\nb" (Dot.escape "a\nb")

let test_execution_dot () =
  let x = Trace.to_execution (trace_of producer_consumer) in
  let out = Format.asprintf "%a" Dot.execution x in
  Alcotest.(check bool) "digraph wrapper" true
    (contains ~needle:"digraph execution {" out && contains ~needle:"}" out);
  Alcotest.(check bool) "process clusters" true
    (contains ~needle:"subgraph cluster_p0" out
    && contains ~needle:"subgraph cluster_p1" out);
  Alcotest.(check bool) "event labels" true
    (contains ~needle:"x := 1" out && contains ~needle:"V(s)" out);
  (* The x:=1 -> y:=x dependence crosses processes: rendered dashed. *)
  Alcotest.(check bool) "dependence edge styled" true
    (contains ~needle:"style=dashed" out)

let test_pinned_dot () =
  let tr = trace_of producer_consumer in
  let sk = Skeleton.of_execution (Trace.to_execution tr) in
  let out = Format.asprintf "%a" (fun ppf () ->
      Dot.pinned ppf sk (Trace.schedule tr)) () in
  Alcotest.(check bool) "sync edge bold" true (contains ~needle:"style=bold" out)

let test_pinned_rejects_infeasible () =
  let tr = trace_of producer_consumer in
  let sk = Skeleton.of_execution (Trace.to_execution tr) in
  let n = Skeleton.(sk.n) in
  let reversed = Array.init n (fun i -> n - 1 - i) in
  match Format.asprintf "%a" (fun ppf () -> Dot.pinned ppf sk reversed) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of infeasible schedule"

let test_task_graph_dot () =
  let tr = Figure1.trace () in
  let x = Trace.to_execution tr in
  let out = Format.asprintf "%a" (fun ppf () -> Dot.task_graph ppf x (Egp.build x)) () in
  Alcotest.(check bool) "nodes are sync events" true
    (contains ~needle:"Post(E)" out && contains ~needle:"Wait(E)" out);
  Alcotest.(check bool) "no computation nodes" false (contains ~needle:"x := 1" out)

let test_relation_dot () =
  let x = Trace.to_execution (trace_of producer_consumer) in
  let s = Relations.compute_enumerated (Skeleton.of_execution x) in
  let out =
    Format.asprintf "%a" Dot.relation (x, Relations.to_rel s Relations.MHB, "mhb")
  in
  Alcotest.(check bool) "digraph named" true (contains ~needle:"digraph mhb" out);
  (* Transitive reduction: x:=1 -> y:=x direct edge should be gone (the
     chain through V and P implies it). *)
  Alcotest.(check bool) "reduced" false (contains ~needle:"e0 -> e3;" out)

let suite =
  [
    Alcotest.test_case "escape" `Quick test_escape;
    Alcotest.test_case "execution dot" `Quick test_execution_dot;
    Alcotest.test_case "pinned dot" `Quick test_pinned_dot;
    Alcotest.test_case "pinned rejects infeasible" `Quick
      test_pinned_rejects_infeasible;
    Alcotest.test_case "task graph dot" `Quick test_task_graph_dot;
    Alcotest.test_case "relation dot" `Quick test_relation_dot;
  ]
