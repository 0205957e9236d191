let qcheck = QCheck_alcotest.to_alcotest

let analyze src = Static_order.analyze (Parse.program src)

let stmt_id t fragment =
  match
    List.filter
      (fun (_, desc) ->
        let len = String.length fragment in
        String.length desc >= len
        && String.sub desc (String.length desc - len) len = fragment)
      (Static_order.statements t)
  with
  | [ (id, _) ] -> id
  | [] -> Alcotest.failf "no statement matching %s" fragment
  | _ -> Alcotest.failf "ambiguous statement %s" fragment

let test_sequential () =
  let t = analyze "proc a { x := 1; x := 2; x := 3 }" in
  let s1 = stmt_id t "x := 1" and s2 = stmt_id t "x := 2" in
  let s3 = stmt_id t "x := 3" in
  Alcotest.(check bool) "1 before 2" true (Static_order.guaranteed_before t s1 s2);
  Alcotest.(check bool) "1 before 3" true (Static_order.guaranteed_before t s1 s3);
  Alcotest.(check bool) "3 not before 1" false
    (Static_order.guaranteed_before t s3 s1);
  Alcotest.(check bool) "irreflexive" false
    (Static_order.guaranteed_before t s1 s1)

let test_single_post_wait () =
  let t = analyze "proc a { x := 1; post(e) }\nproc b { wait(e); y := 2 }" in
  Alcotest.(check bool) "post before wait" true
    (Static_order.guaranteed_before t (stmt_id t "Post(e)") (stmt_id t "Wait(e)"));
  Alcotest.(check bool) "x:=1 before y:=2 transitively" true
    (Static_order.guaranteed_before t (stmt_id t "x := 1") (stmt_id t "y := 2"))

let test_two_posts_intersect () =
  let t =
    analyze
      "proc p1 { a: skip; post(e) }\nproc p2 { b: skip; post(e) }\nproc w { wait(e) }"
  in
  let wait = stmt_id t "Wait(e)" in
  (* Neither post individually is guaranteed: either could trigger. *)
  Alcotest.(check bool) "a not guaranteed" false
    (Static_order.guaranteed_before t (stmt_id t "p1: a") wait);
  Alcotest.(check bool) "b not guaranteed" false
    (Static_order.guaranteed_before t (stmt_id t "p2: b") wait)

let test_initially_set_event () =
  let t = analyze "event e = set\nproc a { post(e) }\nproc b { wait(e); y := 1 }" in
  (* The wait may pass on the initial state: the post guarantees nothing. *)
  Alcotest.(check bool) "post not guaranteed" false
    (Static_order.guaranteed_before t (stmt_id t "Post(e)") (stmt_id t "Wait(e)"))

let test_fork_join () =
  let t = analyze "proc m { x := 0; cobegin { y := 1 } { z := 2 } coend; w := 3 }" in
  let after = stmt_id t "w := 3" in
  Alcotest.(check bool) "branch 1 before join successor" true
    (Static_order.guaranteed_before t (stmt_id t "y := 1") after);
  Alcotest.(check bool) "branch 2 before join successor" true
    (Static_order.guaranteed_before t (stmt_id t "z := 2") after);
  Alcotest.(check bool) "branches unordered" false
    (Static_order.guaranteed_before t (stmt_id t "y := 1") (stmt_id t "z := 2"))

let test_if_intersection () =
  let t =
    analyze
      "proc m { if x = 1 { a: skip } else { b: skip }; c: skip }"
  in
  let after = stmt_id t "m: c" in
  (* Only one branch runs: neither branch statement is guaranteed. *)
  Alcotest.(check bool) "then-branch not guaranteed" false
    (Static_order.guaranteed_before t (stmt_id t "m: a") after);
  Alcotest.(check bool) "cond guaranteed" true
    (Static_order.guaranteed_before t (stmt_id t "if (x = 1)") after)

let test_unsupported () =
  List.iter
    (fun src ->
      match Static_order.analyze (Parse.program src) with
      | exception Static_order.Unsupported _ -> ()
      | _ -> Alcotest.failf "expected Unsupported for %s" src)
    [
      "proc a { p(s) }";
      "proc a { v(s) }";
      "proc a { while x < 1 { skip } }";
      "proc a { clear(e) }";
    ]

(* Soundness: static claims, projected onto an observed trace, are inside
   the exact MHB relation. *)
let loopfree_gen =
  QCheck.Gen.(
    let stmt =
      frequency
        [
          (3, oneofl [ Ast.Assign ("x", Expr.Int 1);
                       Ast.Assign ("y", Expr.Var "x");
                       Ast.Skip None ]);
          (2, oneofl [ Ast.Post "e"; Ast.Wait "e"; Ast.Post "f"; Ast.Wait "f" ]);
        ]
    in
    int_range 2 3 >>= fun n_procs ->
    list_repeat n_procs (list_size (int_range 1 3) stmt) >>= fun bodies ->
    return
      (Ast.program
         (List.mapi (fun i b -> Ast.proc (Printf.sprintf "p%d" i) b) bodies)))

let arbitrary_loopfree =
  QCheck.make ~print:(fun p -> Format.asprintf "%a" Ast.pp p) loopfree_gen

let prop_claims_sound =
  QCheck.Test.make ~name:"static claims ⊆ exact MHB on observed traces"
    ~count:120 arbitrary_loopfree (fun prog ->
      match Gen_progs.completed_trace prog with
      | None -> true
      | Some trace ->
          if Trace.n_events trace > 8 then true
          else begin
            let t = Static_order.analyze prog in
            let d = Decide.create (Trace.to_execution trace) in
            List.for_all
              (fun (ea, eb) -> Decide.holds d Relations.MHB ea eb)
              (Static_order.claims_on_trace t trace)
          end)

let prop_guaranteed_rel_is_order =
  QCheck.Test.make ~name:"static guaranteed relation is a strict order"
    ~count:120 arbitrary_loopfree (fun prog ->
      let t = Static_order.analyze prog in
      let r = Static_order.guaranteed_rel t in
      (* Unreachable waits claim everything including cycles with their own
         descendants; restrict the check to programs without them. *)
      Rel.is_irreflexive r)

let suite =
  [
    Alcotest.test_case "sequential" `Quick test_sequential;
    Alcotest.test_case "single post/wait" `Quick test_single_post_wait;
    Alcotest.test_case "two posts intersect" `Quick test_two_posts_intersect;
    Alcotest.test_case "initially set event" `Quick test_initially_set_event;
    Alcotest.test_case "fork/join" `Quick test_fork_join;
    Alcotest.test_case "if intersection" `Quick test_if_intersection;
    Alcotest.test_case "unsupported constructs" `Quick test_unsupported;
    qcheck prop_claims_sound;
    qcheck prop_guaranteed_rel_is_order;
  ]
