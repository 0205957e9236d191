type t = {
  program : Ast.t;
  instance : Sequencing.t;
  a_label : string;
  b_label : string;
}

let done_var i = Printf.sprintf "d%d" i

let build (instance : Sequencing.t) =
  let n = Sequencing.n_tasks instance in
  let preds_of i =
    List.filter_map
      (fun (a, b) -> if b = i then Some a else None)
      instance.Sequencing.precedence
  in
  let task_proc i =
    let c = instance.Sequencing.costs.(i) in
    let read_preds =
      (* One computation event reading every predecessor's completion
         variable: the shared-data dependences enforce the precedence. *)
      match preds_of i with
      | [] -> []
      | preds ->
          [
            Ast.Assign
              ( Printf.sprintf "r%d" i,
                List.fold_left
                  (fun acc p -> Expr.Add (acc, Expr.Var (done_var p)))
                  (Expr.Int 0) preds );
          ]
    in
    let sem_ops =
      if c > 0 then List.init c (fun _ -> Ast.Sem_p "s")
      else if c < 0 then List.init (-c) (fun _ -> Ast.Sem_v "s")
      else []
    in
    Ast.proc (Printf.sprintf "task%d" i)
      (read_preds @ sem_ops @ [ Ast.Assign (done_var i, Expr.Int 1) ])
  in
  let collector =
    Ast.proc "collector"
      [
        Ast.Assign
          ( "sum",
            List.fold_left
              (fun acc i -> Expr.Add (acc, Expr.Var (done_var i)))
              (Expr.Int 0)
              (List.init n Fun.id) );
        Ast.Skip (Some "b");
      ]
  in
  let total_p =
    Array.fold_left (fun acc c -> if c > 0 then acc + c else acc)
      0 instance.Sequencing.costs
  in
  let relief =
    Ast.proc "relief"
      (Ast.Skip (Some "a") :: List.init total_p (fun _ -> Ast.Sem_v "s"))
  in
  let program =
    Ast.program
      ~sem_init:[ ("s", instance.Sequencing.budget) ]
      (List.init n task_proc @ [ collector; relief ])
  in
  { program; instance; a_label = "a"; b_label = "b" }

(* Observed run: the relief process first (budget becomes irrelevant), then
   tasks in topological order, then the collector. *)
let completing_replay t =
  let n = Sequencing.n_tasks t.instance in
  let collector_pid = n and relief_pid = n + 1 in
  let g = Digraph.create n in
  List.iter (fun (a, b) -> Digraph.add_edge g a b) t.instance.Sequencing.precedence;
  let topo =
    match Digraph.topological_sort g with
    | Some o -> o
    | None -> assert false (* validated at Sequencing.make *)
  in
  let steps_of_task i =
    let c = abs t.instance.Sequencing.costs.(i) in
    let reads = if List.exists (fun (_, b) -> b = i) t.instance.Sequencing.precedence then 1 else 0 in
    reads + c + 1
  in
  let total_p =
    Array.fold_left (fun acc c -> if c > 0 then acc + c else acc)
      0 t.instance.Sequencing.costs
  in
  List.init (1 + total_p) (fun _ -> relief_pid)
  @ List.concat_map (fun i -> List.init (steps_of_task i) (fun _ -> i)) topo
  @ [ collector_pid; collector_pid ]

let trace t =
  let tr =
    Interp.run ~policy:(Sched.Replay (completing_replay t)) t.program
  in
  (match tr.Trace.outcome with
  | Trace.Completed -> ()
  | _ -> invalid_arg "Reduction_single_sem.trace: replay failed to complete");
  tr

let events_ab t tr =
  let a = Trace.find_event tr t.a_label in
  let b = Trace.find_event tr t.b_label in
  (a.Event.id, b.Event.id)

let semaphores_used t = List.length (Ast.semaphores t.program)

let check instance =
  let red = build instance in
  let tr = trace red in
  let a, b = events_ab red tr in
  let d = Decide.create (Trace.to_execution tr) in
  (Decide.holds d Relations.CHB b a, Sequencing.feasible instance)
