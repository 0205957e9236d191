(* Random small programs for property tests: traces must be small enough to
   enumerate exhaustively and must complete (deadlocking drafts are
   discarded by the properties via QCheck.assume). *)

let stmt_gen =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl [ Ast.Assign ("x", Expr.Int 1);
                     Ast.Assign ("x", Expr.Add (Expr.Var "x", Expr.Int 1));
                     Ast.Assign ("y", Expr.Var "x");
                     Ast.Assign ("z", Expr.Int 7);
                     Ast.Skip None ]);
        (2, oneofl [ Ast.Sem_p "s"; Ast.Sem_v "s" ]);
        (2, oneofl [ Ast.Post "e"; Ast.Wait "e"; Ast.Clear "e" ]);
        ( 1,
          oneofl
            [ Ast.Assert (Expr.Eq (Expr.Var "x", Expr.Int 1));
              Ast.Assert (Expr.Lt (Expr.Var "y", Expr.Int 2)) ] );
      ])

let program_gen =
  QCheck.Gen.(
    int_range 2 3 >>= fun n_procs ->
    list_repeat n_procs (list_size (int_range 1 3) stmt_gen) >>= fun bodies ->
    int_range 0 2 >>= fun sem_init ->
    bool >>= fun ev_init ->
    return
      (Ast.program
         ~sem_init:[ ("s", sem_init) ]
         ~ev_init:[ ("e", ev_init) ]
         (List.mapi (fun i body -> Ast.proc (Printf.sprintf "p%d" i) body)
            bodies)))

let print_program prog = Format.asprintf "%a" Ast.pp prog

let arbitrary_program = QCheck.make ~print:print_program program_gen

(* A trace of the program, or None when the program deadlocks. *)
let completed_trace ?(policy = Sched.Round_robin) prog =
  let t = Interp.run ~policy prog in
  match t.Trace.outcome with Trace.Completed -> Some t | _ -> None

(* The first races of an execution over a private, uncached session. *)
let first_races x =
  Race.first_races_session (Session.of_execution ~cache:Session.no_cache x)
