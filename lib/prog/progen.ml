type config = {
  processes : int * int;
  stmts_per_process : int * int;
  shared_vars : int;
  semaphores : int;
  binary_semaphores : bool;
  event_variables : int;
}

let default_config =
  {
    processes = (2, 3);
    stmts_per_process = (1, 3);
    shared_vars = 2;
    semaphores = 1;
    binary_semaphores = false;
    event_variables = 1;
  }

let in_range rng (lo, hi) =
  if hi < lo then invalid_arg "Progen: empty range";
  lo + Random.State.int rng (hi - lo + 1)

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

let gen_stmt cfg rng =
  let var i = Printf.sprintf "x%d" i in
  let any_var () = var (Random.State.int rng (max 1 cfg.shared_vars)) in
  let sem () = Printf.sprintf "s%d" (Random.State.int rng (max 1 cfg.semaphores)) in
  let ev () = Printf.sprintf "e%d" (Random.State.int rng (max 1 cfg.event_variables)) in
  let choices =
    List.concat
      [
        (if cfg.shared_vars > 0 then
           [
             (fun () -> Ast.Assign (any_var (), Expr.Int (Random.State.int rng 5)));
             (fun () ->
               Ast.Assign (any_var (), Expr.Add (Expr.Var (any_var ()), Expr.Int 1)));
             (fun () -> Ast.Skip None);
           ]
         else [ (fun () -> Ast.Skip None) ]);
        (if cfg.semaphores > 0 then
           [ (fun () -> Ast.Sem_p (sem ())); (fun () -> Ast.Sem_v (sem ())) ]
         else []);
        (if cfg.event_variables > 0 then
           [
             (fun () -> Ast.Post (ev ()));
             (fun () -> Ast.Wait (ev ()));
             (fun () -> Ast.Clear (ev ()));
           ]
         else []);
      ]
  in
  (pick rng choices) ()

let generate cfg ~seed =
  let rng = Random.State.make [| seed |] in
  let n_procs = in_range rng cfg.processes in
  let procs =
    List.init n_procs (fun i ->
        let n_stmts = in_range rng cfg.stmts_per_process in
        Ast.proc
          (Printf.sprintf "p%d" i)
          (List.init n_stmts (fun _ -> gen_stmt cfg rng)))
  in
  let sem_names = List.init cfg.semaphores (Printf.sprintf "s%d") in
  let sem_init =
    List.map (fun s -> (s, Random.State.int rng 2)) sem_names
  in
  let ev_init =
    List.init cfg.event_variables (fun i ->
        (Printf.sprintf "e%d" i, Random.State.bool rng))
  in
  Ast.program ~sem_init
    ~binary_sems:(if cfg.binary_semaphores then sem_names else [])
    ~ev_init procs

let generate_completing ?(max_attempts = 1000) cfg ~seed =
  let rec go attempt seed =
    if attempt >= max_attempts then
      failwith "Progen.generate_completing: too many deadlocking programs"
    else
      let t = Interp.run (generate cfg ~seed) in
      match t.Trace.outcome with
      | Trace.Completed -> t
      | _ -> go (attempt + 1) (seed + 1_000_003)
  in
  go 0 seed

(* ------------------------------------------------------------------ *)
(* Big-trace families                                                  *)
(* ------------------------------------------------------------------ *)

type big_family = Pc_mesh | Server_logs | Fork_join

let big_family_names = [ "pc_mesh"; "server_logs"; "fork_join" ]

let big_family_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "pc_mesh" -> Some Pc_mesh
  | "server_logs" -> Some Server_logs
  | "fork_join" -> Some Fork_join
  | _ -> None

let big_family_to_string = function
  | Pc_mesh -> "pc_mesh"
  | Server_logs -> "server_logs"
  | Fork_join -> "fork_join"

(* Shared emitter: events are appended in observed-schedule order (ids
   are the schedule), with automatic per-process program-order chaining
   and seq numbering.  Everything is a pure function of the family,
   size and seed. *)
type emitter = {
  mutable ev_rev : Event.t list;
  mutable count : int;
  mutable po_rev : (int * int) list;
  last : (int, int) Hashtbl.t;
  seqs : (int, int) Hashtbl.t;
  mutable vars_rev : string list;
  mutable nvars : int;
  mutable sems_rev : string list;
  mutable sem_init_rev : int list;
  mutable nsems : int;
  mutable evars_rev : string list;
  mutable ev_init_rev : bool list;
  mutable nevars : int;
  mutable procs_rev : (int * string) list;
  mutable npids : int;
}

let new_emitter () =
  {
    ev_rev = [];
    count = 0;
    po_rev = [];
    last = Hashtbl.create 32;
    seqs = Hashtbl.create 32;
    vars_rev = [];
    nvars = 0;
    sems_rev = [];
    sem_init_rev = [];
    nsems = 0;
    evars_rev = [];
    ev_init_rev = [];
    nevars = 0;
    procs_rev = [];
    npids = 0;
  }

let new_pid em name =
  let pid = em.npids in
  em.npids <- pid + 1;
  em.procs_rev <- (pid, name) :: em.procs_rev;
  pid

let new_var em =
  let v = em.nvars in
  em.nvars <- v + 1;
  em.vars_rev <- ("v" ^ string_of_int v) :: em.vars_rev;
  v

let new_sem em ~init =
  let s = em.nsems in
  em.nsems <- s + 1;
  em.sems_rev <- ("s" ^ string_of_int s) :: em.sems_rev;
  em.sem_init_rev <- init :: em.sem_init_rev;
  s

let new_evar em ~init =
  let v = em.nevars in
  em.nevars <- v + 1;
  em.evars_rev <- ("e" ^ string_of_int v) :: em.evars_rev;
  em.ev_init_rev <- init :: em.ev_init_rev;
  v

let emit ?(extra_po = []) ?(reads = []) ?(writes = []) em pid kind label =
  let id = em.count in
  em.count <- id + 1;
  let seq = match Hashtbl.find_opt em.seqs pid with Some s -> s | None -> 0 in
  Hashtbl.replace em.seqs pid (seq + 1);
  (match Hashtbl.find_opt em.last pid with
  | Some l -> em.po_rev <- (l, id) :: em.po_rev
  | None -> ());
  List.iter (fun p -> em.po_rev <- (p, id) :: em.po_rev) extra_po;
  Hashtbl.replace em.last pid id;
  em.ev_rev <-
    Event.make ~id ~pid ~seq ~kind ~label ~reads ~writes () :: em.ev_rev;
  id

let finish_emitter em =
  let po = Array.of_list (List.rev em.po_rev) in
  Bigtrace.of_parts
    {
      Trace_io.events = Array.of_list (List.rev em.ev_rev);
      po_src = Array.map fst po;
      po_dst = Array.map snd po;
      outcome = Trace.Completed;
      violations = [];
      var_names = Array.of_list (List.rev em.vars_rev);
      sem_names = Array.of_list (List.rev em.sems_rev);
      sem_binary = Array.make em.nsems false;
      ev_names = Array.of_list (List.rev em.evars_rev);
      sem_init = Array.of_list (List.rev em.sem_init_rev);
      ev_init = Array.of_list (List.rev em.ev_init_rev);
      final_store = [];
      process_names = List.rev em.procs_rev;
    }

(* Pad with independent single-writer events so the trace hits the
   requested event count exactly. *)
let pad em pid target =
  while em.count < target do
    let v = new_var em in
    ignore (emit em pid Event.Computation "pad" ~writes:[ v ])
  done

(* Producer/consumer mesh: per lane and round, a fresh variable handed
   over through a fresh 0-initialised semaphore with a single V — every
   handover pair is refutable by the forced-edge clock — plus, every
   [race_every] rounds, an unsynchronized write from both sides to a
   fresh round-local variable: a provable (prefix-enabled) race. *)
let pc_mesh ~events:target ~seed =
  let em = new_emitter () in
  let lanes = 4 in
  let prods = Array.init lanes (fun l -> new_pid em (Printf.sprintf "prod%d" l)) in
  let cons = Array.init lanes (fun l -> new_pid em (Printf.sprintf "cons%d" l)) in
  let rounds_est = max 1 (target / (4 * lanes)) in
  let race_every = max 1 (rounds_est / 12) in
  let rng = Random.State.make [| seed; 0x9c |] in
  let offset = Array.init lanes (fun _ -> Random.State.int rng race_every) in
  let r = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let l = ref 0 in
    while !continue_ && !l < lanes do
      if em.count + 6 > target then continue_ := false
      else begin
        let v = new_var em in
        let s = new_sem em ~init:0 in
        ignore (emit em prods.(!l) Event.Computation "w" ~writes:[ v ]);
        ignore (emit em prods.(!l) (Event.Sync (Event.Sem_v s)) "V");
        ignore (emit em cons.(!l) (Event.Sync (Event.Sem_p s)) "P");
        ignore (emit em cons.(!l) Event.Computation "r" ~reads:[ v ]);
        if !r mod race_every = offset.(!l) && em.count + 2 <= target then begin
          let g = new_var em in
          ignore (emit em prods.(!l) Event.Computation "race" ~writes:[ g ]);
          ignore (emit em cons.(!l) Event.Computation "race" ~writes:[ g ])
        end;
        incr l
      end
    done;
    incr r
  done;
  pad em prods.(0) target;
  finish_emitter em

(* Worker/collector logs: each worker round publishes a fresh log
   variable through a fresh event variable (single Post, no Clear), the
   collector waits and reads; plus occasional unsynchronized both-sides
   writes — the provable races. *)
let server_logs ~events:target ~seed =
  let em = new_emitter () in
  let nworkers = 6 in
  let workers =
    Array.init nworkers (fun w -> new_pid em (Printf.sprintf "worker%d" w))
  in
  let collector = new_pid em "collector" in
  let rounds_est = max 1 (target / (4 * nworkers)) in
  let race_every = max 1 (rounds_est / 8) in
  let rng = Random.State.make [| seed; 0x1095 |] in
  let offset = Array.init nworkers (fun _ -> Random.State.int rng race_every) in
  let r = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let w = ref 0 in
    while !continue_ && !w < nworkers do
      if em.count + 6 > target then continue_ := false
      else begin
        let lv = new_var em in
        let e = new_evar em ~init:false in
        ignore (emit em workers.(!w) Event.Computation "log" ~writes:[ lv ]);
        ignore (emit em workers.(!w) (Event.Sync (Event.Post e)) "post");
        ignore (emit em collector (Event.Sync (Event.Wait e)) "wait");
        ignore (emit em collector Event.Computation "scan" ~reads:[ lv ]);
        if !r mod race_every = offset.(!w) && em.count + 2 <= target then begin
          let g = new_var em in
          ignore (emit em workers.(!w) Event.Computation "race" ~writes:[ g ]);
          ignore (emit em collector Event.Computation "race" ~writes:[ g ])
        end;
        incr w
      end
    done;
    incr r
  done;
  pad em workers.(0) target;
  finish_emitter em

(* Fork/join tree: the root seeds per-child variables, forks the
   children (program-order edges fork -> first child event, last child
   event -> join), the children chain private writes with occasional
   sibling-pair races on fresh round-local variables, and the root
   reads every child's last variable after the join (refutable through
   the join edges). *)
let fork_join ~events:target ~seed =
  let em = new_emitter () in
  let nchildren = 8 in
  let root = new_pid em "root" in
  let children =
    Array.init nchildren (fun c -> new_pid em (Printf.sprintf "child%d" c))
  in
  let setup = Array.init nchildren (fun _ -> new_var em) in
  Array.iter
    (fun v -> ignore (emit em root Event.Computation "setup" ~writes:[ v ]))
    setup;
  let fork = emit em root (Event.Sync Event.Fork) "fork" in
  Array.iteri
    (fun c pid ->
      ignore
        (emit em pid Event.Computation "init" ~extra_po:[ fork ]
           ~reads:[ setup.(c) ]))
    children;
  let last_var = Array.make nchildren (-1) in
  (* root still needs: join + nchildren reads *)
  let reserve = 1 + nchildren in
  let rounds_est = max 1 ((target - em.count - reserve) / nchildren) in
  let race_every = max 2 (rounds_est / 6) in
  let rng = Random.State.make [| seed; 0xf07c |] in
  let offset = Random.State.int rng race_every in
  let r = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let c = ref 0 in
    while !continue_ && !c < nchildren do
      if em.count + reserve + 1 > target then continue_ := false
      else begin
        (if !r mod race_every = offset && !c land 1 = 1 then begin
           (* sibling-pair race between child c-1 and child c *)
           let g = new_var em in
           if em.count + reserve + 2 <= target then begin
             ignore
               (emit em children.(!c - 1) Event.Computation "race"
                  ~writes:[ g ]);
             ignore
               (emit em children.(!c) Event.Computation "race" ~writes:[ g ])
           end
         end);
        let v = new_var em in
        last_var.(!c) <- v;
        ignore (emit em children.(!c) Event.Computation "work" ~writes:[ v ]);
        incr c
      end
    done;
    incr r
  done;
  let lasts =
    Array.to_list (Array.map (fun pid -> Hashtbl.find em.last pid) children)
  in
  ignore (emit em root (Event.Sync Event.Join) "join" ~extra_po:lasts);
  Array.iter
    (fun v ->
      if v >= 0 && em.count < target then
        ignore (emit em root Event.Computation "collect" ~reads:[ v ]))
    last_var;
  pad em root target;
  finish_emitter em

let big_trace ~family ~events ~seed =
  if events < 64 then invalid_arg "Progen.big_trace: events must be >= 64";
  match family with
  | Pc_mesh -> pc_mesh ~events ~seed
  | Server_logs -> server_logs ~events ~seed
  | Fork_join -> fork_join ~events ~seed
