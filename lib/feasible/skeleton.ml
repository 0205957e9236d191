type t = {
  execution : Execution.t;
  model : Memmodel.t;
  n : int;
  po_preds : int list array;
  po_succs : int list array;
  dep_preds : int list array;
  kinds : Event.kind array;
  sem_init : int array;
  sem_binary : bool array;
  ev_init : bool array;
}

let of_execution (x : Execution.t) =
  let n = Execution.n_events x in
  let po_preds = Array.make n [] in
  let po_succs = Array.make n [] in
  let dep_preds = Array.make n [] in
  (* Under the SC model the scheduling constraints are the execution's
     immediate program-order edges, untouched.  A relaxing model keeps
     only its preserved program order: the transitive reduction of the
     ppo closure, so the engines explore every schedule the model's
     store-buffer semantics admits.  Per-location coherence survives
     the filter through the dependence edges below. *)
  let model = Memmodel.current () in
  let po =
    if Memmodel.relaxes model then
      Rel.transitive_reduction (Memmodel.ppo model x)
    else x.Execution.program_order
  in
  Rel.iter
    (fun a b ->
      po_succs.(a) <- po_succs.(a) @ [ b ];
      po_preds.(b) <- po_preds.(b) @ [ a ])
    po;
  Rel.iter
    (fun a b ->
      (* A dependence that parallels a program-order edge adds nothing. *)
      if not (List.mem a po_preds.(b)) then dep_preds.(b) <- dep_preds.(b) @ [ a ])
    x.Execution.dependences;
  {
    execution = x;
    model;
    n;
    po_preds;
    po_succs;
    dep_preds;
    kinds = Array.map (fun e -> e.Event.kind) x.Execution.events;
    sem_init = Array.copy x.Execution.sem_init;
    sem_binary = Array.copy x.Execution.sem_binary;
    ev_init = Array.copy x.Execution.ev_init;
  }

let without_pair sk e1 e2 =
  let dependences = Rel.copy sk.execution.Execution.dependences in
  Rel.remove dependences e1 e2;
  Rel.remove dependences e2 e1;
  let dep_preds = Array.copy sk.dep_preds in
  dep_preds.(e1) <- List.filter (fun p -> p <> e2) dep_preds.(e1);
  dep_preds.(e2) <- List.filter (fun p -> p <> e1) dep_preds.(e2);
  { sk with execution = { sk.execution with Execution.dependences }; dep_preds }

let constraint_graph sk =
  let g = Digraph.create sk.n in
  for b = 0 to sk.n - 1 do
    List.iter (fun a -> Digraph.add_edge g a b) sk.po_preds.(b);
    List.iter (fun a -> Digraph.add_edge g a b) sk.dep_preds.(b)
  done;
  g

let pp ppf sk =
  Format.fprintf ppf "@[<v>skeleton: %d events@ " sk.n;
  for e = 0 to sk.n - 1 do
    Format.fprintf ppf "%a  po_preds=%a dep_preds=%a@ " Event.pp
      sk.execution.Execution.events.(e)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Format.pp_print_int)
      sk.po_preds.(e)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Format.pp_print_int)
      sk.dep_preds.(e)
  done;
  Format.fprintf ppf "@]"
