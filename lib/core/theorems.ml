type check = {
  theorem : int;
  formula : Cnf.t;
  satisfiable : bool;
  ordering_holds : bool;
  agrees : bool;
  bound_hit : bool;
  n_events : int;
}

let decide_of_trace ?stats ?budget tr =
  Decide.create ?stats ?budget (Trace.to_execution tr)

(* The decision step against an already-built [Decide.t], so several
   theorems over one reduction trace can share its session (and memoized
   reachability engine).  A budget expiry degrades the ordering verdict
   (never raises), so [bound_hit] marks the check as inconclusive rather
   than letting a degraded answer masquerade as a counterexample. *)
let decide_with decide ~relation ~satisfiable a b =
  let verdict =
    match relation with
    | `Mhb_ab ->
        let o = Decide.holds_outcome decide Relations.MHB a b in
        let h = Budget.value o in
        (h, h = not satisfiable, not (Budget.is_exact o))
    | `Chb_ba ->
        let o = Decide.holds_outcome decide Relations.CHB b a in
        let h = Budget.value o in
        (h, h = satisfiable, not (Budget.is_exact o))
  in
  Decide.stats_commit decide;
  verdict

let sem_context ?(binary = false) formula =
  let red = Reduction_sem.build ~binary formula in
  let tr = Reduction_sem.trace red in
  let a, b = Reduction_sem.events_ab red tr in
  (tr, a, b)

let evt_context formula =
  let red = Reduction_evt.build formula in
  let tr = Reduction_evt.trace red in
  let a, b = Reduction_evt.events_ab red tr in
  (tr, a, b)

let check_with decide ~theorem ~relation ~satisfiable ~formula tr a b =
  let ordering_holds, agrees, bound_hit =
    decide_with decide ~relation ~satisfiable a b
  in
  { theorem; formula; satisfiable; ordering_holds; agrees; bound_hit;
    n_events = Trace.n_events tr }

let check_sem ?stats ?budget ?binary ~theorem ~relation formula =
  let tr, a, b = sem_context ?binary formula in
  let satisfiable = Dpll.is_satisfiable formula in
  check_with
    (decide_of_trace ?stats ?budget tr)
    ~theorem ~relation ~satisfiable ~formula tr a b

let check_evt ?stats ?budget ~theorem ~relation formula =
  let tr, a, b = evt_context formula in
  let satisfiable = Dpll.is_satisfiable formula in
  check_with
    (decide_of_trace ?stats ?budget tr)
    ~theorem ~relation ~satisfiable ~formula tr a b

let check_theorem_1 ?stats ?budget f =
  check_sem ?stats ?budget ~binary:false ~theorem:1 ~relation:`Mhb_ab f

let check_theorem_2 ?stats ?budget f =
  check_sem ?stats ?budget ~binary:false ~theorem:2 ~relation:`Chb_ba f

(* Section 5.1's closing remark: the same results for binary semaphores. *)
let check_theorem_1_binary ?stats ?budget f =
  check_sem ?stats ?budget ~binary:true ~theorem:1 ~relation:`Mhb_ab f

let check_theorem_2_binary ?stats ?budget f =
  check_sem ?stats ?budget ~binary:true ~theorem:2 ~relation:`Chb_ba f

let check_theorem_3 ?stats ?budget f =
  check_evt ?stats ?budget ~theorem:3 ~relation:`Mhb_ab f

let check_theorem_4 ?stats ?budget f =
  check_evt ?stats ?budget ~theorem:4 ~relation:`Chb_ba f

(* All four theorems from shared work: one SAT verdict, one reduction
   trace and one session-backed [Decide.t] per reduction style —
   Theorems 1 & 2 ask about the same semaphore program (MHB a b vs
   CHB b a share the session's reachability memo) and 3 & 4 about the
   same event-style program. *)
let check_all ?stats ?budget formula =
  let satisfiable = Dpll.is_satisfiable formula in
  let tr_sem, a_s, b_s = sem_context formula in
  let d_sem = decide_of_trace ?stats ?budget tr_sem in
  let tr_evt, a_e, b_e = evt_context formula in
  let d_evt = decide_of_trace ?stats ?budget tr_evt in
  [
    check_with d_sem ~theorem:1 ~relation:`Mhb_ab ~satisfiable ~formula tr_sem
      a_s b_s;
    check_with d_sem ~theorem:2 ~relation:`Chb_ba ~satisfiable ~formula tr_sem
      a_s b_s;
    check_with d_evt ~theorem:3 ~relation:`Mhb_ab ~satisfiable ~formula tr_evt
      a_e b_e;
    check_with d_evt ~theorem:4 ~relation:`Chb_ba ~satisfiable ~formula tr_evt
      a_e b_e;
  ]

let pp_check ppf c =
  Format.fprintf ppf
    "Theorem %d: formula %a is %s; %s holds: %b; equivalence %s%s (%d events)"
    c.theorem Cnf.pp c.formula
    (if c.satisfiable then "SAT" else "UNSAT")
    (match c.theorem with 1 | 3 -> "a MHB b" | _ -> "b CHB a")
    c.ordering_holds
    (if c.agrees then "VERIFIED" else "VIOLATED")
    (if c.bound_hit then " [inconclusive: budget exhausted]" else "")
    c.n_events
