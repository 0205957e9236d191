(* The memory-model switch.  See memmodel.mli. *)

type t = Sc | Tso | Pso

let to_string = function Sc -> "sc" | Tso -> "tso" | Pso -> "pso"

let all = [ Sc; Tso; Pso ]

(* By construction: a name is accepted iff some model prints as it. *)
let of_string s = List.find_opt (fun m -> to_string m = s) all

let names = Config.model_names

let default_of_env () =
  match of_string (Config.model ()) with Some m -> m | None -> Sc

(* Domain-local, resolved lazily from EO_MODEL (via the shared Config
   parser) so the CLI, bench and tests all see one switch and [set]
   overrides it.  Domain-local rather than a global ref for the same
   reason as [Engine.selected]: a server worker pool honours a
   per-request model without the domains racing on one cell.  A
   skeleton reads it once, when it is made; nothing a worker domain
   runs reads it again. *)
let selected : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () =
  match Domain.DLS.get selected with
  | Some m -> m
  | None ->
      let m = default_of_env () in
      Domain.DLS.set selected (Some m);
      m

let set m = Domain.DLS.set selected (Some m)

let counter_key = function
  | Sc -> Counters.Model_queries_sc
  | Tso -> Counters.Model_queries_tso
  | Pso -> Counters.Model_queries_pso

(* ------------------------------------------------------------------ *)
(* The kind-only program-order filter.                                 *)
(* ------------------------------------------------------------------ *)

(* The execution model carries no values, so the store-buffer
   relaxations are expressed purely over event kinds: a pure write may
   drain late (pass a later pure read under TSO, a later pure read or
   independent pure write under PSO).  Synchronization events and mixed
   read-write computations act as full fences.  Per-location coherence
   is not this function's business: conflicting same-location accesses
   stay ordered through the dependence edges (feasibility skeleton) or
   the explicit coherence pairs (consistency checker). *)

let is_pure_write e =
  e.Event.kind = Event.Computation
  && e.Event.writes <> [] && e.Event.reads = []

let is_pure_read e =
  e.Event.kind = Event.Computation
  && e.Event.reads <> [] && e.Event.writes = []

let enforced m a b =
  match m with
  | Sc -> true
  | Tso -> not (is_pure_write a && is_pure_read b)
  | Pso -> not (is_pure_write a && (is_pure_read b || is_pure_write b))

let relaxes m = m <> Sc

(* ppo must be the transitive closure of the *filtered pair set* of
   po+, never the filtered closure: for [w x; P(s); r y] the pairs
   (w,P) and (P,r) survive every filter (syncs are fences), so (w,r)
   is enforced through the fence even though the direct pair would be
   relaxed. *)
let ppo m (x : Execution.t) =
  let pox = Execution.po_closure x in
  if m = Sc then pox
  else begin
    let n = Execution.n_events x in
    let keep = Rel.create n in
    Rel.iter
      (fun a b ->
        if enforced m x.Execution.events.(a) x.Execution.events.(b) then
          Rel.add keep a b)
      pox;
    Rel.transitive_closure_in_place keep;
    keep
  end
