(* Columnar traces for the streaming million-event path.  See
   bigtrace.mli. *)

type t = {
  events : Event.t array;
  po_off : int array;
  po_src : int array;
  dep_m1 : int array;
  dep_m2 : int array;
  sync_ev : int array;
  sync_op : int array;
  outcome : Trace.outcome;
  violations : int list;
  var_names : string array;
  sem_names : string array;
  ev_names : string array;
  sem_init : int array;
  sem_binary : bool array;
  ev_init : bool array;
  final_store : (string * int) list;
  process_names : (int * string) list;
}

let n_events t = Array.length t.events

let po_preds t e =
  let rec from k acc =
    if k < t.po_off.(e) then acc else from (k - 1) (t.po_src.(k) :: acc)
  in
  from (t.po_off.(e + 1) - 1) []

let po_pred_max t e =
  let m = ref (-1) in
  for k = t.po_off.(e) to t.po_off.(e + 1) - 1 do
    m := max !m t.po_src.(k)
  done;
  !m

(* ------------------------------------------------------------------ *)
(* Dependence maxima                                                   *)
(* ------------------------------------------------------------------ *)

(* Per event, the two largest distinct shared-data dependence
   predecessors ([-1] when absent) — all the prefix-enabledness test
   needs, without materialising the dependence lists (which are
   quadratic per hot variable; see Dependence.of_schedule).  Computed
   in one id-order pass keeping, per variable, its last two writers and
   last two touchers: the overall top-two predecessors of an event are
   always among its variables' per-variable top-two. *)
let dep_maxima ~num_vars events =
  let n = Array.length events in
  let m1 = Array.make n (-1) in
  let m2 = Array.make n (-1) in
  let w1 = Array.make num_vars (-1) in
  let w2 = Array.make num_vars (-1) in
  let t1 = Array.make num_vars (-1) in
  let t2 = Array.make num_vars (-1) in
  let consider e c =
    if c >= 0 && c <> m1.(e) then
      if c > m1.(e) then begin
        m2.(e) <- m1.(e);
        m1.(e) <- c
      end
      else if c > m2.(e) then m2.(e) <- c
  in
  let declared v = v >= 0 && v < num_vars in
  (* A read depends on earlier writers; a write on earlier touchers. *)
  let rec after_writers e = function
    | [] -> ()
    | v :: rest ->
        if declared v then begin
          consider e w1.(v);
          consider e w2.(v)
        end;
        after_writers e rest
  in
  let rec after_touchers e = function
    | [] -> ()
    | v :: rest ->
        if declared v then begin
          consider e t1.(v);
          consider e t2.(v)
        end;
        after_touchers e rest
  in
  let rec touch ~writes e = function
    | [] -> ()
    | v :: rest ->
        if declared v then begin
          if t1.(v) <> e then begin
            t2.(v) <- t1.(v);
            t1.(v) <- e
          end;
          if writes && w1.(v) <> e then begin
            w2.(v) <- w1.(v);
            w1.(v) <- e
          end
        end;
        touch ~writes e rest
  in
  for e = 0 to n - 1 do
    let ev = events.(e) in
    after_writers e ev.Event.reads;
    after_touchers e ev.Event.writes;
    touch ~writes:false e ev.Event.reads;
    touch ~writes:true e ev.Event.writes
  done;
  (m1, m2)

let dep_pred_max_excluding t ~event ~excluding =
  if t.dep_m1.(event) = excluding then t.dep_m2.(event) else t.dep_m1.(event)

(* ------------------------------------------------------------------ *)
(* The replay column                                                   *)
(* ------------------------------------------------------------------ *)

(* A synchronization step packed into one int: the semaphore or event
   variable shifted past a 3-bit operation tag, [-1] for the kinds a
   replay does nothing for (computation, fork, join).  A V on a binary
   semaphore has its own tag, so replays never consult [sem_binary]. *)
let sync_code sem_binary = function
  | Event.Computation | Event.Sync (Event.Fork | Event.Join) -> -1
  | Event.Sync (Event.Sem_p s) -> s lsl 3
  | Event.Sync (Event.Sem_v s) -> (s lsl 3) lor if sem_binary.(s) then 2 else 1
  | Event.Sync (Event.Post v) -> (v lsl 3) lor 3
  | Event.Sync (Event.Wait v) -> (v lsl 3) lor 4
  | Event.Sync (Event.Clear v) -> (v lsl 3) lor 5

(* One replay step on the semaphore counts and event flags; [false]
   when the operation is not enabled. *)
let step sem ev code =
  let x = code lsr 3 in
  match code land 7 with
  | 0 ->
      sem.(x) > 0
      && begin
           sem.(x) <- sem.(x) - 1;
           true
         end
  | 1 ->
      sem.(x) <- sem.(x) + 1;
      true
  | 2 ->
      sem.(x) <- 1;
      true
  | 3 ->
      ev.(x) <- true;
      true
  | 4 -> ev.(x)
  | _ ->
      ev.(x) <- false;
      true

(* The events a replay acts on, in id order, with their packed steps. *)
let sync_column ~sem_binary events =
  let count = ref 0 in
  Array.iter
    (fun e -> if sync_code sem_binary e.Event.kind >= 0 then incr count)
    events;
  let ids = Array.make !count 0 and codes = Array.make !count 0 in
  let k = ref 0 in
  Array.iteri
    (fun id e ->
      let code = sync_code sem_binary e.Event.kind in
      if code >= 0 then begin
        ids.(!k) <- id;
        codes.(!k) <- code;
        incr k
      end)
    events;
  (ids, codes)

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

(* Program-order predecessors in compressed rows: the edges into [e]
   are [po_src.(po_off.(e)) .. po_src.(po_off.(e + 1) - 1)], in the
   order the edges are given. *)
let rows n ~src ~dst =
  let off = Array.make (n + 1) 0 in
  Array.iter (fun b -> off.(b) <- off.(b) + 1) dst;
  for e = 1 to n do
    off.(e) <- off.(e) + off.(e - 1)
  done;
  let preds = Array.make (Array.length src) 0 in
  for k = Array.length src - 1 downto 0 do
    let b = dst.(k) in
    off.(b) <- off.(b) - 1;
    preds.(off.(b)) <- src.(k)
  done;
  (off, preds)

let of_parts (p : Trace_io.parts) =
  let po_off, po_src =
    rows (Array.length p.events) ~src:p.po_src ~dst:p.po_dst
  in
  let dep_m1, dep_m2 =
    dep_maxima ~num_vars:(Array.length p.var_names) p.events
  in
  let sync_ev, sync_op = sync_column ~sem_binary:p.sem_binary p.events in
  {
    events = p.events;
    po_off;
    po_src;
    dep_m1;
    dep_m2;
    sync_ev;
    sync_op;
    outcome = p.outcome;
    violations = p.violations;
    var_names = p.var_names;
    sem_names = p.sem_names;
    ev_names = p.ev_names;
    sem_init = p.sem_init;
    sem_binary = p.sem_binary;
    ev_init = p.ev_init;
    final_store = p.final_store;
    process_names = p.process_names;
  }

let of_trace tr = of_parts (Trace_io.parts_of_trace tr)
let read path = of_parts (Trace_io.read_parts path)

(* The contents of [t], each event's predecessors listed from the end of
   its row: the order [save] has always written them in. *)
let to_parts t =
  let m = Array.length t.po_src in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let k = ref 0 in
  for b = 0 to n_events t - 1 do
    for j = t.po_off.(b + 1) - 1 downto t.po_off.(b) do
      src.(!k) <- t.po_src.(j);
      dst.(!k) <- b;
      incr k
    done
  done;
  {
    Trace_io.events = t.events;
    po_src = src;
    po_dst = dst;
    outcome = t.outcome;
    violations = t.violations;
    var_names = t.var_names;
    sem_names = t.sem_names;
    sem_binary = t.sem_binary;
    ev_names = t.ev_names;
    sem_init = t.sem_init;
    ev_init = t.ev_init;
    final_store = t.final_store;
    process_names = t.process_names;
  }

let to_trace t = Trace_io.trace_of_parts (to_parts t)
let save path t = Trace_io.save_parts path (to_parts t)

(* ------------------------------------------------------------------ *)
(* Race candidates                                                     *)
(* ------------------------------------------------------------------ *)

let conflicting_pairs t =
  let events = t.events in
  let n = Array.length events in
  let num_vars = Array.length t.var_names in
  (* Every conflict found, in discovery order: the pair packed as
     [a * n + b] with [a < b] (ids stay far below 2^31), and the
     variable. *)
  let keys = ref (Array.make 1024 0) and vars = ref (Array.make 1024 0) in
  let m = ref 0 in
  let add a b v =
    if !m = Array.length !keys then begin
      let grow old = Array.append old (Array.make (Array.length old) 0) in
      keys := grow !keys;
      vars := grow !vars
    end;
    !keys.(!m) <- (a * n) + b;
    !vars.(!m) <- v;
    incr m
  in
  (* Per variable, the computation events that read or wrote it so
     far, latest first. *)
  let writers = Array.make num_vars [] in
  let readers = Array.make num_vars [] in
  let declared v = v >= 0 && v < num_vars in
  let rec against e pid v = function
    | [] -> ()
    | w :: rest ->
        if events.(w).Event.pid <> pid then add w e v;
        against e pid v rest
  in
  let rec reads e pid = function
    | [] -> ()
    | v :: rest ->
        if declared v then against e pid v writers.(v);
        reads e pid rest
  in
  let rec writes e pid = function
    | [] -> ()
    | v :: rest ->
        if declared v then begin
          against e pid v writers.(v);
          against e pid v readers.(v)
        end;
        writes e pid rest
  in
  let rec record touched e = function
    | [] -> ()
    | v :: rest ->
        if declared v then touched.(v) <- e :: touched.(v);
        record touched e rest
  in
  for e = 0 to n - 1 do
    let ev = events.(e) in
    if Event.is_computation ev then begin
      reads e ev.Event.pid ev.Event.reads;
      writes e ev.Event.pid ev.Event.writes;
      record readers e ev.Event.reads;
      record writers e ev.Event.writes
    end
  done;
  let keys = !keys and vars = !vars in
  let order = Array.init !m Fun.id in
  Array.stable_sort
    (fun i j ->
      let c = Int.compare keys.(i) keys.(j) in
      if c <> 0 then c else Int.compare vars.(i) vars.(j))
    order;
  (* One triple per distinct key, built back to front so the list comes
     out sorted, each variable list ascending and duplicate-free. *)
  let out = ref [] in
  let i = ref (!m - 1) in
  while !i >= 0 do
    let key = keys.(order.(!i)) in
    let vs = ref [] in
    while !i >= 0 && keys.(order.(!i)) = key do
      let v = vars.(order.(!i)) in
      (match !vs with w :: _ when w = v -> () | _ -> vs := v :: !vs);
      decr i
    done;
    out := (key / n, key mod n, !vs) :: !out
  done;
  !out

(* ------------------------------------------------------------------ *)
(* Replay certification                                                *)
(* ------------------------------------------------------------------ *)

let observed_replays t =
  (* Precedence is forward by construction (ids are in observed order
     and [dep_maxima] builds dependence maxima the same way), so the
     program-order edges and the synchronization state are all there is
     to check. *)
  let forward = ref true in
  for b = 0 to n_events t - 1 do
    if po_pred_max t b >= b then forward := false
  done;
  let sem = Array.copy t.sem_init and ev = Array.copy t.ev_init in
  let ok = ref !forward and i = ref 0 in
  while !ok && !i < Array.length t.sync_ev do
    ok := step sem ev t.sync_op.(!i);
    incr i
  done;
  !ok

let certify_swap t a b =
  (* Replay the observed schedule with [b] hoisted to run back-to-back
     with [a], in the order [b; a]: prefix unchanged, then [b], then
     [a], then the rest in observed order.  Both pair events are
     computations, so only synchronization enabledness can differ — and
     it cannot, but this runs the actual certificate schedule rather
     than trusting the argument.  Steps that change no state
     (computation, fork, join) are the only ones not visited. *)
  let n = n_events t in
  if a < 0 || b < 0 || a >= n || b >= n || a = b then false
  else
    let lo = min a b and hi = max a b in
    let sem = Array.copy t.sem_init and ev = Array.copy t.ev_init in
    let ids = t.sync_ev and codes = t.sync_op in
    let run e =
      let code = sync_code t.sem_binary t.events.(e).Event.kind in
      code < 0 || step sem ev code
    in
    let ok = ref true and i = ref 0 in
    while !ok && !i < Array.length ids && ids.(!i) < lo do
      ok := step sem ev codes.(!i);
      incr i
    done;
    ok := !ok && run hi && run lo;
    while !ok && !i < Array.length ids do
      let e = ids.(!i) in
      if e <> lo && e <> hi then ok := step sem ev codes.(!i);
      incr i
    done;
    !ok
