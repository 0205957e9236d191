type cache = { memory : bool; dir : string option }

let no_cache = { memory = false; dir = None }
let default_cache () = { memory = true; dir = Config.cache_dir () }

(* Process-wide LRU over serialized payloads, shared by every session so
   repeated analyses of one program amortize across sessions too.  Entry
   count is tiny (the payloads, not the programs, dominate), so a
   move-to-front assoc list is exact LRU at no bookkeeping cost.  Each
   session is still a single-domain object, but the LRU itself is the
   cross-request shared state of the analysis server — sessions living
   on different worker domains hit it concurrently — so its (tiny)
   critical sections run under one mutex. *)
module Lru = struct
  let capacity = 64
  let entries : (string * string) list ref = ref []
  let m = Mutex.create ()

  let locked f =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f

  let find key =
    locked @@ fun () ->
    match List.assoc_opt key !entries with
    | None -> None
    | Some payload ->
        entries := (key, payload) :: List.remove_assoc key !entries;
        Some payload

  let store key payload =
    locked @@ fun () ->
    let rest = List.remove_assoc key !entries in
    let rest =
      if List.length rest >= capacity then List.filteri (fun i _ -> i < capacity - 1) rest
      else rest
    in
    entries := (key, payload) :: rest

  let clear () = locked (fun () -> entries := [])
end

let clear_memory_cache () = Lru.clear ()

type 'a handle = { mutable value : 'a option; mutable force : unit -> unit }

(* Tier-1 devices for the auto engine, attached from above (the triage
   layer owns the approximation devices; this module only knows their
   verdict shape).  [Some v] must be exact — the attacher is responsible
   for sound one-sided clamping — and [None] means "escalate". *)
type oracle = {
  o_feasible : unit -> bool option;
  o_exists_before : int -> int -> bool option;
  o_must_before : int -> int -> bool option;
  o_race : int -> int -> bool option;
}

(* A registered fold, existentially packed.  [visit] uniformly takes the
   pinned order as an option: it is [Some] whenever any fold on the pass
   declared [needs_po], so the (quadratic-ish) [Pinned.po_of_schedule]
   runs at most once per schedule however many consumers ride along. *)
type consumer =
  | C : {
      needs_po : bool;
      init : unit -> 'a;
      visit : 'a -> int array -> Rel.t option -> unit;
      merge : 'a -> 'a -> unit;
      handle : 'a handle;
    }
      -> consumer

type summary = {
  n : int;
  feasible_count : int;
  truncated : bool;
  distinct_classes : int;
  before_some : Rel.t;
  comparable_some : Rel.t;
  incomparable_some : Rel.t;
}

(* ------------------------------------------------------------------ *)
(* The query ladder.  Exact ordering is co-NP-/NP-hard, so every
   per-pair answer comes from a cost-ordered list of tiers, each of which
   either decides the query or gives way to the next.  An engine is a
   list of tiers — [ladder] below is the one place that says which — and
   [climb] is the one loop that runs it, for a session's queries and for
   the race layer's per-pair decisions alike. *)

type _ query =
  | Feasible : bool query
  | Before : int * int -> bool query
  | Witness : int * int -> int array option query
  | Must : int * int -> bool query
  | Race : int * int -> bool query

(* A tier's reply: an answer; [Pass], handing the query on (counted as
   an escalation — so is running out of the tier's own budget slice);
   or [Absent], when the tier has no device for the query at all (no
   oracle attached, or a witness asked of tier 1), skipped uncounted. *)
type 'a reply = Answer of 'a | Pass | Absent

type tier = {
  decide : 'a. 'a query -> 'a reply;
  hit : Counters.key option;  (* bumped per answer (auto tiers only) *)
}

type ladder = {
  tiers : tier list;
  lc : Counters.t;
  lbudget : Budget.t;  (* whose expiry degrades the answer *)
  reaches : Reach.t Lazy.t list;  (* the state engines its tiers run *)
}

let encode_program (sk : Skeleton.t) =
  {
    Encode.n = sk.Skeleton.n;
    po_preds = sk.Skeleton.po_preds;
    dep_preds = sk.Skeleton.dep_preds;
    kinds = sk.Skeleton.kinds;
    sem_init = sk.Skeleton.sem_init;
    sem_binary = sk.Skeleton.sem_binary;
    ev_init = sk.Skeleton.ev_init;
  }

(* Every positive SAT answer is decoded into a schedule and certified by
   the [Replay] oracle before it is believed — an encoder bug surfaces as
   a loud failure here, never as a wrong analysis answer. *)
let certify sk schedule =
  match Replay.check sk schedule with
  | Replay.Feasible -> schedule
  | v ->
      invalid_arg
        (Format.asprintf "Session: SAT witness rejected by replay (%a)"
           Replay.pp_verdict v)

let oracle_tier oracle =
  {
    hit = Some Counters.Triage_approx_hits;
    decide =
      (fun (type a) (q : a query) : a reply ->
        let reply = function Some v -> Answer v | None -> Pass in
        match (!oracle, q) with
        | None, _ | _, Witness _ -> Absent
        | Some o, Feasible -> reply (o.o_feasible ())
        | Some o, Before (a, b) -> reply (o.o_exists_before a b)
        | Some o, Must (a, b) -> reply (o.o_must_before a b)
        | Some o, Race (a, b) -> reply (o.o_race a b));
  }

let reach_tier ?hit reach =
  {
    hit;
    decide =
      (fun (type a) (q : a query) : a reply ->
        let r = Lazy.force reach in
        let v : a =
          match q with
          | Feasible -> Reach.feasible_exists r
          | Before (a, b) -> Reach.exists_before r a b
          | Witness (a, b) -> Reach.witness_before r a b
          | Must (a, b) -> Reach.must_before r a b
          | Race (a, b) -> Reach.exists_race r a b
        in
        Answer v);
  }

(* Queries become assumption probes on one compiled formula. *)
let sat_tier ?hit sk encoder =
  let certified = function
    | None -> false
    | Some s ->
        ignore (certify sk s);
        true
  in
  {
    hit;
    decide =
      (fun (type a) (q : a query) : a reply ->
        let enc = Lazy.force encoder in
        let v : a =
          match q with
          | Feasible -> certified (Encode.feasible_witness enc)
          | Before (a, b) -> certified (Encode.exists_before_witness enc a b)
          | Witness (a, b) ->
              Option.map (certify sk) (Encode.exists_before_witness enc a b)
          | Must (a, b) ->
              certified (Encode.feasible_witness enc)
              && not (certified (Encode.exists_before_witness enc b a))
          | Race (a, b) -> (
              match Encode.race_witness enc a b with
              | Some (s1, s2) -> certified (Some s1) && certified (Some s2)
              | None -> false)
        in
        Answer v);
  }

let scan_before schedule a b =
  let n = Array.length schedule in
  let rec scan i =
    if i >= n then false
    else if schedule.(i) = a then true
    else if schedule.(i) = b then false
    else scan (i + 1)
  in
  scan 0

(* Plain bounded schedule enumeration under its slice: a completed walk
   is exact (the search space is finite), one cut short stops like a
   [?limit] hit.  Races take the state engine under the same slice. *)
let enum_tier ~c sk budget race_reach =
  {
    hit = Some Counters.Triage_enum_hits;
    decide =
      (fun (type a) (q : a query) : a reply ->
        (* The first schedule [p] accepts, if any — one walk. *)
        let find p =
          let found = ref None in
          let (_ : int) =
            Enumerate.iter ~stats:c ~budget:(Lazy.force budget)
              ~engine:Engine.Packed sk (fun s ->
                if p s then begin
                  found := Some (Array.copy s);
                  raise Enumerate.Stop
                end)
          in
          !found
        in
        let v : a =
          match q with
          | Feasible -> find (fun _ -> true) <> None
          | Before (a, b) -> find (fun s -> scan_before s a b) <> None
          | Witness (a, b) -> find (fun s -> scan_before s a b)
          | Must (a, b) ->
              let any = ref false in
              find (fun s ->
                  any := true;
                  scan_before s b a)
              = None
              && !any
          | Race (a, b) -> Reach.exists_race (Lazy.force race_reach) a b
        in
        Answer v);
  }

(* The SAT tier compiles one two-copy-capable formula; past this many
   events the encoding itself dwarfs the other tiers, so the auto ladder
   leaves it out (absent, not defeated: no escalation is counted). *)
let auto_sat_cap = 128

(* Each engine as its list of tiers.  [reach] is the state engine over
   the whole [budget] (a session shares it with its summaries and
   counts); the auto ladder's tiers 2–4 each run under their own
   [Budget.sub] slice, made on first use, once per ladder. *)
let ladder engine ~c ~budget ~oracle ~reach sk =
  let make tiers reaches = { tiers; lc = c; lbudget = budget; reaches } in
  let encoder budget = Encode.build ~stats:c ~budget (encode_program sk) in
  match engine with
  | Engine.Naive | Engine.Packed -> make [ reach_tier reach ] [ reach ]
  | Engine.Sat -> make [ sat_tier sk (lazy (encoder budget)) ] []
  | Engine.Auto ->
      let slice nodes = Budget.sub budget ~node_budget:(nodes ()) () in
      let reach_slice =
        lazy (Reach.create ~stats:c ~budget:(slice Config.triage_reach_nodes) sk)
      in
      let enum_slice = lazy (slice Config.triage_enum_nodes) in
      let enum_reach =
        lazy (Reach.create ~stats:c ~budget:(Lazy.force enum_slice) sk)
      in
      let sat =
        if sk.Skeleton.n > auto_sat_cap then []
        else
          let conflicts = Config.triage_sat_conflicts in
          [
            sat_tier ~hit:Counters.Triage_sat_hits sk
              (lazy
                (encoder (Budget.sub budget ~conflict_budget:(conflicts ()) ())));
          ]
      in
      make
        ((oracle_tier oracle
         :: reach_tier ~hit:Counters.Triage_reach_hits reach_slice
         :: sat)
        @ [ enum_tier ~c sk enum_slice enum_reach ])
        [ reach_slice; enum_reach ]

(* A tier gave way.  If the ladder's own budget is gone this is a real
   expiry (re-raised, for the caller to degrade); otherwise count the
   escalation and let the next tier try. *)
let escalate l =
  Budget.raise_if_exhausted l.lbudget;
  Counters.bump l.lc Counters.Triage_escalations

(* The last tier is exact: its expiry is the query's. *)
let rec climb : type a. ladder -> a query -> tier list -> a =
 fun l q -> function
  | [] -> invalid_arg "Session: a ladder must end in an exact tier"
  | tier :: rest -> (
      match tier.decide q with
      | Answer v ->
          (match tier.hit with Some k -> Counters.bump l.lc k | None -> ());
          v
      | Absent -> climb l q rest
      | Pass ->
          escalate l;
          climb l q rest
      | exception Budget.Expired when rest <> [] ->
          escalate l;
          climb l q rest)

let decide l q = climb l q l.tiers

let decide_race engine ~stats ~budget ?oracle sk a b =
  let reach = lazy (Reach.create ~stats ~budget sk) in
  let l = ladder engine ~c:stats ~budget ~oracle:(ref oracle) ~reach sk in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun r -> if Lazy.is_val r then Reach.stats_commit (Lazy.force r))
        l.reaches)
    (fun () -> decide l (Race (a, b)))

(* ------------------------------------------------------------------ *)
(* Sessions. *)

type t = {
  sk : Skeleton.t;
  engine : Engine.t;  (* read once, when the session is made *)
  limit : int option;
  jobs : int;
  stats : Telemetry.t option;
  c : Counters.t;
  budget : Budget.t;
  cache : cache;
  key : Program_key.t Lazy.t;
  reach : Reach.t Lazy.t;
  oracle : oracle option ref;  (* auto tier 1, set by Triage.attach *)
  ladder : ladder;
  memo : (bool query, bool) Hashtbl.t option;  (* auto only *)
  mutable pending_full : consumer list;  (* reversed registration order *)
  mutable pending_por : consumer list;
  mutable full_stats : (int * bool) option;  (* schedules visited, truncated *)
  mutable por_stats : (int * bool) option;  (* representatives, truncated *)
  mutable summary_full_memo : summary option;
  mutable summary_reduced_memo : summary option;
}

let create ?limit ?(jobs = 1) ?stats ?(budget = Budget.unlimited)
    ?(cache = no_cache) sk =
  let c = match stats with Some tel -> Telemetry.counters tel | None -> Counters.null in
  let engine = Engine.current () in
  (* The report names the engine and jobs of the session it rides from
     the start, whatever query runs (or none). *)
  Option.iter
    (fun tel -> Telemetry.set_run tel ~engine:(Engine.to_string engine) ~jobs)
    stats;
  let reach = lazy (Reach.create ~stats:c ~budget sk) in
  let oracle = ref None in
  {
    sk;
    engine;
    limit;
    jobs;
    stats;
    c;
    budget;
    cache;
    key = lazy (Program_key.of_execution sk.Skeleton.execution);
    reach;
    oracle;
    ladder = ladder engine ~c ~budget ~oracle ~reach sk;
    memo = (if engine = Engine.Auto then Some (Hashtbl.create 64) else None);
    pending_full = [];
    pending_por = [];
    full_stats = None;
    por_stats = None;
    summary_full_memo = None;
    summary_reduced_memo = None;
  }

let of_execution ?limit ?jobs ?stats ?budget ?cache x =
  create ?limit ?jobs ?stats ?budget ?cache (Skeleton.of_execution x)

let skeleton t = t.sk
let execution t = t.sk.Skeleton.execution
let engine t = t.engine
let key t = Lazy.force t.key
let limit t = t.limit
let jobs t = t.jobs
let budget t = t.budget
let telemetry t = t.stats
let full_pass_stats t = t.full_stats
let reach t = Lazy.force t.reach
let set_oracle t o = t.oracle := Some o
let has_oracle t = !(t.oracle) <> None

(* The auto ladder answers each query once per session, and a pair
   [a = b] without consulting a tier (its oracle would count a hit, and
   [Reach] a query); the exact engines keep every call on the engine,
   where it is counted. *)
let ask t q =
  match t.memo with
  | None -> decide t.ladder q
  | Some memo -> (
      match Hashtbl.find_opt memo q with
      | Some v -> v
      | None ->
          let v = decide t.ladder q in
          Hashtbl.add memo q v;
          v)

let ask_pair t a b q = if a = b && t.memo <> None then false else ask t q
let feasible_exists t = ask t Feasible
let exists_before t a b = ask_pair t a b (Before (a, b))
let must_before t a b = ask_pair t a b (Must (a, b))
let exists_race t a b = ask_pair t a b (Race (a, b))

let witness_before t a b =
  if a = b && t.memo <> None then None else decide t.ladder (Witness (a, b))

let worker_counters c = if Counters.enabled c then Counters.create () else Counters.null

(* ------------------------------------------------------------------ *)
(* The keyed cache: in-memory LRU in front of the optional disk store. *)

let cache_enabled t = t.cache.memory || t.cache.dir <> None

(* Every dimension that changes what a result means is part of the key,
   so staleness is impossible by construction: engine or memory model
   or limit or program mismatch = different key = miss — cached answers
   can never cross models. *)
let entry_key t ~kind =
  String.concat "."
    [
      (Lazy.force t.key).Program_key.hash;
      kind;
      Engine.to_string t.engine;
      Memmodel.to_string t.sk.Skeleton.model;
      (match t.limit with None -> "nolimit" | Some l -> string_of_int l);
    ]

let cache_version = "eocache/2"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let disk_path t ek =
  match t.cache.dir with None -> None | Some dir -> Some (Filename.concat dir (ek ^ ".eocache"))

let disk_read t ek =
  match disk_path t ek with
  | None -> None
  | Some path -> (
      try
        let ic = open_in_bin path in
        Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
        let len = in_channel_length ic in
        let content = really_input_string ic len in
        match String.index_opt content '\n' with
        | None -> None
        | Some i -> (
            if String.sub content 0 i <> cache_version then None
            else
              let rest = String.sub content (i + 1) (len - i - 1) in
              match String.index_opt rest '\n' with
              | None -> None
              | Some j ->
                  if String.sub rest 0 j <> ek then None
                  else Some (String.sub rest (j + 1) (String.length rest - j - 1)))
      with Sys_error _ | End_of_file -> None)

(* Writers racing on one entry must never observe each other's partial
   output: each write goes to a tmp name unique per process *and* per
   write (two domains of one process share a pid), and only a complete
   tmp file is renamed — atomically — over the entry. *)
let tmp_counter = Atomic.make 0

let disk_write t ek payload =
  match disk_path t ek with
  | None -> ()
  | Some path -> (
      try
        Option.iter mkdir_p t.cache.dir;
        let tmp =
          Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
            (Atomic.fetch_and_add tmp_counter 1)
        in
        let oc = open_out_bin tmp in
        (match
           Fun.protect
             ~finally:(fun () -> close_out_noerr oc)
             (fun () ->
               output_string oc cache_version;
               output_char oc '\n';
               output_string oc ek;
               output_char oc '\n';
               output_string oc payload)
         with
        | () -> Sys.rename tmp path
        | exception e ->
            (try Sys.remove tmp with Sys_error _ -> ());
            raise e)
      with Sys_error _ -> ())

let lookup_cached t ~kind ~decode =
  if not (cache_enabled t) then None
  else begin
    let ek = entry_key t ~kind in
    let decoded src payload =
      match decode payload with
      | Some v ->
          Counters.bump t.c
            (match src with
            | `Memory -> Counters.Cache_memory_hits
            | `Disk -> Counters.Cache_disk_hits);
          if src = `Disk && t.cache.memory then Lru.store ek payload;
          Some v
      | None ->
          Counters.bump t.c Counters.Cache_misses;
          None
    in
    match (if t.cache.memory then Lru.find ek else None) with
    | Some payload -> decoded `Memory payload
    | None -> (
        match disk_read t ek with
        | Some payload -> decoded `Disk payload
        | None ->
            Counters.bump t.c Counters.Cache_misses;
            None)
  end

let store_cached t ~kind payload =
  (* Budget-truncated results are partial in a nondeterministic,
     timing-dependent way; memoizing them inside this session is fine,
     but they must never be filed under a key a later (unbudgeted)
     session would trust. *)
  if cache_enabled t && not (Budget.exhausted t.budget) then begin
    let ek = entry_key t ~kind in
    if t.cache.memory then Lru.store ek payload;
    disk_write t ek payload;
    Counters.bump t.c Counters.Cache_stores
  end

(* ------------------------------------------------------------------ *)
(* Pass drivers.  Each drains every fold registered on its pass: one
   traversal serves them all.  The parallel paths follow the invariance
   discipline of {!Parallel}: per-task accumulators and counters are
   created per subtree and merged on the coordinating domain in task
   order, so results and search counters are bit-identical to jobs=1. *)

(* Instantiate one consumer for a sequential walk: an [apply] to call
   per schedule and a [finish] that publishes the accumulator. *)
let sequential_instances consumers =
  List.map
    (fun (C r) ->
      let acc = r.init () in
      ((fun schedule po -> r.visit acc schedule po), fun () -> r.handle.value <- Some acc))
    consumers

(* Instantiate for a parallel walk: a coordinator-side master plus a
   per-task factory whose [commit] merges into the master (commits run
   on the coordinator, in task order). *)
let parallel_instances consumers =
  List.map
    (fun (C r) ->
      let master = r.init () in
      let make_task () =
        let acc = r.init () in
        ((fun schedule po -> r.visit acc schedule po), fun () -> r.merge master acc)
      in
      (make_task, fun () -> r.handle.value <- Some master))
    consumers

let needs_po consumers = List.exists (fun (C r) -> r.needs_po) consumers

(* One pass: a single walk drives every fold registered on it.  [walk]
   is the sequential walk (stopping at the session [limit]); [split]
   cuts the tree into subtree tasks for [walk_task], run in parallel
   when the session may (packed engine, no limit, jobs > 1).  The pass's
   (visited, truncated) goes to [record]. *)
let run_pass t pending ~walk ~split ~walk_task ~record =
  if pending <> [] then begin
    let consumers = List.rev pending in
    let c = t.c and sk = t.sk in
    Counters.bump c Counters.Session_passes;
    Counters.time c Counters.T_total @@ fun () ->
    let po_opt =
      if needs_po consumers then fun s -> Some (Pinned.po_of_schedule sk s)
      else fun _ -> None
    in
    let apply insts schedule =
      let po = po_opt schedule in
      List.iter (fun (apply, _) -> apply schedule po) insts
    in
    let finish insts = List.iter (fun (_, finish) -> finish ()) insts in
    let parallel = t.jobs > 1 && t.limit = None && t.engine = Engine.Packed in
    match if parallel then split () else None with
    | None ->
        let insts = sequential_instances consumers in
        let count =
          Counters.time c Counters.T_enumerate (fun () -> walk (apply insts))
        in
        let truncated =
          (match t.limit with Some l -> count >= l | None -> false)
          || Budget.exhausted t.budget
        in
        record (count, truncated);
        finish insts
    | Some (depth, tasks) ->
        Option.iter (fun tel -> Telemetry.set_split_depth tel depth) t.stats;
        let insts = parallel_instances consumers in
        let results =
          Counters.time c Counters.T_enumerate (fun () ->
              Parallel.map ?telemetry:t.stats ~budget:t.budget ~jobs:t.jobs
                (fun task ->
                  let wc = worker_counters c in
                  let tinsts = List.map (fun (make_task, _) -> make_task ()) insts in
                  (walk_task wc task (apply tinsts), List.map snd tinsts, wc))
                tasks)
        in
        Option.iter
          (fun tel ->
            Telemetry.set_task_schedules tel (Array.map (fun (k, _, _) -> k) results))
          t.stats;
        let total =
          Array.fold_left
            (fun total (count, commits, wc) ->
              Counters.bump c Counters.Par_merges;
              Counters.merge_into ~dst:c wc;
              List.iter (fun commit -> commit ()) commits;
              total + count)
            0 results
        in
        record (total, Budget.exhausted t.budget);
        finish insts
  end

let run_full t =
  let pending = t.pending_full in
  t.pending_full <- [];
  run_pass t pending
    ~walk:
      (Enumerate.iter ?limit:t.limit ~stats:t.c ~budget:t.budget
         ~engine:t.engine t.sk)
    ~split:(fun () -> Parallel.split_prefixes ~stats:t.c t.sk ~jobs:t.jobs)
    ~walk_task:(fun wc prefix ->
      Enumerate.iter_from ~stats:wc ~budget:t.budget t.sk ~prefix)
    ~record:(fun s -> t.full_stats <- Some s)

let run_por t =
  let pending = t.pending_por in
  t.pending_por <- [];
  run_pass t pending
    ~walk:
      (Por.iter_representatives ?limit:t.limit ~stats:t.c ~budget:t.budget
         ~engine:t.engine t.sk)
    ~split:(fun () -> Parallel.split_por_tasks ~stats:t.c t.sk ~jobs:t.jobs)
    ~walk_task:(fun wc task -> Por.iter_task ~stats:wc ~budget:t.budget t.sk task)
    ~record:(fun s -> t.por_stats <- Some s)

(* ------------------------------------------------------------------ *)
(* Registration. *)

let register_full t ~needs_po ~init ~visit ~merge =
  let handle = { value = None; force = Fun.id } in
  handle.force <- (fun () -> run_full t);
  t.pending_full <- C { needs_po; init; visit; merge; handle } :: t.pending_full;
  handle

let fold_schedules t ~init ~visit ~merge =
  register_full t ~needs_po:false ~init
    ~visit:(fun acc schedule _po -> visit acc schedule)
    ~merge

let fold_pinned t ~init ~visit ~merge =
  register_full t ~needs_po:true ~init
    ~visit:(fun acc schedule po -> visit acc schedule (Option.get po))
    ~merge

let fold_classes t ~init ~visit ~merge =
  let handle = { value = None; force = Fun.id } in
  handle.force <- (fun () -> run_por t);
  t.pending_por <-
    C
      {
        needs_po = true;
        init;
        visit = (fun acc schedule po -> visit acc schedule (Option.get po));
        merge;
        handle;
      }
    :: t.pending_por;
  handle

let result h =
  match h.value with
  | Some v -> v
  | None ->
      h.force ();
      Option.get h.value

(* ------------------------------------------------------------------ *)
(* The summary consumer (what [Relations.t] is rebuilt from), moved
   here from lib/core so one registered fold can serve it. *)

type sum_acc = {
  before : Rel.t;
  comparable : Rel.t;
  incomparable : Rel.t;
  classes : unit Wordtbl.t;
  position : int array;
}

let make_acc n =
  {
    before = Rel.create n;
    comparable = Rel.create n;
    incomparable = Rel.create n;
    classes = Wordtbl.create 64;
    position = Array.make n 0;
  }

let record_class acc po =
  let key = Rel.pack po in
  if not (Wordtbl.mem acc.classes key) then Wordtbl.add acc.classes key ()

let record_comparability acc po =
  let n = Array.length acc.position in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b then
        if Rel.mem po a b || Rel.mem po b a then Rel.add acc.comparable a b
        else Rel.add acc.incomparable a b
    done
  done

let visit_full acc schedule po =
  let n = Array.length schedule in
  Array.iteri (fun pos e -> acc.position.(e) <- pos) schedule;
  record_class acc po;
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b && acc.position.(a) < acc.position.(b) then Rel.add acc.before a b
    done
  done;
  record_comparability acc po

let visit_class acc _schedule po =
  record_class acc po;
  record_comparability acc po

let merge_acc dst src =
  Rel.union_into dst.before src.before;
  Rel.union_into dst.comparable src.comparable;
  Rel.union_into dst.incomparable src.incomparable;
  Wordtbl.iter
    (fun k () -> if not (Wordtbl.mem dst.classes k) then Wordtbl.add dst.classes k ())
    src.classes

(* ------------------------------------------------------------------ *)
(* The summary payload (the format is documented at [encode_summary] in
   the interface): bit [j] of word [w] of a row is canonical column
   [w * Sys.int_size + j].  The checksum turns any one-byte change into
   a rejection instead of other bits. *)

let checksum s len =
  let h = ref 0x3bf29ce484222325 in
  for i = 0 to len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  !h

let encode_summary (key : Program_key.t) s =
  let tc = key.Program_key.to_canonical and oc = key.Program_key.of_canonical in
  let n = s.n in
  let words = (n + Sys.int_size - 1) / Sys.int_size in
  let buf = Buffer.create 256 in
  Printf.bprintf buf "%d %d %d %d\n" n s.feasible_count
    (Bool.to_int s.truncated) s.distinct_classes;
  let row = Array.make words 0 in
  let rel r =
    for ci = 0 to n - 1 do
      Array.fill row 0 words 0;
      Bitset.iter
        (fun b ->
          let cb = tc.(b) in
          let w = cb / Sys.int_size in
          row.(w) <- row.(w) lor (1 lsl (cb mod Sys.int_size)))
        (Rel.successors r oc.(ci));
      Array.iteri
        (fun w x -> Printf.bprintf buf (if ci = 0 && w = 0 then "%x" else " %x") x)
        row
    done;
    Buffer.add_char buf '\n'
  in
  rel s.before_some;
  rel s.comparable_some;
  rel s.incomparable_some;
  let body = Buffer.contents buf in
  Printf.sprintf "%s%x\n" body (checksum body (String.length body))

let decimal_digit c = if c >= '0' && c <= '9' then Char.code c - 48 else -1

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | _ -> -1

exception Malformed

let decode_summary (key : Program_key.t) payload =
  let oc = key.Program_key.of_canonical in
  let len = String.length payload in
  let pos = ref 0 in
  let expect c =
    if !pos < len && String.unsafe_get payload !pos = c then incr pos
    else raise Malformed
  in
  (* A non-empty run of digits, folded by [step] (which sees how many
     came before). *)
  let rec number digit step v k =
    let d = if !pos < len then digit (String.unsafe_get payload !pos) else -1 in
    if d >= 0 then begin
      incr pos;
      number digit step (step v d k) (k + 1)
    end
    else if k = 0 then raise Malformed
    else v
  in
  let decimal () =
    number decimal_digit
      (fun v d _ ->
        if v > (max_int - d) / 10 then raise Malformed;
        (v * 10) + d)
      0 0
  in
  (* Sixteen hex digits hold a word when the first is at most 7; the
     last shift carries it into the sign bit, as encoded. *)
  let hex () =
    number hex_digit
      (fun v d k ->
        if k = 16 || (k = 15 && v lsr 56 > 7) then raise Malformed;
        (v lsl 4) lor d)
      0 0
  in
  try
    let n = decimal () in
    if n <> Array.length oc then raise Malformed;
    expect ' ';
    let feasible_count = decimal () in
    expect ' ';
    let truncated =
      match decimal () with 0 -> false | 1 -> true | _ -> raise Malformed
    in
    expect ' ';
    let distinct_classes = decimal () in
    expect '\n';
    let words = (n + Sys.int_size - 1) / Sys.int_size in
    let rel () =
      let r = Rel.create n in
      for ci = 0 to n - 1 do
        for w = 0 to words - 1 do
          if ci > 0 || w > 0 then expect ' ';
          let x = hex () in
          let base = w * Sys.int_size in
          let width = min Sys.int_size (n - base) in
          if width < Sys.int_size && x lsr width <> 0 then raise Malformed;
          for j = 0 to width - 1 do
            if (x lsr j) land 1 = 1 then Rel.add r oc.(ci) oc.(base + j)
          done
        done
      done;
      expect '\n';
      r
    in
    let before_some = rel () in
    let comparable_some = rel () in
    let incomparable_some = rel () in
    let body = !pos in
    let sum = hex () in
    expect '\n';
    if !pos <> len || sum <> checksum payload body then raise Malformed;
    Some
      {
        n;
        feasible_count;
        truncated;
        distinct_classes;
        before_some;
        comparable_some;
        incomparable_some;
      }
  with Malformed -> None

(* ------------------------------------------------------------------ *)
(* Cached whole-program summaries. *)

let compute_summary_full t =
  let n = t.sk.Skeleton.n in
  let handle =
    fold_pinned t ~init:(fun () -> make_acc n) ~visit:visit_full ~merge:merge_acc
  in
  let acc = result handle in
  let feasible_count, truncated = Option.get t.full_stats in
  {
    n;
    feasible_count;
    truncated;
    distinct_classes = Wordtbl.length acc.classes;
    before_some = acc.before;
    comparable_some = acc.comparable;
    incomparable_some = acc.incomparable;
  }

(* The class-level summary, under every engine: the count and every
   happened-before bit from one pass over the reachable states, the
   comparability bits and class count from the POR pass. *)
let compute_summary_reduced t =
  let n = t.sk.Skeleton.n in
  let c = t.c in
  let reach = reach t in
  let before_some = Rel.create n in
  (* A pass cut short keeps the bits it proved (a sound under-
     approximation) but has no partial count: 0 is the only sound
     under-count, and [truncated] below tells the reader it is one. *)
  let feasible_count =
    try
      Counters.time c Counters.T_total (fun () ->
          Counters.time c Counters.T_before (fun () ->
              Reach.count_and_before reach before_some))
    with Budget.Expired -> 0
  in
  Reach.stats_commit reach;
  (* Comparability bits and class count ride the POR pass (together with
     any other class folds registered on this session). *)
  let handle =
    fold_classes t ~init:(fun () -> make_acc n) ~visit:visit_class ~merge:merge_acc
  in
  let acc = result handle in
  let truncated =
    (match t.por_stats with Some (_, tr) -> tr | None -> false)
    || Budget.exhausted t.budget
  in
  {
    n;
    feasible_count;
    truncated;
    distinct_classes = Wordtbl.length acc.classes;
    before_some;
    comparable_some = acc.comparable;
    incomparable_some = acc.incomparable;
  }

(* Every session answer is attributed to the model it was decided
   under — the per-pair outcome wrappers bump in [outcome_of]; the
   whole-trace entry points (summaries, cached blobs) bump here. *)
let bump_model t =
  Counters.bump t.c (Memmodel.counter_key t.sk.Skeleton.model)

let cached_summary t ~kind ~memo ~set_memo ~compute =
  Counters.bump t.c Counters.Session_queries;
  bump_model t;
  match memo with
  | Some s -> s
  | None ->
      let s =
        match lookup_cached t ~kind ~decode:(fun p -> decode_summary (key t) p) with
        | Some s -> s
        | None ->
            let s = compute t in
            if cache_enabled t then store_cached t ~kind (encode_summary (key t) s);
            s
      in
      Counters.set t.c Counters.Classes s.distinct_classes;
      set_memo s;
      s

let summary_enumerated t =
  cached_summary t ~kind:"summary-full" ~memo:t.summary_full_memo
    ~set_memo:(fun s -> t.summary_full_memo <- Some s)
    ~compute:compute_summary_full

let summary_reduced t =
  cached_summary t ~kind:"summary-reduced" ~memo:t.summary_reduced_memo
    ~set_memo:(fun s -> t.summary_reduced_memo <- Some s)
    ~compute:compute_summary_reduced

(* Both summaries are the same record; the class-level one costs the
   reachable state space instead of |F(P)|.  Enumeration stays where
   only it will do: a [limit] caps the schedules it visits, and the
   naive engine is the independent reference. *)
let summary t =
  if t.limit <> None || t.engine = Engine.Naive then summary_enumerated t
  else summary_reduced t

let schedule_count t =
  Counters.bump t.c Counters.Session_queries;
  Reach.schedule_count (reach t)

let cached_blob t ~kind produce =
  Counters.bump t.c Counters.Session_queries;
  bump_model t;
  match lookup_cached t ~kind ~decode:(fun p -> Some p) with
  | Some payload -> payload
  | None ->
      let payload = produce () in
      store_cached t ~kind payload;
      payload

(* ------------------------------------------------------------------ *)
(* Typed degradation: budget expiry never crosses this API as an
   exception.  Could-have queries degrade to [false] / [None] — a sound
   under-report, the same direction as a [?limit] hit — while must-have
   queries degrade to [true], a sound over-approximation.  Either way
   the partial answer errs on the side the relation's contract already
   allows, and the [outcome] type says which kind of answer this is. *)

let degraded t v =
  Counters.bump t.c Counters.Timeout_expirations;
  Counters.bump t.c Counters.Timeout_degraded;
  Budget.Bound_hit v

let outcome_of t ~fallback f =
  bump_model t;
  match f () with
  | v -> Budget.Exact v
  | exception Budget.Expired -> degraded t fallback

let feasible_exists_outcome t =
  outcome_of t ~fallback:true (fun () -> feasible_exists t)

let exists_before_outcome t a b =
  outcome_of t ~fallback:false (fun () -> exists_before t a b)

let witness_before_outcome t a b =
  outcome_of t ~fallback:None (fun () -> witness_before t a b)

let must_before_outcome t a b =
  if a = b then Budget.Exact false
  else outcome_of t ~fallback:true (fun () -> must_before t a b)

let exists_race_outcome t a b =
  outcome_of t ~fallback:false (fun () -> exists_race t a b)

let schedule_count_outcome t =
  outcome_of t ~fallback:0 (fun () -> schedule_count t)

(* Summaries truncate internally (enumeration stops like a [?limit]
   hit) rather than raising, so the outcome is read off the record's
   own [truncated] flag. *)
let summary_mark t s =
  if s.truncated then begin
    if Budget.exhausted t.budget then
      Counters.bump t.c Counters.Timeout_degraded;
    Budget.Bound_hit s
  end
  else Budget.Exact s

(* [Decide]'s MHB/CHB read: only a class-level summary the session
   already holds, only an exact one, and never under the naive engine,
   whose pairs stay on its own ladder so the reference stays
   independent. *)
let from_summary t f =
  match t.summary_reduced_memo with
  | Some s when (not s.truncated) && t.engine <> Engine.Naive ->
      bump_model t;
      Some (f s)
  | Some _ | None -> None

let summary_outcome t = summary_mark t (summary t)
let summary_reduced_outcome t = summary_mark t (summary_reduced t)

(* The plain (bool-returning) query API is the outcome API with the
   degradation folded in — existing callers keep their signatures and
   inherit graceful expiry for free. *)
let feasible_exists t = Budget.value (feasible_exists_outcome t)
let exists_before t a b = Budget.value (exists_before_outcome t a b)
let witness_before t a b = Budget.value (witness_before_outcome t a b)
let must_before t a b = Budget.value (must_before_outcome t a b)
let exists_race t a b = Budget.value (exists_race_outcome t a b)
let schedule_count t = Budget.value (schedule_count_outcome t)
