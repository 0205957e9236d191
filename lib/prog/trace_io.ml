(* Plain-text traces.  See trace_io.mli. *)

(* A whole trace file's contents: what the readers assemble and the
   writer prints. *)
type parts = {
  events : Event.t array;
  po_src : int array;
  po_dst : int array;
  outcome : Trace.outcome;
  violations : int list;
  var_names : string array;
  sem_names : string array;
  sem_binary : bool array;
  ev_names : string array;
  sem_init : int array;
  ev_init : bool array;
  final_store : (string * int) list;
  process_names : (int * string) list;
}

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let add_quoted b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec add_nat b i =
  if i >= 10 then add_nat b (i / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (i mod 10)))

let add_int b i =
  if i >= 0 then add_nat b i else Buffer.add_string b (string_of_int i)

(* Space-separated, as [String.concat " "] prints them. *)
let add_list b add items =
  List.iteri
    (fun k x ->
      if k > 0 then Buffer.add_char b ' ';
      add b x)
    items

let add_op b name x =
  Buffer.add_string b name;
  add_int b x

let add_kind b = function
  | Event.Computation -> Buffer.add_string b "computation"
  | Event.Sync Event.Fork -> Buffer.add_string b "fork"
  | Event.Sync Event.Join -> Buffer.add_string b "join"
  | Event.Sync (Event.Sem_p s) -> add_op b "sem_p " s
  | Event.Sync (Event.Sem_v s) -> add_op b "sem_v " s
  | Event.Sync (Event.Post v) -> add_op b "post " v
  | Event.Sync (Event.Wait v) -> add_op b "wait " v
  | Event.Sync (Event.Clear v) -> add_op b "clear " v

(* Prints [p], program-order edges in array order, handing the buffer to
   [flush] whenever it passes 64 KiB. *)
let add_parts ?(flush = ignore) b p =
  let line () =
    Buffer.add_char b '\n';
    if Buffer.length b >= 65536 then flush b
  in
  let words keyword add items =
    Buffer.add_string b keyword;
    add_list b add items;
    line ()
  in
  Buffer.add_string b "eotrace 1";
  line ();
  (match p.outcome with
  | Trace.Completed -> words "outcome completed" add_int []
  | Trace.Fuel_exhausted -> words "outcome fuel_exhausted" add_int []
  | Trace.Deadlocked pids -> words "outcome deadlocked " add_int pids);
  words "vars " Buffer.add_string (Array.to_list p.var_names);
  words "sems " Buffer.add_string
    (List.mapi
       (fun i name -> if p.sem_binary.(i) then name ^ "*" else name)
       (Array.to_list p.sem_names));
  words "events " Buffer.add_string (Array.to_list p.ev_names);
  words "sem_init " add_int (Array.to_list p.sem_init);
  words "ev_init " add_int
    (List.map (fun v -> if v then 1 else 0) (Array.to_list p.ev_init));
  List.iter
    (fun (pid, name) ->
      Buffer.add_string b "process ";
      add_int b pid;
      Buffer.add_char b ' ';
      Buffer.add_string b name;
      line ())
    p.process_names;
  Array.iter
    (fun e ->
      Buffer.add_string b "event ";
      add_int b e.Event.id;
      Buffer.add_char b ' ';
      add_int b e.Event.pid;
      Buffer.add_char b ' ';
      add_int b e.Event.seq;
      Buffer.add_char b ' ';
      add_kind b e.Event.kind;
      Buffer.add_char b ' ';
      add_quoted b e.Event.label;
      Buffer.add_string b " reads ";
      add_list b add_int e.Event.reads;
      Buffer.add_string b " writes ";
      add_list b add_int e.Event.writes;
      line ())
    p.events;
  Array.iteri
    (fun k a ->
      Buffer.add_string b "po ";
      add_int b a;
      Buffer.add_char b ' ';
      add_int b p.po_dst.(k);
      line ())
    p.po_src;
  List.iter (fun e -> words "violation " add_int [ e ]) p.violations;
  List.iter
    (fun (x, v) ->
      Buffer.add_string b "final ";
      Buffer.add_string b x;
      Buffer.add_char b ' ';
      add_int b v;
      line ())
    p.final_store

let parts_of_trace (t : Trace.t) =
  let edges = Rel.to_pairs t.Trace.program_order in
  {
    events = t.Trace.events;
    po_src = Array.of_list (List.map fst edges);
    po_dst = Array.of_list (List.map snd edges);
    outcome = t.Trace.outcome;
    violations = t.Trace.violations;
    var_names = t.Trace.var_names;
    sem_names = t.Trace.sem_names;
    sem_binary = t.Trace.sem_binary;
    ev_names = t.Trace.ev_names;
    sem_init = t.Trace.sem_init;
    ev_init = t.Trace.ev_init;
    final_store = t.Trace.final_store;
    process_names = t.Trace.process_names;
  }

let to_string t =
  let b = Buffer.create 1024 in
  add_parts b (parts_of_trace t);
  Buffer.contents b

let save_parts path p =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let flush b =
        Buffer.output_buffer oc b;
        Buffer.clear b
      in
      let b = Buffer.create 65536 in
      add_parts ~flush b p;
      flush b;
      close_out oc)

let save path t = save_parts path (parts_of_trace t)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* One parsed line of the eotrace format.  The streaming readers
   ([load] here and [Bigtrace.read]) consume directives one at a time
   and never hold the whole file in memory. *)
type directive =
  | D_blank
  | D_header
  | D_outcome of Trace.outcome
  | D_vars of string array
  | D_sems of string array * bool array
  | D_events of string array
  | D_sem_init of int array
  | D_ev_init of bool array
  | D_process of int * string
  | D_event of Event.t
  | D_po of int * int
  | D_violation of int
  | D_final of string * int

(* The scanner reads a line in place.  Tokens are separated by spaces; a
   token opening with a double quote runs to the matching unescaped
   quote (backslash escapes, [\n] for a newline) and stands for its
   decoded contents wherever it appears.  A line without quotes loses
   everything from its first [#]; the text is then trimmed of
   surrounding whitespace. *)
type cursor = {
  line : string;  (** holds the line's bytes between [first] and [stop] *)
  lineno : int;
  first : int;  (** start of the text left after stripping and trimming *)
  stop : int;  (** its end *)
  mutable pos : int;  (** next byte to scan *)
  mutable src : string;
      (** the current token is bytes [lo, hi) of [src]: [line] itself,
          or the whole of a freshly decoded string for a quoted token
          with escapes *)
  mutable lo : int;
  mutable hi : int;
}

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* Index of the quote closing a quoted token whose contents start at
   [i], or [-1] if the text ends first. *)
let closing line stop i =
  let j = ref i in
  while !j < stop && String.unsafe_get line !j <> '"' do
    j := !j + if String.unsafe_get line !j = '\\' && !j + 1 < stop then 2 else 1
  done;
  if !j < stop then !j else -1

(* Does a quoted token run to the end of the text unclosed? *)
let unterminated c =
  let j = ref c.first and open_end = ref false in
  while !j < c.stop && not !open_end do
    if c.line.[!j] = ' ' then incr j
    else if c.line.[!j] = '"' then begin
      let close = closing c.line c.stop (!j + 1) in
      if close < 0 then open_end := true else j := close + 1
    end
    else
      while !j < c.stop && c.line.[!j] <> ' ' do incr j done
  done;
  !open_end

(* An unterminated string anywhere on the line takes precedence over
   every other diagnostic, as the format has always reported it. *)
let fail c fmt =
  Printf.ksprintf
    (fun m ->
      let m = if unterminated c then "unterminated string" else m in
      failwith (Printf.sprintf "line %d: %s" c.lineno m))
    fmt

let decode line lo close =
  let b = Buffer.create (close - lo) in
  let j = ref lo in
  while !j < close do
    (match line.[!j] with
    | '\\' ->
        incr j;
        Buffer.add_char b (match line.[!j] with 'n' -> '\n' | c -> c)
    | c -> Buffer.add_char b c);
    incr j
  done;
  Buffer.contents b

let rec escaped line j close =
  j < close && (String.unsafe_get line j = '\\' || escaped line (j + 1) close)

(* Moves to the next token; [false] at the end of the text. *)
let next c =
  let line = c.line in
  while c.pos < c.stop && String.unsafe_get line c.pos = ' ' do
    c.pos <- c.pos + 1
  done;
  if c.pos >= c.stop then false
  else begin
    if String.unsafe_get line c.pos = '"' then begin
      let lo = c.pos + 1 in
      let close = closing line c.stop lo in
      if close < 0 then fail c "unterminated string";
      if escaped line lo close then begin
        let s = decode line lo close in
        c.src <- s;
        c.lo <- 0;
        c.hi <- String.length s
      end
      else begin
        c.src <- line;
        c.lo <- lo;
        c.hi <- close
      end;
      c.pos <- close + 1
    end
    else begin
      let j = ref c.pos in
      while !j < c.stop && String.unsafe_get line !j <> ' ' do incr j done;
      c.src <- line;
      c.lo <- c.pos;
      c.hi <- !j;
      c.pos <- !j
    end;
    true
  end

(* A cursor over the line held in bytes [start, stop) of [line]. *)
let cursor ~lineno line start stop =
  (* One pass up to the first '"' finds the first '#': only a line
     without quotes has a comment to strip. *)
  let hash = ref (-1) and i = ref start in
  while !i < stop && String.unsafe_get line !i <> '"' do
    if !hash < 0 && String.unsafe_get line !i = '#' then hash := !i;
    incr i
  done;
  let lo = ref start in
  let hi = ref (if !hash >= 0 && !i = stop then !hash else stop) in
  while !lo < !hi && is_space line.[!lo] do incr lo done;
  while !hi > !lo && is_space line.[!hi - 1] do decr hi done;
  {
    line;
    lineno;
    first = !lo;
    stop = !hi;
    pos = !lo;
    src = line;
    lo = 0;
    hi = 0;
  }

let rec same src lo kw k =
  k = String.length kw
  || String.unsafe_get src (lo + k) = String.unsafe_get kw k
     && same src lo kw (k + 1)

(* The current token equals [kw]. *)
let is c kw = c.hi - c.lo = String.length kw && same c.src c.lo kw 0

(* The current token as a string of its own: [line] may be a buffer the
   caller reuses, so nothing kept may share it. *)
let str c =
  if c.src == c.line then String.sub c.line c.lo (c.hi - c.lo) else c.src

let rec digits src k hi acc =
  if k = hi then acc
  else
    match String.unsafe_get src k with
    | '0' .. '9' as ch -> digits src (k + 1) hi ((acc * 10) + Char.code ch - 48)
    | _ -> -1

(* [int_of_string] on bytes [lo, hi) of [src]: plain decimals of up to
   18 digits, which cannot overflow, are read in place; every other
   spelling goes through [int_of_string_opt] itself. *)
let int_at c src lo hi =
  let signed = lo < hi && (src.[lo] = '-' || src.[lo] = '+') in
  let d0 = if signed then lo + 1 else lo in
  let v = if hi > d0 && hi - d0 <= 18 then digits src d0 hi 0 else -1 in
  if v >= 0 then if src.[lo] = '-' then -v else v
  else
    let tok = String.sub src lo (hi - lo) in
    match int_of_string_opt tok with
    | Some i -> i
    | None -> fail c "expected integer, got %S" tok

let int c = int_at c c.src c.lo c.hi

let bit c = is c "1"

(* The remaining tokens, read left to right. *)
let[@tail_mod_cons] rec rest c read =
  if next c then
    let x = read c in
    x :: rest c read
  else []

(* How many tokens remain, without consuming them. *)
let remaining c =
  let saved = c.pos and k = ref 0 in
  while next c do incr k done;
  c.pos <- saved;
  !k

(* A directive of fixed arity: a wrong operand count is an unknown
   directive, whatever the operands hold. *)
let arity c kw k = if remaining c <> k then fail c "unknown directive %S" kw

let operand c = if next c then int c else fail c "bad event kind"

let rec reads c acc =
  if not (next c) then fail c "missing writes"
  else if is c "writes" then List.rev acc
  else reads c (int c :: acc)

let need c kw = if not (next c) then fail c "unknown directive %S" kw

(* [event ID PID SEQ KIND [OPERAND] LABEL reads INT* writes INT*].  The
   checks run in the order the format has always reported them: the
   operand count, kind, label, reads, writes, then SEQ, PID and ID. *)
let event c =
  need c "event";
  let id_src = c.src and id_lo = c.lo and id_hi = c.hi in
  need c "event";
  let pid_src = c.src and pid_lo = c.lo and pid_hi = c.hi in
  need c "event";
  let seq_src = c.src and seq_lo = c.lo and seq_hi = c.hi in
  let kind =
    if not (next c) then fail c "bad event kind"
    else if is c "computation" then Event.Computation
    else if is c "sem_v" then Event.Sync (Event.Sem_v (operand c))
    else if is c "sem_p" then Event.Sync (Event.Sem_p (operand c))
    else if is c "post" then Event.Sync (Event.Post (operand c))
    else if is c "wait" then Event.Sync (Event.Wait (operand c))
    else if is c "clear" then Event.Sync (Event.Clear (operand c))
    else if is c "fork" then Event.Sync Event.Fork
    else if is c "join" then Event.Sync Event.Join
    else fail c "bad event kind"
  in
  let label = if next c then str c else fail c "missing label" in
  if not (next c && is c "reads") then fail c "missing reads";
  let reads = reads c [] in
  let writes = rest c int in
  let seq = int_at c seq_src seq_lo seq_hi in
  let pid = int_at c pid_src pid_lo pid_hi in
  let id = int_at c id_src id_lo id_hi in
  D_event { Event.id; pid; seq; kind; label; reads; writes }

let outcome c =
  let word =
    if not (next c) then None
    else if is c "completed" then Some Trace.Completed
    else if is c "fuel_exhausted" then Some Trace.Fuel_exhausted
    else if is c "deadlocked" then Some (Trace.Deadlocked (rest c int))
    else None
  in
  match word with
  | Some (Trace.Deadlocked _ as o) -> o
  | Some o when not (next c) -> o
  | _ -> fail c "bad outcome"

let sem_name c =
  if c.hi > c.lo && c.src.[c.hi - 1] = '*' then
    (String.sub c.src c.lo (c.hi - 1 - c.lo), true)
  else (str c, false)

let parse_span ~lineno line start stop =
  let c = cursor ~lineno line start stop in
  if not (next c) then D_blank
  else if is c "event" then event c
  else if is c "po" then begin
    arity c "po" 2;
    ignore (next c);
    let a_src = c.src and a_lo = c.lo and a_hi = c.hi in
    ignore (next c);
    let b = int c in
    D_po (int_at c a_src a_lo a_hi, b)
  end
  else if is c "eotrace" then
    if next c && is c "1" && not (next c) then D_header
    else fail c "unsupported version"
  else if is c "outcome" then D_outcome (outcome c)
  else if is c "vars" then D_vars (Array.of_list (rest c str))
  else if is c "sems" then
    let named = rest c sem_name in
    D_sems
      (Array.of_list (List.map fst named), Array.of_list (List.map snd named))
  else if is c "events" then D_events (Array.of_list (rest c str))
  else if is c "sem_init" then D_sem_init (Array.of_list (rest c int))
  else if is c "ev_init" then D_ev_init (Array.of_list (rest c bit))
  else if is c "process" then begin
    arity c "process" 2;
    ignore (next c);
    let pid_src = c.src and pid_lo = c.lo and pid_hi = c.hi in
    ignore (next c);
    let name = str c in
    D_process (int_at c pid_src pid_lo pid_hi, name)
  end
  else if is c "violation" then begin
    arity c "violation" 1;
    ignore (next c);
    D_violation (int c)
  end
  else if is c "final" then begin
    arity c "final" 2;
    ignore (next c);
    let x = str c in
    ignore (next c);
    D_final (x, int c)
  end
  else fail c "unknown directive %S" (str c)

let parse_line ~lineno raw = parse_span ~lineno raw 0 (String.length raw)

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

(* Growable arrays: one slot per event or edge, no list cell or tuple
   per directive. *)
type 'a vec = { mutable data : 'a array; mutable len : int }

let push v x =
  if v.len = Array.length v.data then begin
    let grown = Array.make (max 64 (2 * v.len)) x in
    Array.blit v.data 0 grown 0 v.len;
    v.data <- grown
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let no_parts =
  {
    events = [||];
    po_src = [||];
    po_dst = [||];
    outcome = Trace.Completed;
    violations = [];
    var_names = [||];
    sem_names = [||];
    sem_binary = [||];
    ev_names = [||];
    sem_init = [||];
    ev_init = [||];
    final_store = [];
    process_names = [];
  }

(* Trace assembly state shared by every reader: the declarations met so
   far in [decl] (its lists newest first), the events and edges in
   growable arrays.  Feed directives in file order, then [finish]. *)
type builder = {
  mutable saw_header : bool;
  mutable saw_outcome : Trace.outcome option;
  mutable decl : parts;
  events_in : Event.t vec;
  po_src_in : int vec;
  po_dst_in : int vec;
}

let new_builder () =
  {
    saw_header = false;
    saw_outcome = None;
    decl = no_parts;
    events_in = { data = [||]; len = 0 };
    po_src_in = { data = [||]; len = 0 };
    po_dst_in = { data = [||]; len = 0 };
  }

let feed b = function
  | D_blank -> ()
  | D_header -> b.saw_header <- true
  | D_outcome o -> b.saw_outcome <- Some o
  | D_vars names -> b.decl <- { b.decl with var_names = names }
  | D_sems (names, binary) ->
      b.decl <- { b.decl with sem_names = names; sem_binary = binary }
  | D_events names -> b.decl <- { b.decl with ev_names = names }
  | D_sem_init values -> b.decl <- { b.decl with sem_init = values }
  | D_ev_init values -> b.decl <- { b.decl with ev_init = values }
  | D_process (pid, name) ->
      let process_names = (pid, name) :: b.decl.process_names in
      b.decl <- { b.decl with process_names }
  | D_event e -> push b.events_in e
  | D_po (x, y) ->
      push b.po_src_in x;
      push b.po_dst_in y
  | D_violation e ->
      b.decl <- { b.decl with violations = e :: b.decl.violations }
  | D_final (x, v) ->
      b.decl <- { b.decl with final_store = (x, v) :: b.decl.final_store }

let undeclared e what x count =
  failwith
    (Printf.sprintf "event %d: %s %d is not declared (%d declared)"
       e.Event.id what x count)

let rec declared_vars e count = function
  | [] -> ()
  | v :: rest ->
      if v < 0 || v >= count then undeclared e "variable" v count;
      declared_vars e count rest

(* Every name an assembled trace uses must be declared: analyses index
   their per-semaphore, per-event-variable and per-variable state by
   these ids. *)
let check_references p =
  let n = Array.length p.events in
  let n_sems = Array.length p.sem_names in
  let n_evs = Array.length p.ev_names in
  let n_vars = Array.length p.var_names in
  for k = 0 to Array.length p.po_src - 1 do
    let a = p.po_src.(k) and b = p.po_dst.(k) in
    if a < 0 || a >= n || b < 0 || b >= n then
      failwith
        (Printf.sprintf "po edge %d %d names an event outside [0, %d)" a b n)
  done;
  if Array.length p.sem_init <> n_sems then
    failwith
      (Printf.sprintf "sem_init has length %d but sems declares %d"
         (Array.length p.sem_init) n_sems);
  if Array.length p.ev_init <> n_evs then
    failwith
      (Printf.sprintf "ev_init has length %d but events declares %d"
         (Array.length p.ev_init) n_evs);
  for i = 0 to n - 1 do
    let e = p.events.(i) in
    (match e.Event.kind with
    | Event.Sync (Event.Sem_p s | Event.Sem_v s) when s < 0 || s >= n_sems ->
        undeclared e "semaphore" s n_sems
    | Event.Sync (Event.Post v | Event.Wait v | Event.Clear v)
      when v < 0 || v >= n_evs ->
        undeclared e "event variable" v n_evs
    | _ -> ());
    declared_vars e n_vars e.Event.reads;
    declared_vars e n_vars e.Event.writes
  done

let finish b =
  if not b.saw_header then failwith "missing 'eotrace 1' header";
  (* Each event goes to the slot its id names: ids must fill [0, n)
     exactly once. *)
  let n = b.events_in.len in
  let events = if n = 0 then [||] else Array.make n b.events_in.data.(0) in
  let filled = Bytes.make n '\000' in
  for k = 0 to n - 1 do
    let e = b.events_in.data.(k) in
    let id = e.Event.id in
    if id < 0 || id >= n || Bytes.get filled id <> '\000' then
      failwith "event ids are not dense from 0";
    Bytes.set filled id '\001';
    events.(id) <- e
  done;
  let outcome =
    match b.saw_outcome with
    | Some o -> o
    | None -> failwith "missing outcome line"
  in
  let d = b.decl in
  let p =
    {
      d with
      events;
      po_src = Array.sub b.po_src_in.data 0 b.po_src_in.len;
      po_dst = Array.sub b.po_dst_in.data 0 b.po_dst_in.len;
      outcome;
      violations = List.rev d.violations;
      final_store = List.rev d.final_store;
      process_names = List.rev d.process_names;
    }
  in
  check_references p;
  p

let trace_of_parts p =
  let program_order = Rel.create (Array.length p.events) in
  Array.iteri (fun k a -> Rel.add program_order a p.po_dst.(k)) p.po_src;
  {
    Trace.events = p.events;
    program_order;
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

(* Feeds [b] every line that ends in bytes [0, held) of [text], parsed
   where it lies, numbering from [!lineno]; returns where the unfinished
   last line starts.  A final piece without a newline is one more line
   (an empty one is blank either way). *)
let feed_lines b lineno text held =
  let start = ref 0 in
  for i = 0 to held - 1 do
    if String.unsafe_get text i = '\n' then begin
      feed b (parse_span ~lineno:!lineno text !start i);
      incr lineno;
      start := i + 1
    end
  done;
  !start

let of_string text =
  let b = new_builder () and lineno = ref 1 in
  let n = String.length text in
  let last = feed_lines b lineno text n in
  feed b (parse_span ~lineno:!lineno text last n);
  trace_of_parts (finish b)

(* Streams the file through one reused buffer: peak memory is the
   longest line plus the builder's accumulated events, never the whole
   file as one string, and no string per line. *)
let read_parts path =
  let b = new_builder () and lineno = ref 1 in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = ref (Bytes.create 65536) and held = ref 0 and eof = ref false in
      while not !eof do
        (* The complete lines held, then the unfinished one moves to the
           front (the buffer doubles when one line fills it). *)
        let text = Bytes.unsafe_to_string !buf in
        let last = feed_lines b lineno text !held in
        let rest = !held - last in
        if rest = Bytes.length !buf then buf := Bytes.extend !buf 0 rest
        else Bytes.blit !buf last !buf 0 rest;
        held := rest;
        let got = input ic !buf rest (Bytes.length !buf - rest) in
        if got > 0 then held := rest + got
        else begin
          eof := true;
          let text = Bytes.unsafe_to_string !buf in
          feed b (parse_span ~lineno:!lineno text 0 rest)
        end
      done);
  finish b

let load path = trace_of_parts (read_parts path)
