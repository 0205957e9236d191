type t = Naive | Packed | Sat | Auto

let to_string = function
  | Naive -> "naive"
  | Packed -> "packed"
  | Sat -> "sat"
  | Auto -> "auto"

let all = [ Naive; Packed; Sat; Auto ]

(* By construction: a name is accepted iff some engine prints as it. *)
let of_string s = List.find_opt (fun e -> to_string e = s) all

let default_of_env () =
  match of_string (Config.engine ()) with Some e -> e | None -> Packed

(* Domain-local, resolved lazily from EO_ENGINE (via the shared Config
   parser) so the CLI, bench and tests all see one switch and [set]
   overrides it (differential tests flip it back and forth).  Domain-
   local rather than a global ref so a server worker pool can honour a
   per-request engine without the domains racing on one cell.  Sessions
   read it once, when they are made; nothing a worker domain runs reads
   it again. *)
let selected : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () =
  match Domain.DLS.get selected with
  | Some e -> e
  | None ->
      let e = default_of_env () in
      Domain.DLS.set selected (Some e);
      e

let set e = Domain.DLS.set selected (Some e)
