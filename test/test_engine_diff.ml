(* Differential tests for the packed/parallel exact engines against the
   seed (naive) implementations: identical feasible schedules, identical
   relation matrices, identical POR class structure — on every random
   program, whichever engine or worker count computes them. *)

let qcheck = QCheck_alcotest.to_alcotest

let with_engine e f =
  let saved = Engine.current () in
  Engine.set e;
  Fun.protect ~finally:(fun () -> Engine.set saved) f

let small_skeleton prog =
  match Gen_progs.completed_trace prog with
  | None -> None
  | Some tr ->
      if Trace.n_events tr > 8 then None
      else Some (Skeleton.of_execution (Trace.to_execution tr))

let schedules engine sk =
  with_engine engine (fun () -> Enumerate.all sk)

let prop_same_schedules =
  QCheck.Test.make
    ~name:"naive and packed enumerate identical schedules in order" ~count:150
    Gen_progs.arbitrary_program (fun prog ->
      match small_skeleton prog with
      | None -> true
      | Some sk -> schedules Engine.Naive sk = schedules Engine.Packed sk)

let prop_same_exists_order =
  QCheck.Test.make ~name:"naive and packed agree on exists_order" ~count:100
    Gen_progs.arbitrary_program (fun prog ->
      match small_skeleton prog with
      | None -> true
      | Some sk ->
          let n = sk.Skeleton.n in
          let ok = ref true in
          for a = 0 to n - 1 do
            for b = 0 to n - 1 do
              let naive =
                with_engine Engine.Naive (fun () ->
                    Enumerate.exists_order sk ~before:a ~after:b)
              in
              let packed =
                with_engine Engine.Packed (fun () ->
                    Enumerate.exists_order sk ~before:a ~after:b)
              in
              if naive <> packed then ok := false
            done
          done;
          !ok)

let por_classes engine sk =
  with_engine engine (fun () ->
      let classes = Hashtbl.create 64 in
      let count =
        Por.iter_representatives sk (fun schedule ->
            Hashtbl.replace classes
              (Rel.to_pairs (Pinned.po_of_schedule sk schedule))
              ())
      in
      ( count,
        List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) classes [])
      ))

let prop_same_por =
  QCheck.Test.make
    ~name:"naive and packed POR agree on representatives and classes"
    ~count:150 Gen_progs.arbitrary_program (fun prog ->
      match small_skeleton prog with
      | None -> true
      | Some sk -> por_classes Engine.Naive sk = por_classes Engine.Packed sk)

let prop_por_task_split =
  QCheck.Test.make
    ~name:"POR subtree tasks partition the representatives" ~count:150
    Gen_progs.arbitrary_program (fun prog ->
      match small_skeleton prog with
      | None -> true
      | Some sk ->
          with_engine Engine.Packed (fun () ->
              let n = sk.Skeleton.n in
              if n < 2 then true
              else begin
                let total = Por.count_representatives sk in
                let _, whole_classes = por_classes Engine.Packed sk in
                List.for_all
                  (fun depth ->
                    let tasks = Por.tasks sk ~depth in
                    let classes = Hashtbl.create 64 in
                    let sum =
                      List.fold_left
                        (fun acc task ->
                          acc
                          + Por.iter_task sk task (fun schedule ->
                                Hashtbl.replace classes
                                  (Rel.to_pairs
                                     (Pinned.po_of_schedule sk schedule))
                                  ()))
                        0 tasks
                    in
                    let split_classes =
                      List.sort compare
                        (Hashtbl.fold (fun k () acc -> k :: acc) classes [])
                    in
                    sum = total && split_classes = whole_classes)
                  [ 1; min 2 (n - 1) ]
              end))

let prop_parallel_count =
  QCheck.Test.make ~name:"Parallel.count matches sequential count" ~count:100
    Gen_progs.arbitrary_program (fun prog ->
      match small_skeleton prog with
      | None -> true
      | Some sk ->
          with_engine Engine.Packed (fun () ->
              Parallel.count ~jobs:2 sk = Enumerate.count sk))

let relations_equal a b =
  a.Relations.feasible_count = b.Relations.feasible_count
  && a.Relations.distinct_classes = b.Relations.distinct_classes
  && List.for_all
       (fun rel ->
         Rel.equal (Relations.to_rel a rel) (Relations.to_rel b rel))
       Relations.all_relations

let prop_relations_all_engines =
  QCheck.Test.make
    ~name:
      "compute: naive = packed = packed x2 jobs; compute_reduced likewise"
    ~count:80 Gen_progs.arbitrary_program (fun prog ->
      match small_skeleton prog with
      | None -> true
      | Some sk ->
          let naive =
            with_engine Engine.Naive (fun () -> Relations.compute_enumerated sk)
          in
          let naive_red =
            with_engine Engine.Naive (fun () -> Relations.compute_reduced sk)
          in
          with_engine Engine.Packed (fun () ->
              let packed = Relations.compute_enumerated sk in
              let packed_jobs = Relations.compute_enumerated ~jobs:2 sk in
              let red = Relations.compute_reduced sk in
              let red_jobs = Relations.compute_reduced ~jobs:2 sk in
              relations_equal naive packed
              && relations_equal packed packed_jobs
              && relations_equal naive naive_red
              && relations_equal packed red
              && relations_equal red red_jobs))

let test_jobs_on_reference () =
  (* The reduction program from the Theorem-2 family: one deterministic,
     synchronization-heavy instance through the full parallel path. *)
  let red = Reduction_sem.build (Sat_gen.tiny_sat_3cnf ()) in
  let sk = Skeleton.of_execution (Trace.to_execution (Reduction_sem.trace red)) in
  with_engine Engine.Packed (fun () ->
      let seq = Relations.compute_reduced sk in
      let par = Relations.compute_reduced ~jobs:3 sk in
      Alcotest.(check bool) "reduced engines agree across worker counts" true
        (relations_equal seq par))

let suite =
  [
    qcheck prop_same_schedules;
    qcheck prop_same_exists_order;
    qcheck prop_same_por;
    qcheck prop_por_task_split;
    qcheck prop_parallel_count;
    qcheck prop_relations_all_engines;
    Alcotest.test_case "jobs on the reduction reference" `Quick
      test_jobs_on_reference;
  ]
