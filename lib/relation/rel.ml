type t = { n : int; rows : Bitset.t array }

let create n = { n; rows = Array.init n (fun _ -> Bitset.create n) }

let size r = r.n

let check r i =
  if i < 0 || i >= r.n then invalid_arg "Rel: index out of bounds"

let add r a b =
  check r a;
  check r b;
  Bitset.add r.rows.(a) b

let remove r a b =
  check r a;
  check r b;
  Bitset.remove r.rows.(a) b

let mem r a b =
  check r a;
  check r b;
  Bitset.mem r.rows.(a) b

let successors r a =
  check r a;
  r.rows.(a)

let of_pairs n pairs =
  let r = create n in
  List.iter (fun (a, b) -> add r a b) pairs;
  r

let iter f r =
  for a = 0 to r.n - 1 do
    Bitset.iter (fun b -> f a b) r.rows.(a)
  done

let fold f r init =
  let acc = ref init in
  iter (fun a b -> acc := f a b !acc) r;
  !acc

let to_pairs r = List.rev (fold (fun a b acc -> (a, b) :: acc) r [])

let pair_count r =
  Array.fold_left (fun acc row -> acc + Bitset.cardinal row) 0 r.rows

let copy r = { n = r.n; rows = Array.map Bitset.copy r.rows }

let same_size r1 r2 = if r1.n <> r2.n then invalid_arg "Rel: size mismatch"

let equal r1 r2 =
  same_size r1 r2;
  Array.for_all2 Bitset.equal r1.rows r2.rows

let subset r1 r2 =
  same_size r1 r2;
  Array.for_all2 Bitset.subset r1.rows r2.rows

let map2 f r1 r2 =
  same_size r1 r2;
  { n = r1.n; rows = Array.map2 f r1.rows r2.rows }

let union = map2 Bitset.union
let inter = map2 Bitset.inter
let diff = map2 Bitset.diff

let union_into dst src =
  same_size dst src;
  Array.iteri (fun a row -> Bitset.union_into dst.rows.(a) row) src.rows

let pack r =
  if r.n = 0 then [||]
  else begin
    let wpr = Bitset.num_words r.rows.(0) in
    let out = Array.make (r.n * wpr) 0 in
    Array.iteri
      (fun a row ->
        for w = 0 to wpr - 1 do
          out.((a * wpr) + w) <- Bitset.get_word row w
        done)
      r.rows;
    out
  end

let transpose r =
  let t = create r.n in
  iter (fun a b -> add t b a) r;
  t

let complement r =
  let c = create r.n in
  Array.iteri
    (fun a row ->
      Bitset.fill row;
      Bitset.diff_into row r.rows.(a);
      Bitset.remove row a)
    c.rows;
  c

let irreflexive r =
  let c = copy r in
  Array.iteri (fun a row -> Bitset.remove row a) c.rows;
  c

let is_irreflexive r =
  let ok = ref true in
  for a = 0 to r.n - 1 do
    if Bitset.mem r.rows.(a) a then ok := false
  done;
  !ok

let is_transitive r =
  let ok = ref true in
  for a = 0 to r.n - 1 do
    Bitset.iter
      (fun b -> if not (Bitset.subset r.rows.(b) r.rows.(a)) then ok := false)
      r.rows.(a)
  done;
  !ok

let is_antisymmetric r =
  let ok = ref true in
  iter (fun a b -> if a <> b && mem r b a then ok := false) r;
  !ok

let is_strict_partial_order r = is_irreflexive r && is_transitive r

let is_interval_order r =
  if not (is_strict_partial_order r) then
    invalid_arg "Rel.is_interval_order: not a strict partial order";
  (* Fishburn: interval order iff no 2+2 suborder.  For each related pair
     (a, b), any other related pair (c, d) must satisfy a < d or c < b;
     equivalently succ(a) ⊇ succ(c) or succ(c) ⊇ succ(a) — predecessor
     sets of maximal elements form a chain.  We check the 2+2 directly on
     bit rows: (a,b) and (c,d) violate iff d ∉ succ(a) and b ∉ succ(c). *)
  let ok = ref true in
  iter
    (fun a b ->
      iter
        (fun c d ->
          if
            a <> c && b <> d
            && (not (Bitset.mem r.rows.(a) d))
            && not (Bitset.mem r.rows.(c) b)
          then ok := false)
        r)
    r;
  !ok

let transitive_closure_in_place r =
  (* Warshall with bit-parallel row unions: if a -> k then succ(a) |= succ(k). *)
  for k = 0 to r.n - 1 do
    for a = 0 to r.n - 1 do
      if Bitset.mem r.rows.(a) k then Bitset.union_into r.rows.(a) r.rows.(k)
    done
  done

let transitive_closure r =
  let c = copy r in
  transitive_closure_in_place c;
  c

let reflexive_closure_in_place r =
  for a = 0 to r.n - 1 do
    Bitset.add r.rows.(a) a
  done

let is_acyclic r =
  let c = transitive_closure r in
  let ok = ref true in
  for a = 0 to r.n - 1 do
    if Bitset.mem c.rows.(a) a then ok := false
  done;
  !ok

let transitive_reduction r =
  if not (is_acyclic r) then invalid_arg "Rel.transitive_reduction: cyclic";
  let closure = transitive_closure r in
  let red = copy closure in
  (* Edge a->b is redundant iff some intermediate c has a ->+ c ->+ b. *)
  iter
    (fun a b ->
      Bitset.iter
        (fun c -> if Bitset.mem closure.rows.(c) b then remove red a b)
        closure.rows.(a))
    closure;
  red

let comparable r a b = mem r a b || mem r b a

let pp ppf r =
  let pairs = to_pairs r in
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf (a, b) -> Format.fprintf ppf "%d->%d" a b))
    pairs
