let forest_ids g edges ~weights =
  let n = Graph.n g in
  let eu, ev = Graph.csr_endpoints g in
  let top =
    Array.fold_left
      (fun acc e ->
        if weights.(e) < 0 then invalid_arg "Mst.forest_ids: negative weight";
        max acc weights.(e))
      0 edges
  in
  (* counting sort by weight; [edges] ascending keeps each bucket in id
     order, so the scan below sees the order (weights.(e), e) *)
  let next = Array.make (top + 2) 0 in
  Array.iter (fun e -> next.(weights.(e) + 1) <- next.(weights.(e) + 1) + 1)
    edges;
  for w = 1 to top + 1 do
    next.(w) <- next.(w) + next.(w - 1)
  done;
  let order = Array.make (Array.length edges) 0 in
  Array.iter
    (fun e ->
      let w = weights.(e) in
      order.(next.(w)) <- e;
      next.(w) <- next.(w) + 1)
    edges;
  let uf = Union_find.create n in
  let chosen = Array.make (max 0 (n - 1)) 0 and count = ref 0 and i = ref 0 in
  while !count < n - 1 && !i < Array.length order do
    let e = order.(!i) in
    if Union_find.union uf eu.(e) ev.(e) then begin
      chosen.(!count) <- e;
      incr count
    end;
    incr i
  done;
  let out = Array.sub chosen 0 !count in
  Array.sort Int.compare out;
  out

let is_spanning_tree ~n edges =
  List.length edges = n - 1
  &&
  let uf = Union_find.create n in
  List.for_all (fun (u, v) -> Union_find.union uf u v) edges
  && Union_find.count uf = 1
