type edge = { u : int; v : int; w : float }

let kruskal ~n edges =
  let arr = Array.of_list edges in
  let order = Array.init (Array.length arr) (fun i -> i) in
  Array.sort
    (fun i j ->
      let c = Float.compare arr.(i).w arr.(j).w in
      if c <> 0 then c else Int.compare i j)
    order;
  let uf = Union_find.create n in
  let chosen = ref [] in
  Array.iter
    (fun i ->
      let e = arr.(i) in
      if Union_find.union uf e.u e.v then chosen := e :: !chosen)
    order;
  List.rev !chosen

let prim g ~weight =
  let n = Graph.n g in
  let parent = Array.make n (-1) in
  let key = Array.make n infinity in
  let in_tree = Array.make n false in
  (* Simple O(n^2 + m) Prim: adequate for the simulator-scale graphs used
     throughout; avoids a heap dependency. *)
  let pick () =
    let best = ref (-1) in
    for v = 0 to n - 1 do
      if (not in_tree.(v)) && parent.(v) >= 0
         && (!best < 0 || key.(v) < key.(!best))
      then best := v
    done;
    !best
  in
  for root = 0 to n - 1 do
    if not in_tree.(root) then begin
      parent.(root) <- root;
      key.(root) <- 0.;
      let continue = ref true in
      (* grow this component until no fringe vertex remains *)
      while !continue do
        let u = if in_tree.(root) then pick () else root in
        if u < 0 then continue := false
        else begin
          in_tree.(u) <- true;
          Array.iter
            (fun v ->
              if not in_tree.(v) then begin
                let w = weight u v in
                if parent.(v) < 0 || w < key.(v) then begin
                  key.(v) <- w;
                  parent.(v) <- u
                end
              end)
            (Graph.neighbors g u)
        end
      done
    end
  done;
  parent

let tree_edges_of_parents parent =
  let acc = ref [] in
  Array.iteri (fun v p -> if p <> v && p >= 0 then acc := (v, p) :: !acc) parent;
  List.rev !acc

let total_weight edges = List.fold_left (fun acc e -> acc +. e.w) 0. edges

let minimum_spanning_tree g ~weight =
  if not (Traversal.is_connected g) then
    invalid_arg "Mst.minimum_spanning_tree: disconnected graph";
  let parent = prim g ~weight in
  tree_edges_of_parents parent
  |> List.map (fun (a, b) -> if a < b then (a, b) else (b, a))
  |> List.sort (fun (a1, b1) (a2, b2) ->
         match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c)

let is_spanning_tree ~n edges =
  List.length edges = n - 1
  &&
  let uf = Union_find.create n in
  List.for_all (fun (u, v) -> Union_find.union uf u v) edges
  && Union_find.count uf = 1
