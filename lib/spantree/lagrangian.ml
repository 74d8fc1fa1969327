module Graph = Graphs.Graph

type trace = {
  iterations : int;
  stopped_by_rule : bool;
  max_z_history : float list;
}

type result = {
  packing : Spacking.t;
  collection : Spacking.t;
  trace : trace;
}

let target ~lambda = max 1 ((lambda - 1 + 1) / 2)

let default_iterations ~n =
  let lg = log (float_of_int (max 2 n)) /. log 2. in
  max 32 (int_of_float (ceil (lg ** 3.)))

let run ?(eps = 0.15) ?max_iterations ?capacity g ~lambda =
  if not (Graphs.Traversal.is_connected g) then
    invalid_arg "Lagrangian.run: disconnected graph";
  let n = Graph.n g in
  let m = Graph.m g in
  let cap =
    match capacity with
    | None -> Array.make m 1.
    | Some f ->
      Array.init m (fun i ->
          let u, v = Graph.edge_endpoints g i in
          let c = f u v in
          if c <= 0. then invalid_arg "Lagrangian.run: capacity <= 0";
          c)
  in
  let tgt = float_of_int (target ~lambda) in
  let alpha = Float.max 2. (log (float_of_int (max 2 n))) in
  let beta = 1. /. (alpha *. Float.max 2. (log (float_of_int (max 2 n)))) in
  let max_iterations =
    match max_iterations with Some i -> i | None -> default_iterations ~n
  in
  (* collection state: list of (edge list, weight ref); loads maintained
     incrementally over the canonical edge index *)
  let loads = Array.make m 0. in
  let trees = ref [] in
  let add_tree edges weight =
    (* decay existing weights, then append *)
    trees := List.map (fun (es, w) -> (es, w *. (1. -. weight))) !trees;
    Array.iteri (fun i x -> loads.(i) <- x *. (1. -. weight)) loads;
    List.iter
      (fun (u, v) ->
        let i = Graph.edge_index g u v in
        loads.(i) <- loads.(i) +. weight)
      edges;
    trees := (edges, weight) :: !trees
  in
  (* initial arbitrary tree with weight 1: BFS tree of the graph *)
  let initial =
    let _, parent = Graphs.Traversal.bfs_tree g 0 in
    let acc = ref [] in
    Array.iteri
      (fun v p -> if p >= 0 && p <> v then acc := (min v p, max v p) :: !acc)
      parent;
    List.sort Spacking.compare_edge !acc
  in
  add_tree initial 1.;
  let z_of i = loads.(i) *. tgt /. cap.(i) in
  let max_z () =
    let best = ref 0. in
    for i = 0 to m - 1 do
      if z_of i > !best then best := z_of i
    done;
    !best
  in
  let history = ref [] in
  let stopped = ref false in
  let iterations = ref 0 in
  while (not !stopped) && !iterations < max_iterations do
    incr iterations;
    let zmax = max_z () in
    (* costs in shifted log-space to avoid overflow: ĉ_e = exp(α(z_e -
       zmax)); the stop rule is scale-invariant *)
    let cost i = exp (alpha *. (z_of i -. zmax)) in
    let weight u v = cost (Graph.edge_index g u v) in
    let mst = Graphs.Mst.minimum_spanning_tree g ~weight in
    let mst_cost =
      List.fold_left (fun acc (u, v) -> acc +. weight u v) 0. mst
    in
    (* Σ_e c_e x_e, in the same shifted scale as mst_cost *)
    let sum_cx =
      let acc = ref 0. in
      for i = 0 to m - 1 do
        acc := !acc +. (cost i *. loads.(i))
      done;
      !acc
    in
    if mst_cost > (1. -. eps) *. sum_cx then stopped := true
    else add_tree mst beta;
    history := max_z () :: !history
  done;
  let collection =
    {
      Spacking.graph = g;
      trees =
        List.rev_map
          (fun (es, w) -> { Spacking.edges = es; weight = w })
          !trees;
    }
  in
  let scaled = Spacking.scale collection tgt in
  (* normalize so the worst load-to-capacity ratio is 1 *)
  let max_ratio =
    let loads' = Array.make m 0. in
    List.iter
      (fun tr ->
        List.iter
          (fun (u, v) ->
            let i = Graph.edge_index g u v in
            loads'.(i) <- loads'.(i) +. tr.Spacking.weight)
          tr.Spacking.edges)
      scaled.Spacking.trees;
    let best = ref 0. in
    for i = 0 to m - 1 do
      let r = loads'.(i) /. cap.(i) in
      if r > !best then best := r
    done;
    !best
  in
  let packing =
    if max_ratio <= 0. then scaled else Spacking.scale scaled (1. /. max_ratio)
  in
  {
    packing;
    collection;
    trace =
      {
        iterations = !iterations;
        stopped_by_rule = !stopped;
        max_z_history = List.rev !history;
      };
  }
