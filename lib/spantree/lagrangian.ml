module Graph = Graphs.Graph

type trace = {
  iterations : int;
  stopped_by_rule : bool;
  max_z_history : float list;
  cost_ratios : float list;
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

(* The §5.1 loop. Each tree is kept as its edge ids; the trees' weights
   decay in place, [weights.(i)] being the i-th tree's, and the edge
   loads are maintained alongside. [z] and [cost] are the loop's own
   scratch, refilled every iteration and lent to [mst] read-only. *)
let iterate g ~lambda ~eps ~max_iterations ~mst initial =
  let n = Graph.n g in
  let m = Graph.m g in
  let tgt = float_of_int (target ~lambda) in
  let alpha = Float.max 2. (log (float_of_int (max 2 n))) in
  let beta = 1. /. (alpha *. Float.max 2. (log (float_of_int (max 2 n)))) in
  let loads = Array.make m 0. in
  let z = Array.make m 0. and cost = Array.make m 0. in
  let trees = ref [] and count = ref 0 in
  let weights = ref [||] in
  let add_tree ids weight =
    let ws = !weights in
    for i = 0 to !count - 1 do
      ws.(i) <- ws.(i) *. (1. -. weight)
    done;
    if !count = Array.length ws then begin
      let grown = Array.make (max 16 (2 * !count)) 0. in
      Array.blit ws 0 grown 0 !count;
      weights := grown
    end;
    !weights.(!count) <- weight;
    incr count;
    for i = 0 to m - 1 do
      loads.(i) <- loads.(i) *. (1. -. weight)
    done;
    Array.iter (fun e -> loads.(e) <- loads.(e) +. weight) ids;
    trees := ids :: !trees
  in
  (* refills z_e = x_e·⌈(λ-1)/2⌉ and returns its maximum *)
  let max_z () =
    let best = ref 0. in
    for i = 0 to m - 1 do
      let zi = loads.(i) *. tgt in
      z.(i) <- zi;
      if zi > !best then best := zi
    done;
    !best
  in
  add_tree initial 1.;
  let zmax = ref (max_z ()) in
  let history = ref [] and ratios = ref [] in
  let stopped = ref false in
  let iterations = ref 0 in
  while (not !stopped) && !iterations < max_iterations do
    incr iterations;
    (* costs in shifted log-space to avoid overflow: ĉ_e = exp(α(z_e -
       zmax)); the stop rule is scale-invariant *)
    for i = 0 to m - 1 do
      cost.(i) <- exp (alpha *. (z.(i) -. !zmax))
    done;
    let tree = mst ~z ~cost in
    let mst_cost = Array.fold_left (fun acc e -> acc +. cost.(e)) 0. tree in
    (* Σ_e c_e x_e, in the same shifted scale as mst_cost *)
    let sum_cx =
      let acc = ref 0. in
      for i = 0 to m - 1 do
        acc := !acc +. (cost.(i) *. loads.(i))
      done;
      !acc
    in
    ratios := (mst_cost /. sum_cx) :: !ratios;
    if mst_cost > (1. -. eps) *. sum_cx then stopped := true
    else begin
      add_tree tree beta;
      zmax := max_z ()
    end;
    history := !zmax :: !history
  done;
  (* the trees share one (u, v) pair per edge *)
  let eu, ev = Graph.csr_endpoints g in
  let pairs = Array.init m (fun e -> (eu.(e), ev.(e))) in
  let ws = !weights in
  let wtrees = ref [] and i = ref !count in
  List.iter
    (fun ids ->
      decr i;
      let edges = Array.fold_right (fun e acc -> pairs.(e) :: acc) ids [] in
      wtrees := { Spacking.edges; weight = ws.(!i) } :: !wtrees)
    !trees;
  ( { Spacking.graph = g; trees = !wtrees },
    {
      iterations = !iterations;
      stopped_by_rule = !stopped;
      max_z_history = List.rev !history;
      cost_ratios = List.rev !ratios;
    } )

let run ?(eps = 0.15) ?max_iterations g ~lambda =
  if not (Graphs.Traversal.is_connected g) then
    invalid_arg "Lagrangian.run: disconnected graph";
  let max_iterations =
    match max_iterations with
    | Some i -> i
    | None -> default_iterations ~n:(Graph.n g)
  in
  (* initial arbitrary tree with weight 1: BFS tree of the graph *)
  let initial =
    let _, parent = Graphs.Traversal.bfs_tree g 0 in
    let acc = ref [] in
    Array.iteri
      (fun v p ->
        if p >= 0 && p <> v then acc := Graph.edge_index g v p :: !acc)
      parent;
    let ids = Array.of_list !acc in
    Array.sort Int.compare ids;
    ids
  in
  let mst ~z:_ ~cost =
    Graphs.Mst.minimum_spanning_tree g ~weight:(fun u v ->
        cost.(Graph.edge_index g u v))
    |> List.map (fun (u, v) -> Graph.edge_index g u v)
    |> Array.of_list
  in
  let collection, trace = iterate g ~lambda ~eps ~max_iterations ~mst initial in
  let scaled = Spacking.scale collection (float_of_int (target ~lambda)) in
  { packing = Spacking.normalize_to_unit_load scaled; collection; trace }
