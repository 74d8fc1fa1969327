module Graph = Graphs.Graph
module Net = Congest.Net

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

(* The §5.1 loop on [g], from the spanning tree [initial] (edge ids,
   ascending) with weight 1; [mst z] is the next tree, its edge ids
   ascending. Each tree is kept as its edge ids; the trees' weights
   decay in place, [weights.(i)] being the i-th tree's, and the edge
   loads are maintained alongside. [z] and [cost] are the loop's own
   scratch, refilled every iteration; [z] is lent to [mst] read-only.
   Returns the raw weight-1 collection, trees oldest first. *)
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
    let tree = mst z in
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
  let ws = !weights in
  let wtrees = ref [] and i = ref !count in
  List.iter
    (fun edges ->
      decr i;
      wtrees := { Spacking.edges; weight = ws.(!i) } :: !wtrees)
    !trees;
  ( { Spacking.graph = g; trees = !wtrees },
    {
      iterations = !iterations;
      stopped_by_rule = !stopped;
      max_z_history = List.rev !history;
      cost_ratios = List.rev !ratios;
    } )

type side = Central of Graph.t | Distributed of Congest.Net.t

let graph = function Central g -> g | Distributed net -> Net.graph net

type part = { lambda : int; packed : result option; rounds : int list }

(* Each part runs [iterate] on the whole graph from its minimum spanning
   forest under unit weights; every later MST is solved under z rounded
   to multiples of 1/n, as the integers a message carries (footnote 6),
   with ties to the lower edge id. The sides differ only in that black
   box. The central one is Kruskal. The distributed one runs Borůvka on
   the runtime and then charges the leader's continuation decision, one
   convergecast and one broadcast over a BFS tree all parts share, as
   silent rounds; [rounds] collects each solve's total. *)
let run_on side ~eps ~max_iterations parts =
  let g = graph side in
  let n = Graph.n g and m = Graph.m g in
  let weights = Array.make m 1 in
  let rounds = ref [] in
  (* [solver mask] is the MST black box on the part's edges [mask] *)
  let solver =
    match side with
    | Central _ ->
      fun mask ->
        let edges =
          Array.of_seq (Seq.filter (Array.get mask) (Seq.init m Fun.id))
        in
        fun () -> Graphs.Mst.forest_ids g edges ~weights
    | Distributed net ->
      let tree0 = Congest.Primitives.bfs_tree net ~root:0 in
      let coordination = (2 * tree0.Congest.Primitives.height) + 2 in
      let kernel = Congest.Dist_mst.kernel net in
      fun edges ->
        let sub = { Congest.Components.nodes = Array.make n true; edges } in
        let cp = ref (Net.checkpoint net) in
        fun () ->
          let ids = Congest.Dist_mst.forest_ids kernel sub ~weights in
          rounds := (Net.rounds_since net !cp + coordination) :: !rounds;
          Net.silent_rounds net coordination;
          cp := Net.checkpoint net;
          ids
  in
  List.map
    (fun (mask, lambda) ->
      let solve = solver mask in
      rounds := [];
      Array.fill weights 0 m 1;
      let initial = solve () in
      let packed =
        if Array.length initial <> n - 1 then (* disconnected part *) None
        else begin
          let scale = float_of_int n in
          let mst z =
            for e = 0 to m - 1 do
              weights.(e) <- int_of_float (Float.round (z.(e) *. scale))
            done;
            solve ()
          in
          let collection, trace =
            iterate g ~lambda ~eps ~max_iterations ~mst initial
          in
          let scaled =
            Spacking.scale collection (float_of_int (target ~lambda))
          in
          let packing = Spacking.normalize_to_unit_load scaled in
          Some { packing; collection; trace }
        end
      in
      { lambda; packed; rounds = List.rev !rounds })
    parts

let union g parts =
  {
    Spacking.graph = g;
    trees =
      List.concat_map
        (fun p ->
          match p.packed with Some r -> r.packing.Spacking.trees | None -> [])
        parts;
  }

let run ?(eps = 0.15) ?max_iterations g ~lambda =
  if not (Graphs.Traversal.is_connected g) then
    invalid_arg "Lagrangian.run: disconnected graph";
  let max_iterations =
    Option.value max_iterations ~default:(default_iterations ~n:(Graph.n g))
  in
  let parts = [ (Array.make (Graph.m g) true, lambda) ] in
  Option.get (List.hd (run_on (Central g) ~eps ~max_iterations parts)).packed
