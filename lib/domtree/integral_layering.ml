module Graph = Graphs.Graph

type result = {
  packing : Packing.t;
  layers : int;
  successes : int;
}

let default_layers ~n =
  max 2 (int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.)))

let spanning_tree_in g members =
  (* BFS tree of the induced subgraph over the member list *)
  let arr = Array.of_list members in
  let in_set = Hashtbl.create (Array.length arr) in
  Array.iter (fun v -> Hashtbl.replace in_set v ()) arr;
  let member v = Hashtbl.mem in_set v in
  let dist = Graphs.Traversal.distances_within g member arr.(0) in
  let edges = ref [] in
  Array.iter
    (fun v ->
      if v <> arr.(0) && dist.(v) > 0 then begin
        let parent = ref (-1) in
        Array.iter
          (fun u ->
            if member u && dist.(u) = dist.(v) - 1 && !parent < 0 then
              parent := u)
          (Graph.neighbors g v);
        if !parent >= 0 then edges := (min v !parent, max v !parent) :: !edges
      end)
    arr;
  List.sort Packing.compare_edge !edges

let run ?(seed = 42) g ~layers =
  if layers < 1 then invalid_arg "Integral_layering.run: layers < 1";
  let n = Graph.n g in
  let rng = Random.State.make [| seed; n; layers; 13 |] in
  let layer_of = Array.init n (fun _ -> Random.State.int rng layers) in
  let trees = ref [] in
  let successes = ref 0 in
  for l = 0 to layers - 1 do
    let allowed v = layer_of.(v) = l in
    match Graphs.Domination.greedy_cds_within g ~allowed with
    | None -> ()
    | Some members ->
      incr successes;
      trees :=
        {
          Packing.cls = l;
          vertices = Array.of_list members;
          edges = spanning_tree_in g members;
        }
        :: !trees
  done;
  let trees = List.rev !trees in
  {
    packing =
      { Packing.graph = g; trees; weights = List.map (fun _ -> 1.) trees };
    layers;
    successes = !successes;
  }
