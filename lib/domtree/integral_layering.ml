module Graph = Graphs.Graph

type result = {
  packing : Packing.t;
  layers : int;
  successes : int;
}

let default_layers ~n =
  max 2 (int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.)))

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
      let vertices = Array.of_list members in
      trees :=
        {
          Packing.cls = l;
          vertices;
          edges = Tree_extract.spanning_tree_of_members g vertices;
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
