module Graph = Graphs.Graph

type t = {
  base : Graph.t;
  layers : int;
}

let create g ~layers =
  if layers < 2 || layers mod 2 <> 0 then
    invalid_arg "Virtual_graph.create: layers must be even and >= 2";
  { base = g; layers }

let base vg = vg.base
let layers vg = vg.layers
let count vg = 3 * vg.layers * Graph.n vg.base

(* id layout: ((real * layers) + (layer - 1)) * 3 + (vtype - 1) *)
let vid vg ~real ~layer ~vtype =
  if layer < 1 || layer > vg.layers then invalid_arg "Virtual_graph.vid: layer";
  if vtype < 1 || vtype > 3 then invalid_arg "Virtual_graph.vid: type";
  if real < 0 || real >= Graph.n vg.base then
    invalid_arg "Virtual_graph.vid: real";
  (((real * vg.layers) + (layer - 1)) * 3) + (vtype - 1)

let real_of vg id = id / (3 * vg.layers)
let layer_of vg id = (id / 3) mod vg.layers + 1
let type_of _vg id = (id mod 3) + 1

let adjacent vg a b =
  let ra = real_of vg a and rb = real_of vg b in
  (ra = rb && a <> b) || Graph.mem_edge vg.base ra rb
