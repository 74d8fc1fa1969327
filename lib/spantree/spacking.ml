module Graph = Graphs.Graph

type wtree = {
  edges : (int * int) list;
  weight : float;
}

type t = {
  graph : Graph.t;
  trees : wtree list;
}

let compare_edge (u1, v1) (u2, v2) =
  match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c

let size p = List.fold_left (fun acc tr -> acc +. tr.weight) 0. p.trees
let count p = List.length p.trees

let edge_loads p =
  let loads = Array.make (Graph.m p.graph) 0. in
  List.iter
    (fun tr ->
      List.iter
        (fun (u, v) ->
          match Graph.edge_index p.graph u v with
          | i -> loads.(i) <- loads.(i) +. tr.weight
          | exception Not_found -> ())
        tr.edges)
    p.trees;
  loads

let max_edge_load p = Array.fold_left Float.max 0. (edge_loads p)

let max_edge_multiplicity p =
  let counts = Array.make (max 1 (Graph.m p.graph)) 0 in
  List.iter
    (fun tr ->
      List.iter
        (fun (u, v) ->
          match Graph.edge_index p.graph u v with
          | i -> counts.(i) <- counts.(i) + 1
          | exception Not_found -> ())
        tr.edges)
    p.trees;
  Array.fold_left max 0 counts

type violation =
  | Not_spanning of int
  | Edge_outside_graph of int
  | Overloaded_edge of (int * int) * float
  | Bad_weight of int

let pp_violation ppf = function
  | Not_spanning i -> Format.fprintf ppf "tree %d: not a spanning tree" i
  | Edge_outside_graph i -> Format.fprintf ppf "tree %d: edge outside graph" i
  | Overloaded_edge ((u, v), l) ->
    Format.fprintf ppf "edge (%d,%d): load %.4f > 1" u v l
  | Bad_weight i -> Format.fprintf ppf "tree %d: weight outside [0,1]" i

let verify ?(tolerance = 1e-9) p =
  let g = p.graph in
  let n = Graph.n g in
  let violations = ref [] in
  List.iteri
    (fun idx tr ->
      if tr.weight < -.tolerance || tr.weight > 1. +. tolerance then
        violations := Bad_weight idx :: !violations;
      if not (List.for_all (fun (u, v) -> Graph.mem_edge g u v) tr.edges) then
        violations := Edge_outside_graph idx :: !violations;
      if not (Graphs.Mst.is_spanning_tree ~n tr.edges) then
        violations := Not_spanning idx :: !violations)
    p.trees;
  let loads = edge_loads p in
  Array.iteri
    (fun i l ->
      if l > 1. +. tolerance then
        violations := Overloaded_edge (Graph.edge_endpoints g i, l) :: !violations)
    loads;
  List.rev !violations

let is_valid ?tolerance p = verify ?tolerance p = []

let scale p factor =
  {
    p with
    trees = List.map (fun tr -> { tr with weight = tr.weight *. factor }) p.trees;
  }

let normalize_to_unit_load p =
  let l = max_edge_load p in
  if l <= 0. then p else scale p (1. /. l)
