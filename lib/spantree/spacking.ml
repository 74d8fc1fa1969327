module Graph = Graphs.Graph

type wtree = {
  edges : int array;
  weight : float;
}

type t = {
  graph : Graph.t;
  trees : wtree list;
}

let size p = List.fold_left (fun acc tr -> acc +. tr.weight) 0. p.trees
let count p = List.length p.trees

(* [on_edges p f] calls [f e tr] for every edge id [e] of every tree
   [tr], once per listing; ids outside the graph are skipped. *)
let on_edges p f =
  let m = Graph.m p.graph in
  List.iter
    (fun tr -> Array.iter (fun e -> if e >= 0 && e < m then f e tr) tr.edges)
    p.trees

let edge_loads p =
  let loads = Array.make (Graph.m p.graph) 0. in
  on_edges p (fun e tr -> loads.(e) <- loads.(e) +. tr.weight);
  loads

let max_edge_load p = Array.fold_left Float.max 0. (edge_loads p)

let max_edge_multiplicity p =
  let counts = Array.make (max 1 (Graph.m p.graph)) 0 in
  on_edges p (fun e _ -> counts.(e) <- counts.(e) + 1);
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

(* n - 1 graph edges, each joining two components: a spanning tree *)
let spans g ids =
  let n = Graph.n g and m = Graph.m g in
  let us, vs = Graph.csr_endpoints g in
  let uf = Graphs.Union_find.create n in
  Array.length ids = n - 1
  && Array.for_all
       (fun e -> e >= 0 && e < m && Graphs.Union_find.union uf us.(e) vs.(e))
       ids

let verify ?(tolerance = 1e-9) p =
  let g = p.graph in
  let m = Graph.m g in
  let violations = ref [] in
  List.iteri
    (fun idx tr ->
      if tr.weight < -.tolerance || tr.weight > 1. +. tolerance then
        violations := Bad_weight idx :: !violations;
      if Array.exists (fun e -> e < 0 || e >= m) tr.edges then
        violations := Edge_outside_graph idx :: !violations;
      if not (spans g tr.edges) then
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
