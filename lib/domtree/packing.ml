module Graph = Graphs.Graph

type tree = {
  cls : int;
  vertices : int array;
  edges : int array;
}

type t = {
  graph : Graph.t;
  trees : tree list;
  weights : float list;
}

let size p = List.fold_left ( +. ) 0. p.weights
let count p = List.length p.trees

(* Load of every vertex in one pass over the trees; a vertex listed
   twice in a tree, or outside the graph, adds nothing extra. *)
let node_loads p =
  let n = Graph.n p.graph in
  let loads = Array.make n 0. in
  let last = Array.make n (-1) in
  List.iteri
    (fun t (tree, w) ->
      Array.iter
        (fun v ->
          if v >= 0 && v < n && last.(v) <> t then begin
            last.(v) <- t;
            loads.(v) <- loads.(v) +. w
          end)
        tree.vertices)
    (List.combine p.trees p.weights);
  loads

let max_node_load p =
  Array.fold_left (fun best l -> if l > best then l else best) 0. (node_loads p)

let max_multiplicity p =
  let n = Graph.n p.graph in
  let counts = Array.make n 0 in
  List.iter
    (fun tree ->
      Array.iter (fun v -> counts.(v) <- counts.(v) + 1) tree.vertices)
    p.trees;
  Array.fold_left max 0 counts

let uniform graph trees =
  let mult = max 1 (max_multiplicity { graph; trees; weights = [] }) in
  let w = 1. /. float_of_int mult in
  { graph; trees; weights = List.map (fun _ -> w) trees }

(* Double-sweep BFS inside the tree's own edges, exact on trees. *)
let tree_diameter g tree =
  let vs = tree.vertices in
  if Array.length vs <= 1 then 0
  else begin
    let us, ws = Graph.csr_endpoints g in
    let adj = Array.make (Graph.n g) [] in
    Array.iter
      (fun e ->
        let u = us.(e) and v = ws.(e) in
        adj.(u) <- v :: adj.(u);
        adj.(v) <- u :: adj.(v))
      tree.edges;
    let bfs src =
      let dist = Array.make (Graph.n g) (-1) in
      let q = Queue.create () in
      dist.(src) <- 0;
      Queue.add src q;
      let far = ref src in
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        if dist.(u) > dist.(!far) then far := u;
        List.iter
          (fun v ->
            if dist.(v) < 0 then begin
              dist.(v) <- dist.(u) + 1;
              Queue.add v q
            end)
          adj.(u)
      done;
      (!far, dist.(!far))
    in
    let far, _ = bfs vs.(0) in
    snd (bfs far)
  end

let max_tree_diameter p =
  List.fold_left
    (fun acc tree -> max acc (tree_diameter p.graph tree))
    0 p.trees

type violation =
  | Not_a_tree of int
  | Not_dominating of int
  | Edge_outside_graph of int
  | Overloaded_vertex of int * float
  | Bad_weight of int

let pp_violation ppf = function
  | Not_a_tree c -> Format.fprintf ppf "class %d: not a tree" c
  | Not_dominating c -> Format.fprintf ppf "class %d: not dominating" c
  | Edge_outside_graph c -> Format.fprintf ppf "class %d: edge outside graph" c
  | Overloaded_vertex (v, l) ->
    Format.fprintf ppf "vertex %d: load %.3f > 1" v l
  | Bad_weight c -> Format.fprintf ppf "class %d: weight outside [0,1]" c

let verify p =
  let g = p.graph in
  let check = Graphs.Tree_check.create g in
  let violations = ref [] in
  let push v = violations := v :: !violations in
  List.iter2
    (fun tree w ->
      if w < 0. || w > 1. then push (Bad_weight tree.cls);
      Graphs.Tree_check.load check tree.vertices;
      let off_graph = ref false and broken = ref false in
      Array.iter
        (fun e ->
          match Graphs.Tree_check.edge_id check e with
          | Off_graph -> off_graph := true
          | Leaves_set | Cycle -> broken := true
          | Joined -> ())
        tree.edges;
      if !off_graph then push (Edge_outside_graph tree.cls);
      (* |E| = |V| - 1 (repeats counted), inside the set, acyclic *)
      if Array.length tree.edges <> Array.length tree.vertices - 1 || !broken
      then push (Not_a_tree tree.cls);
      if not (Graphs.Tree_check.dominates check) then
        push (Not_dominating tree.cls))
    p.trees p.weights;
  Array.iteri
    (fun v l -> if l > 1. +. 1e-9 then push (Overloaded_vertex (v, l)))
    (node_loads p);
  List.rev !violations

let is_valid p = verify p = []

let write oc p =
  let us, vs = Graph.csr_endpoints p.graph in
  List.iter2
    (fun tr w ->
      Printf.fprintf oc "tree %d %.17g\n" tr.cls w;
      Printf.fprintf oc "v";
      Array.iter (fun v -> Printf.fprintf oc " %d" v) tr.vertices;
      Printf.fprintf oc "\n";
      Array.iter (fun e -> Printf.fprintf oc "e %d %d\n" us.(e) vs.(e)) tr.edges)
    p.trees p.weights

let save path p =
  if path = "-" then write stdout p
  else begin
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc p)
  end

let read ic ~graph =
  let trees = ref [] in
  let weights = ref [] in
  let current = ref None in
  let flush () =
    match !current with
    | Some (cls, w, vs, es) ->
      let edges = Array.of_list es in
      Array.sort Int.compare edges;
      trees := { cls; vertices = Array.of_list (List.rev vs); edges } :: !trees;
      weights := w :: !weights;
      current := None
    | None -> ()
  in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line = "" || line.[0] = '#' then ()
       else if String.length line > 5 && String.sub line 0 5 = "tree " then begin
         flush ();
         Scanf.sscanf line "tree %d %g" (fun cls w ->
             current := Some (cls, w, [], []))
       end
       else if line.[0] = 'v' then begin
         match !current with
         | None -> failwith "Packing.load: vertex line before tree header"
         | Some (cls, w, vs, es) ->
           let extra =
             String.split_on_char ' ' line
             |> List.filter (fun s -> s <> "" && s <> "v")
             |> List.map int_of_string
           in
           current := Some (cls, w, List.rev_append extra vs, es)
       end
       else if line.[0] = 'e' then begin
         match !current with
         | None -> failwith "Packing.load: edge line before tree header"
         | Some (cls, w, vs, es) ->
           Scanf.sscanf line "e %d %d" (fun u v ->
               match Graph.edge_index graph u v with
               | e -> current := Some (cls, w, vs, e :: es)
               | exception Not_found ->
                 failwith
                   (Printf.sprintf "Packing.load: %S is not an edge of the graph"
                      line))
       end
       else failwith (Printf.sprintf "Packing.load: bad line %S" line)
     done
   with End_of_file -> ());
  flush ();
  { graph; trees = List.rev !trees; weights = List.rev !weights }

let load path ~graph =
  if path = "-" then read stdin ~graph
  else begin
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic ~graph)
  end
