module Graph = Graphs.Graph

type tree = {
  cls : int;
  vertices : int array;
  edges : (int * int) list;
}

type t = {
  graph : Graph.t;
  trees : tree list;
  weights : float list;
}

let compare_edge (u1, v1) (u2, v2) =
  match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c

let size p = List.fold_left ( +. ) 0. p.weights
let count p = List.length p.trees

let node_load p v =
  List.fold_left2
    (fun acc tree w ->
      if Array.exists (fun x -> x = v) tree.vertices then acc +. w else acc)
    0. p.trees p.weights

let max_node_load p =
  let best = ref 0. in
  for v = 0 to Graph.n p.graph - 1 do
    let l = node_load p v in
    if l > !best then best := l
  done;
  !best

let max_multiplicity p =
  let n = Graph.n p.graph in
  let counts = Array.make n 0 in
  List.iter
    (fun tree ->
      Array.iter (fun v -> counts.(v) <- counts.(v) + 1) tree.vertices)
    p.trees;
  Array.fold_left max 0 counts

(* BFS inside the tree's own edge set. *)
let tree_diameter _p tree =
  let vs = tree.vertices in
  if Array.length vs <= 1 then 0
  else begin
    let index = Hashtbl.create (Array.length vs) in
    Array.iteri (fun i v -> Hashtbl.replace index v i) vs;
    let adj = Array.make (Array.length vs) [] in
    List.iter
      (fun (u, v) ->
        let iu = Hashtbl.find index u and iv = Hashtbl.find index v in
        adj.(iu) <- iv :: adj.(iu);
        adj.(iv) <- iu :: adj.(iv))
      tree.edges;
    let bfs src =
      let dist = Array.make (Array.length vs) (-1) in
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
    (* double sweep is exact on trees *)
    let far, _ = bfs 0 in
    let _, d = bfs far in
    d
  end

let max_tree_diameter p =
  List.fold_left (fun acc tree -> max acc (tree_diameter p tree)) 0 p.trees

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
  let violations = ref [] in
  let push v = violations := v :: !violations in
  List.iter2
    (fun tree w ->
      if w < 0. || w > 1. then push (Bad_weight tree.cls);
      let vs = Array.to_list tree.vertices in
      if
        not
          (List.for_all (fun (u, v) -> Graph.mem_edge g u v) tree.edges)
      then push (Edge_outside_graph tree.cls);
      let member v = Array.exists (fun x -> x = v) tree.vertices in
      (* tree structure: |E| = |V| - 1, connected, within vertex set *)
      let n_vs = List.length vs in
      let tree_ok =
        List.length tree.edges = n_vs - 1
        && List.for_all (fun (u, v) -> member u && member v) tree.edges
        &&
        let uf = Graphs.Union_find.create (Graph.n g) in
        List.for_all (fun (u, v) -> Graphs.Union_find.union uf u v) tree.edges
      in
      if not tree_ok then push (Not_a_tree tree.cls);
      if not (Graphs.Domination.is_dominating g member) then
        push (Not_dominating tree.cls))
    p.trees p.weights;
  for v = 0 to Graph.n g - 1 do
    let l = node_load p v in
    if l > 1. +. 1e-9 then push (Overloaded_vertex (v, l))
  done;
  List.rev !violations

let is_valid p = verify p = []

let write oc p =
  List.iter2
    (fun tr w ->
      Printf.fprintf oc "tree %d %.17g\n" tr.cls w;
      Printf.fprintf oc "v";
      Array.iter (fun v -> Printf.fprintf oc " %d" v) tr.vertices;
      Printf.fprintf oc "\n";
      List.iter (fun (u, v) -> Printf.fprintf oc "e %d %d\n" u v) tr.edges)
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
      trees :=
        { cls; vertices = Array.of_list (List.rev vs); edges = List.rev es }
        :: !trees;
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
               current := Some (cls, w, vs, (min u v, max u v) :: es))
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
