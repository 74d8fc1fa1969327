module Graph = Graphs.Graph

(* A degree-balanced spanning tree of the edges still [free]: repeatedly
   add the component-joining edge whose endpoints carry the fewest tree
   edges so far (the lower maximum, then the lower sum, then the lower
   edge id). Keeping tree degrees low means no vertex loses its whole
   residual neighborhood to one peel (a BFS tree would isolate its root
   immediately). O(nm). Returns the tree's edge ids ascending, or [None]
   when the free edges do not connect [g]. *)
let spanning_tree_if_connected g free =
  let n = Graph.n g in
  let us, vs = Graph.csr_endpoints g in
  let uf = Graphs.Union_find.create n in
  let tdeg = Array.make n 0 in
  let chosen = ref [] and picks = ref 0 and stuck = ref false in
  while (not !stuck) && !picks < n - 1 do
    let best = ref (-1) and best_max = ref 0 and best_sum = ref 0 in
    Array.iteri
      (fun e on ->
        let u = us.(e) and v = vs.(e) in
        if on && not (Graphs.Union_find.same uf u v) then begin
          let hi = max tdeg.(u) tdeg.(v) and sum = tdeg.(u) + tdeg.(v) in
          if !best < 0 || hi < !best_max || (hi = !best_max && sum < !best_sum)
          then begin
            best := e;
            best_max := hi;
            best_sum := sum
          end
        end)
      free;
    let e = !best in
    if e < 0 then stuck := true
    else begin
      ignore (Graphs.Union_find.union uf us.(e) vs.(e));
      tdeg.(us.(e)) <- tdeg.(us.(e)) + 1;
      tdeg.(vs.(e)) <- tdeg.(vs.(e)) + 1;
      chosen := e :: !chosen;
      incr picks
    end
  done;
  if n = 0 || !stuck then None
  else begin
    let ids = Array.of_list !chosen in
    Array.sort Int.compare ids;
    Some ids
  end

let peel g =
  let free = Array.make (Graph.m g) true in
  let rec go acc =
    match spanning_tree_if_connected g free with
    | None -> List.rev acc
    | Some tree ->
      Array.iter (fun e -> free.(e) <- false) tree;
      go (tree :: acc)
  in
  (* one vertex: the empty tree spans it, and taking it frees no edge *)
  if Graph.n g < 2 then [] else go []

let to_packing g trees =
  {
    Spacking.graph = g;
    trees = List.map (fun edges -> { Spacking.edges; weight = 1. }) trees;
  }
