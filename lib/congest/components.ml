module Graph = Graphs.Graph

type marks = { nodes : bool array; edges : bool array }

let marks net ~active ~edge_active =
  let g = Net.graph net in
  let nodes = Array.init (Graph.n g) active in
  let eu, ev = Graph.csr_endpoints g in
  let edges =
    Array.init (Graph.m g) (fun e ->
        let u = eu.(e) and v = ev.(e) in
        nodes.(u) && nodes.(v) && edge_active u v && edge_active v u)
  in
  { nodes; edges }

(* Min-pair flooding restricted to the marked subgraph. Each round every
   marked node broadcasts its current best (value, id); neighbors joined
   by a marked edge adopt lexicographically smaller pairs. With no [cap]
   it stops one round after global stabilization (the simulator detects
   quiescence; a real execution would detect it with a constant-factor
   doubling horizon); with [cap] it runs exactly [cap] rounds. The pair
   lives in two int arrays by vertex, updated in place. *)
let flood_pairs ?cap net sub value id =
  let changed = ref true and rounds = ref 0 in
  let deliver v _ e (m : Net.msg) =
    let x = m.(0) and i = m.(1) in
    if sub.edges.(e) && (x < value.(v) || (x = value.(v) && i < id.(v)))
    then begin
      value.(v) <- x;
      id.(v) <- i;
      changed := true
    end
  in
  let more () = match cap with Some c -> !rounds < c | None -> !changed in
  while more () do
    incr rounds;
    changed := false;
    Net.broadcast_round net (fun u ->
        if sub.nodes.(u) then Some [| value.(u); id.(u) |] else None);
    Net.iter_deliveries net deliver
  done

let mask sub a = Array.mapi (fun v x -> if sub.nodes.(v) then x else -1) a

let identify net ~active ~edge_active =
  let sub = marks net ~active ~edge_active in
  let n = Net.n net in
  let id = Array.init n Fun.id in
  flood_pairs net sub (Array.init n Fun.id) id;
  mask sub id

let identify_min_value net ~active ~edge_active ~value =
  let sub = marks net ~active ~edge_active in
  let n = Net.n net in
  let values = Array.init n value and ids = Array.init n Fun.id in
  flood_pairs net sub values ids;
  (mask sub values, mask sub ids)

(* Capped flooding of (random rank, id) pairs for exactly [cap] rounds.
   Every node adopts the id of the smallest rank within its cap-radius
   ball; with random ranks (the paper's §2 random-id assumption) the
   expected number of distinct ball minima is O~(n / cap) even on paths,
   where sequential ids would give Θ(n) fragments. Fragment label regions
   need not be connected, but any two labels joined by a subgraph edge
   belong to one true component, so contracting labels preserves the
   component structure and the global merge below is exact. *)
let capped_flood net sub ~cap ~seed =
  let n = Net.n net in
  let rng = Random.State.make [| seed; n; cap |] in
  let rank = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = rank.(i) in
    rank.(i) <- rank.(j);
    rank.(j) <- tmp
  done;
  let id = Array.init n Fun.id in
  flood_pairs ~cap net sub rank id;
  mask sub id

(* A node's spanning-forest filter over fragment labels: a union-find
   keyed by the labels that node has actually seen (an absent label is
   its own root), so its size is the node's upcast traffic, not n. *)
module Labels = Hashtbl.Make (Int)

let rec find parent l =
  match Labels.find parent l with
  | exception Not_found -> l
  | p ->
    let r = find parent p in
    if r <> p then Labels.replace parent l r;
    r

let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra = rb then false
  else begin
    Labels.replace parent rb ra;
    true
  end

let label_hybrid ?cap ?(seed = 1) net sub =
  let n = Net.n net in
  let cap =
    match cap with
    | Some c -> c
    | None -> int_of_float (ceil (sqrt (float_of_int (max 1 n))))
  in
  (* phase 1: fragments by capped flooding of random ranks *)
  let frag = capped_flood net sub ~cap ~seed in
  (* one round: everyone announces its fragment label so crossing edges
     can be seen locally; each node keeps its distinct (min, max) label
     pairs, newest first *)
  Net.broadcast_round net (fun u ->
      if sub.nodes.(u) then Some [| frag.(u) |] else None);
  let crossing = Array.make n [] in
  Net.iter_deliveries net (fun v _ e m ->
      let l = m.(0) and f = frag.(v) in
      if sub.edges.(e) && l >= 0 && l <> f then begin
        let a = Int.min l f and b = Int.max l f in
        if
          not
            (List.exists
               (fun (p : Net.msg) -> p.(0) = a && p.(1) = b)
               crossing.(v))
        then crossing.(v) <- [| a; b |] :: crossing.(v)
      end);
  (* phase 2: Kutten-Peleg pipelined upcast of the fragment graph through
     per-node spanning-forest filters *)
  let tree = Primitives.bfs_tree net ~root:0 in
  let filters = Array.init n (fun _ -> Labels.create 1) in
  let surviving =
    Primitives.pipelined_upcast net tree
      ~items:(fun u -> crossing.(u))
      ~filter:(fun v m -> union filters.(v) m.(0) m.(1))
  in
  (* the root solves the fragment components; the final label of an
     involved fragment is the minimum fragment label of its class *)
  let root_uf = Graphs.Union_find.create n in
  let involved = Array.make n false in
  List.iter
    (fun (m : Net.msg) ->
      ignore (Graphs.Union_find.union root_uf m.(0) m.(1));
      involved.(m.(0)) <- true;
      involved.(m.(1)) <- true)
    surviving;
  let class_min = Array.make n max_int and remap = Array.init n Fun.id in
  for l = 0 to n - 1 do
    if involved.(l) then begin
      let r = Graphs.Union_find.find root_uf l in
      if class_min.(r) = max_int then class_min.(r) <- l;
      remap.(l) <- class_min.(r)
    end
  done;
  (* phase 3: pipelined downcast of the mapping (ascending label);
     fragments not involved in any crossing edge already carry their
     component's minimum *)
  Primitives.pipelined_downcast net tree
    (List.filter_map
       (fun l -> if involved.(l) then Some [| l; remap.(l) |] else None)
       (List.init n Fun.id));
  Array.map (fun l -> if l < 0 then -1 else remap.(l)) frag

let identify_hybrid ?cap ?seed net ~active ~edge_active =
  label_hybrid ?cap ?seed net (marks net ~active ~edge_active)
