(* Reference copy of the Borůvka kernels before the send-on-change merge
   kernel: every phase re-floods fragment labels from each node's own id
   ([label], the min-id flood [Components.label] ran), and every flood
   round re-broadcasts every node's value until a round changes nothing.
   Kept as the oracle of a differential property: fault-free,
   [Congest.Dist_mst] must return the same forest in no more rounds. *)

module Graph = Graphs.Graph
module Net = Congest.Net
module Components = Congest.Components
module Primitives = Congest.Primitives

let none = -1

let lighter (w1 : int) (e1 : int) w2 e2 = w1 < w2 || (w1 = w2 && e1 < e2)

let edge_weights net (sub : Components.marks) weight =
  let eu, ev = Graph.csr_endpoints (Net.graph net) in
  Array.mapi (fun e on -> if on then weight eu.(e) ev.(e) else 0) sub.edges

let forest_edges net forest =
  let eu, ev = Graph.csr_endpoints (Net.graph net) in
  let acc = ref [] in
  for e = Array.length forest - 1 downto 0 do
    if forest.(e) then acc := (eu.(e), ev.(e)) :: !acc
  done;
  !acc

(* Min-id flooding restricted to the marked subgraph, every marked node
   sending every round, until one round changes nothing. *)
let label net (sub : Components.marks) =
  let n = Net.n net in
  let value = Array.init n Fun.id and id = Array.init n Fun.id in
  let changed = ref true in
  let deliver v _ e (m : Net.msg) =
    let x = m.(0) and i = m.(1) in
    if sub.edges.(e) && (x < value.(v) || (x = value.(v) && i < id.(v)))
    then begin
      value.(v) <- x;
      id.(v) <- i;
      changed := true
    end
  in
  while !changed do
    changed := false;
    Net.broadcast_round net (fun u ->
        if sub.nodes.(u) then Some [| value.(u); id.(u) |] else None);
    Net.iter_deliveries net deliver
  done;
  Array.mapi (fun v x -> if sub.nodes.(v) then x else -1) id

let local_best net (sub : Components.marks) weights labels =
  Net.broadcast_round net (fun u ->
      if sub.nodes.(u) then Some [| labels.(u) |] else None);
  let best = Array.make (Net.n net) none in
  Net.iter_deliveries net (fun v _ e m ->
      let l = m.(0) in
      if sub.edges.(e) && l >= 0 && l <> labels.(v) then begin
        let b = best.(v) in
        if b = none || lighter weights.(e) e weights.(b) b then best.(v) <- e
      end);
  best

let flood_triples net ~forest bw ba bb =
  let changed = ref true in
  let deliver v _ e (m : Net.msg) =
    let w = m.(0) and a = m.(1) and b = m.(2) in
    if
      forest.(e)
      && (w < bw.(v)
         || (w = bw.(v) && (a < ba.(v) || (a = ba.(v) && b < bb.(v)))))
    then begin
      bw.(v) <- w;
      ba.(v) <- a;
      bb.(v) <- b;
      changed := true
    end
  in
  while !changed do
    changed := false;
    Net.broadcast_round net (fun u ->
        if ba.(u) = max_int then None else Some [| bw.(u); ba.(u); bb.(u) |]);
    Net.iter_deliveries net deliver
  done

let merge_phase net sub weights ~forest labels =
  let n = Net.n net in
  let eu, ev = Graph.csr_endpoints (Net.graph net) in
  let cand = local_best net sub weights labels in
  let bw = Array.make n max_int in
  let ba = Array.make n max_int and bb = Array.make n max_int in
  Array.iteri
    (fun u e ->
      if e <> none then begin
        bw.(u) <- weights.(e);
        ba.(u) <- eu.(e);
        bb.(u) <- ev.(e)
      end)
    cand;
  flood_triples net ~forest bw ba bb;
  let declares =
    Array.init n (fun u ->
        let e = cand.(u) in
        e <> none && weights.(e) = bw.(u) && eu.(e) = ba.(u) && ev.(e) = bb.(u))
  in
  Net.broadcast_round net (fun u ->
      if declares.(u) then Some [| bw.(u); ba.(u); bb.(u) |] else None);
  let merged = ref false in
  let add e =
    if not forest.(e) then begin
      forest.(e) <- true;
      merged := true
    end
  in
  for v = 0 to n - 1 do
    if declares.(v) then add cand.(v)
  done;
  Net.iter_deliveries net (fun v _ e m ->
      if v = m.(1) || v = m.(2) then add e);
  !merged

let minimum_spanning_forest_on net ~active ~edge_active ~weight =
  let sub = Components.marks net ~active ~edge_active in
  let weights = edge_weights net sub weight in
  let forest = Array.make (Array.length sub.edges) false in
  let fragments = { sub with Components.edges = forest } in
  while merge_phase net sub weights ~forest (label net fragments) do
    ()
  done;
  forest_edges net forest

let minimum_spanning_forest_hybrid ?cap net ~weight =
  let g = Net.graph net in
  let n = Graph.n g in
  let cap =
    match cap with
    | Some c -> c
    | None -> int_of_float (ceil (sqrt (float_of_int (max 1 n))))
  in
  let tree = Primitives.bfs_tree net ~root:0 in
  let sub =
    Components.marks net ~active:(fun _ -> true) ~edge_active:(fun _ _ -> true)
  in
  let weights = edge_weights net sub weight in
  let forest = Array.make (Graph.m g) false in
  let fragments = { sub with Components.edges = forest } in
  let eu, ev = Graph.csr_endpoints g in
  let off = Graph.csr_offsets g in
  let adj = Graph.csr_neighbors g and ids = Graph.csr_edge_ids g in
  let capped_labels () =
    let best = Array.init n Fun.id in
    for _ = 1 to cap do
      Net.broadcast_round net (fun u -> Some [| best.(u) |]);
      Net.iter_deliveries net (fun v _ e m ->
          if forest.(e) && m.(0) < best.(v) then best.(v) <- m.(0))
    done;
    let stable = ref true in
    for v = 0 to n - 1 do
      for s = off.(v) to off.(v + 1) - 1 do
        if forest.(ids.(s)) && best.(adj.(s)) < best.(v) then stable := false
      done
    done;
    Net.silent_rounds net ((2 * tree.height) + 1);
    (best, !stable)
  in
  let continue = ref true in
  let global_mode = ref false in
  let phase = ref 0 in
  while !continue do
    incr phase;
    if not !global_mode then begin
      let labels, stable = capped_labels () in
      if not stable then global_mode := true
      else continue := merge_phase net sub weights ~forest labels
    end
    else begin
      let labels = Components.label_hybrid ~cap ~seed:!phase net fragments in
      let cand = local_best net sub weights labels in
      let values u =
        let e = cand.(u) in
        if e = none then []
        else [ (labels.(u), [| weights.(e); eu.(e); ev.(e) |]) ]
      in
      let better (x : Net.msg) (y : Net.msg) =
        if x.(0) <> y.(0) then x.(0) < y.(0)
        else if x.(1) <> y.(1) then x.(1) < y.(1)
        else x.(2) < y.(2)
      in
      let winners = Primitives.pipelined_converge net tree ~values ~better in
      let edges =
        List.map (fun (_, (m : Net.msg)) -> Graph.edge_index g m.(1) m.(2)) winners
        |> List.sort_uniq Int.compare
      in
      if edges = [] then continue := false
      else begin
        Primitives.pipelined_downcast net tree
          (List.map (fun e -> [| eu.(e); ev.(e) |]) edges);
        List.iter (fun e -> forest.(e) <- true) edges
      end
    end
  done;
  forest_edges net forest
