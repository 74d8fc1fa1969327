(* Hopcroft–Tarjan lowpoint DFS (recursive; fine at simulator scale). *)

(* Edge pairs, ordered as polymorphic compare would order (int * int). *)
let compare_pair (a1, b1) (a2, b2) =
  match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c

let run_dfs g ~on_articulation ~on_bridge ~on_component =
  let n = Graph.n g in
  let disc = Array.make n (-1) in
  let low = Array.make n 0 in
  let time = ref 0 in
  let edge_stack = Stack.create () in
  let is_articulation = Array.make n false in
  let pop_component ~until =
    let comp = ref [] in
    let continue = ref true in
    while !continue && not (Stack.is_empty edge_stack) do
      let e = Stack.pop edge_stack in
      comp := e :: !comp;
      if compare_pair e until = 0 then continue := false
    done;
    if !comp <> [] then on_component (List.sort compare_pair !comp)
  in
  let rec dfs u parent =
    disc.(u) <- !time;
    low.(u) <- !time;
    incr time;
    let children = ref 0 in
    Array.iter
      (fun v ->
        if disc.(v) < 0 then begin
          incr children;
          let e = (min u v, max u v) in
          Stack.push e edge_stack;
          dfs v u;
          if low.(v) < low.(u) then low.(u) <- low.(v);
          if low.(v) > disc.(u) then on_bridge e;
          if (parent >= 0 && low.(v) >= disc.(u)) then begin
            is_articulation.(u) <- true;
            pop_component ~until:e
          end
          else if parent < 0 then
            (* each child subtree of the root closes one component *)
            pop_component ~until:e
        end
        else if v <> parent && disc.(v) < disc.(u) then begin
          Stack.push (min u v, max u v) edge_stack;
          if disc.(v) < low.(u) then low.(u) <- disc.(v)
        end)
      (Graph.neighbors g u);
    if parent < 0 && !children >= 2 then is_articulation.(u) <- true
  in
  for root = 0 to n - 1 do
    if disc.(root) < 0 then dfs root (-1)
  done;
  for v = 0 to n - 1 do
    if is_articulation.(v) then on_articulation v
  done

let articulation_points g =
  let acc = ref [] in
  run_dfs g
    ~on_articulation:(fun v -> acc := v :: !acc)
    ~on_bridge:(fun _ -> ())
    ~on_component:(fun _ -> ());
  List.sort Int.compare !acc

let bridges g =
  let acc = ref [] in
  run_dfs g
    ~on_articulation:(fun _ -> ())
    ~on_bridge:(fun e -> acc := e :: !acc)
    ~on_component:(fun _ -> ());
  List.sort compare_pair !acc

let biconnected_components g =
  let acc = ref [] in
  run_dfs g
    ~on_articulation:(fun _ -> ())
    ~on_bridge:(fun _ -> ())
    ~on_component:(fun comp -> acc := comp :: !acc);
  List.rev !acc

let is_biconnected g =
  Graph.n g >= 3
  && Traversal.is_connected g
  && articulation_points g = []
