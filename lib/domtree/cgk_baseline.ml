module Graph = Graphs.Graph
module Union_find = Graphs.Union_find

(* Local per-class membership state; deliberately recomputes component
   structure per layer (the baseline is the slow algorithm). *)
type state = {
  g : Graph.t;
  t : int;
  rng : Random.State.t;
  member : bool array array; (* class -> real -> in class *)
}

let components_of st cls =
  let n = Graph.n st.g in
  let uf = Union_find.create n in
  Graph.iter_edges
    (fun u v ->
      if st.member.(cls).(u) && st.member.(cls).(v) then
        ignore (Union_find.union uf u v))
    st.g;
  let roots = Hashtbl.create 16 in
  for r = 0 to n - 1 do
    if st.member.(cls).(r) then begin
      let root = Union_find.find uf r in
      let members =
        match Hashtbl.find_opt roots root with Some l -> l | None -> []
      in
      Hashtbl.replace roots root (r :: members)
    end
  done;
  Hashtbl.fold (fun _ members acc -> members :: acc) roots []
  |> List.sort (List.compare Int.compare)

let excess st =
  let total = ref 0 in
  for i = 0 to st.t - 1 do
    let c = List.length (components_of st i) in
    if c >= 1 then total := !total + (c - 1)
  done;
  !total

(* One layer: every real vertex has 3 fresh virtual-node slots. Classes
   with several components claim slots on their connector paths'
   internal vertices; remaining slots go to random classes. *)
let assign_layer st ~slots_per_real =
  let n = Graph.n st.g in
  let free = Array.make n slots_per_real in
  let claimed = ref [] in
  let claim r cls =
    if free.(r) > 0 then begin
      free.(r) <- free.(r) - 1;
      claimed := (r, cls) :: !claimed;
      true
    end
    else false
  in
  let merged = ref 0 in
  for i = 0 to st.t - 1 do
    let in_class v = st.member.(i).(v) in
    let comps = components_of st i in
    if List.length comps >= 2 then
      List.iter
        (fun members ->
          let in_component =
            let tbl = Hashtbl.create (List.length members) in
            List.iter (fun v -> Hashtbl.replace tbl v ()) members;
            fun v -> Hashtbl.mem tbl v
          in
          (* the expensive explicit step of [12]: enumerate a disjoint
             family of connector paths for this component *)
          let paths = Connector.enumerate st.g ~in_class ~in_component in
          (* take the first path whose internals still have free slots *)
          let rec try_paths = function
            | [] -> ()
            | p :: rest ->
              let internals = p.Connector.internals in
              if List.for_all (fun r -> free.(r) > 0) internals then begin
                List.iter (fun r -> ignore (claim r i)) internals;
                incr merged
              end
              else try_paths rest
          in
          try_paths paths)
        comps
  done;
  (* commit the claims, fill the rest randomly *)
  List.iter (fun (r, cls) -> st.member.(cls).(r) <- true) !claimed;
  for r = 0 to n - 1 do
    for _ = 1 to free.(r) do
      st.member.(Random.State.int st.rng st.t).(r) <- true
    done
  done;
  !merged

let run ?(seed = 42) ?jumpstart g ~classes ~layers =
  if classes < 1 then invalid_arg "Cgk_baseline.run: classes < 1";
  let jumpstart = match jumpstart with Some j -> j | None -> layers / 2 in
  if jumpstart < 1 || jumpstart > layers then
    invalid_arg "Cgk_baseline.run: jumpstart out of range";
  let n = Graph.n g in
  let vg = Virtual_graph.create g ~layers in
  let st =
    {
      g;
      t = classes;
      rng = Random.State.make [| seed; n; classes; 23 |];
      member = Array.init classes (fun _ -> Array.make n false);
    }
  in
  (* jump-start: random classes, 3 slots per layer *)
  for _layer = 1 to jumpstart do
    for r = 0 to n - 1 do
      for _slot = 1 to 3 do
        st.member.(Random.State.int st.rng classes).(r) <- true
      done
    done
  done;
  let stats_excess = ref [ (jumpstart, excess st) ] in
  let stats_matched = ref [] in
  for layer = jumpstart + 1 to layers do
    let merged = assign_layer st ~slots_per_real:3 in
    stats_excess := (layer, excess st) :: !stats_excess;
    stats_matched := (layer, merged) :: !stats_matched
  done;
  (* harvest into the shared result shape; class_of is per-virtual-node
     in Cds_packing but the baseline tracks membership at the real level,
     so synthesize an assignment: the first virtual node of a member real
     carries the class (enough for real_classes/members consumers) *)
  let class_of = Array.make (Virtual_graph.count vg) (-1) in
  let members =
    Array.init classes (fun i ->
        let acc = ref [] in
        for r = n - 1 downto 0 do
          if st.member.(i).(r) then acc := r :: !acc
        done;
        Array.of_list !acc)
  in
  (* distribute classes over each real's virtual ids, one per membership *)
  for r = 0 to n - 1 do
    let mine = ref [] in
    for i = classes - 1 downto 0 do
      if st.member.(i).(r) then mine := i :: !mine
    done;
    let slot = ref 0 in
    List.iter
      (fun i ->
        let layer = (!slot / 3) + 1 and vtype = (!slot mod 3) + 1 in
        if layer <= layers then
          class_of.(Virtual_graph.vid vg ~real:r ~layer ~vtype) <- i;
        incr slot)
      !mine
  done;
  let connected =
    Array.init classes (fun i ->
        let ms = members.(i) in
        Array.length ms > 0
        &&
        let in_set v = st.member.(i).(v) in
        let dist = Graphs.Traversal.distances_within g in_set ms.(0) in
        Array.for_all (fun r -> dist.(r) >= 0) ms)
  in
  let dominating =
    Array.init classes (fun i ->
        Graphs.Domination.is_dominating g (fun v -> st.member.(i).(v)))
  in
  {
    Cds_packing.vg;
    classes;
    class_of;
    members;
    connected;
    dominating;
    stats =
      {
        Cds_packing.excess_after_layer = List.rev !stats_excess;
        matched_per_layer = List.rev !stats_matched;
        bridging_edges_per_layer = [];
      };
  }

let pack ?seed g ~k =
  run ?seed g
    ~classes:(Cds_packing.default_classes ~k)
    ~layers:(Cds_packing.default_layers ~n:(Graph.n g))
