let is_dominating g member =
  let n = Graph.n g in
  let ok = ref true in
  for v = 0 to n - 1 do
    if !ok && not (member v) then
      ok := Array.exists member (Graph.neighbors g v)
  done;
  !ok

let induced_connected g member =
  let n = Graph.n g in
  let src = ref (-1) in
  for v = n - 1 downto 0 do
    if member v then src := v
  done;
  if !src < 0 then false
  else begin
    let dist = Traversal.distances_within g member !src in
    let ok = ref true in
    for v = 0 to n - 1 do
      if member v && dist.(v) < 0 then ok := false
    done;
    !ok
  end

let is_connected_dominating g member =
  is_dominating g member && induced_connected g member

let is_dominating_tree g vs es =
  let c = Tree_check.create g in
  Tree_check.load c (Array.of_list vs);
  List.for_all (fun (u, v) -> Tree_check.edge c u v = Tree_check.Joined) es
  && List.length es = List.length (List.sort_uniq Int.compare vs) - 1
  && Tree_check.dominates c

let undominated g member =
  let acc = ref [] in
  for v = Graph.n g - 1 downto 0 do
    if not (member v) && not (Array.exists member (Graph.neighbors g v)) then
      acc := v :: !acc
  done;
  !acc

let greedy_cds g =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Domination.greedy_cds: empty graph";
  if not (Traversal.is_connected g) then
    invalid_arg "Domination.greedy_cds: disconnected graph";
  if n = 1 then [ 0 ]
  else begin
    let chosen = Array.make n false in
    let covered = Array.make n false in
    let cover v =
      covered.(v) <- true;
      Array.iter (fun u -> covered.(u) <- true) (Graph.neighbors g v)
    in
    let uncovered_gain v =
      let gain = ref (if covered.(v) then 0 else 1) in
      Array.iter
        (fun u -> if not covered.(u) then incr gain)
        (Graph.neighbors g v);
      !gain
    in
    (* greedy max-coverage dominating set *)
    let all_covered () = Array.for_all (fun c -> c) covered in
    while not (all_covered ()) do
      let best = ref 0 in
      for v = 1 to n - 1 do
        if uncovered_gain v > uncovered_gain !best then best := v
      done;
      chosen.(!best) <- true;
      cover !best
    done;
    (* stitch: connect chosen components along shortest paths *)
    let member v = chosen.(v) in
    let rec stitch () =
      if not (induced_connected g member) then begin
        (* find two components of chosen and add a shortest connecting path *)
        let src = ref (-1) in
        for v = n - 1 downto 0 do
          if chosen.(v) then src := v
        done;
        let inside = Traversal.distances_within g member !src in
        let target = ref (-1) in
        for v = 0 to n - 1 do
          if chosen.(v) && inside.(v) < 0 && !target < 0 then target := v
        done;
        let dist, parent = Traversal.bfs_tree g !src in
        ignore dist;
        let rec add v =
          if not chosen.(v) then begin
            chosen.(v) <- true;
            add parent.(v)
          end
          else if inside.(v) < 0 then add parent.(v)
        in
        add !target;
        stitch ()
      end
    in
    stitch ();
    let acc = ref [] in
    for v = n - 1 downto 0 do
      if chosen.(v) then acc := v :: !acc
    done;
    !acc
  end

let greedy_cds_within g ~allowed =
  let n = Graph.n g in
  if n = 0 then None
  else begin
    let chosen = Array.make n false in
    let covered = Array.make n false in
    let cover v =
      covered.(v) <- true;
      Array.iter (fun u -> covered.(u) <- true) (Graph.neighbors g v)
    in
    let uncovered_gain v =
      let gain = ref (if covered.(v) then 0 else 1) in
      Array.iter
        (fun u -> if not covered.(u) then incr gain)
        (Graph.neighbors g v);
      !gain
    in
    let all_covered () = Array.for_all (fun c -> c) covered in
    let feasible = ref true in
    while !feasible && not (all_covered ()) do
      let best = ref (-1) in
      for v = 0 to n - 1 do
        if allowed v && (!best < 0 || uncovered_gain v > uncovered_gain !best)
        then best := v
      done;
      if !best < 0 || uncovered_gain !best = 0 then feasible := false
      else begin
        chosen.(!best) <- true;
        cover !best
      end
    done;
    if not !feasible then None
    else begin
      (* stitch the chosen seeds inside G[allowed] *)
      let member v = chosen.(v) in
      let src = ref (-1) in
      for v = n - 1 downto 0 do
        if chosen.(v) then src := v
      done;
      if !src < 0 then None
      else begin
        let stuck = ref false in
        let connected () = induced_connected g member in
        while (not !stuck) && not (connected ()) do
          let inside = Traversal.distances_within g member !src in
          let target = ref (-1) in
          for v = 0 to n - 1 do
            if chosen.(v) && inside.(v) < 0 && !target < 0 then target := v
          done;
          (* shortest path within allowed vertices from src-component *)
          let dist = Traversal.distances_within g allowed !src in
          if !target < 0 || dist.(!target) < 0 then stuck := true
          else begin
            (* walk back from target along allowed BFS layers *)
            let v = ref !target in
            let progress = ref true in
            while !progress && inside.(!v) < 0 do
              let next = ref (-1) in
              Array.iter
                (fun u ->
                  if allowed u && dist.(u) = dist.(!v) - 1 && !next < 0 then
                    next := u)
                (Graph.neighbors g !v);
              if !next < 0 then begin
                progress := false;
                stuck := true
              end
              else begin
                chosen.(!next) <- true;
                v := !next
              end
            done
          end
        done;
        if !stuck then None
        else begin
          let acc = ref [] in
          for v = n - 1 downto 0 do
            if chosen.(v) then acc := v :: !acc
          done;
          Some !acc
        end
      end
    end
  end

let minimum_cds_size g =
  let n = Graph.n g in
  if n = 0 || not (Traversal.is_connected g) then
    invalid_arg "Domination.minimum_cds_size";
  if n > 24 then invalid_arg "Domination.minimum_cds_size: too large";
  if n = 1 then 1
  else begin
    (* enumerate subsets in increasing popcount via sizes *)
    let best = ref n in
    for mask = 1 to (1 lsl n) - 1 do
      let size = ref 0 in
      for v = 0 to n - 1 do
        if mask land (1 lsl v) <> 0 then incr size
      done;
      if !size < !best then begin
        let member v = mask land (1 lsl v) <> 0 in
        if is_connected_dominating g member then best := !size
      end
    done;
    !best
  end
