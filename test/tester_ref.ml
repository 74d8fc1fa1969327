(* Reference copy of the central Appendix E tester
   ([Tester.run_centralized] while it was a body of its own, beside the
   distributed one), kept as the oracle of a differential property. It
   reads memberships into a class x node matrix, checks domination by
   scanning every closed neighbourhood, names components by a
   union-find per class and runs the random announcement rounds by
   walking the graph. [Domtree.Tester.run_centralized] must return the
   same outcome. *)

module Graph = Graphs.Graph
module Tester = Domtree.Tester

(* The ids a node has heard: one row of [classes] entries per node, the
   component id first heard for each class, -1 when none yet. *)
let note heard ~classes detect_at r round i c =
  let k = (r * classes) + i in
  let h = heard.(k) in
  if h < 0 then heard.(k) <- c else if h <> c then detect_at round

(* the announcement of a random round: the k-th heard class in ascending
   order, k uniform (one draw, only when something was heard); -1 when
   nothing was *)
let choose rng heard ~classes r =
  let base = r * classes in
  let count = ref 0 in
  for i = 0 to classes - 1 do
    if heard.(base + i) >= 0 then incr count
  done;
  if !count = 0 then -1
  else begin
    let k = ref (Random.State.int rng !count) and i = ref (-1) in
    while !k >= 0 do
      incr i;
      if heard.(base + !i) >= 0 then decr k
    done;
    !i
  end

let run ?(seed = 11) ?(live = fun _ -> true) g ~memberships ~classes
    ~detection_rounds =
  let n = Graph.n g in
  let rng = Random.State.make [| seed; n; classes |] in
  let memberships r = if live r then memberships r else [] in
  let member = Array.make_matrix classes n false in
  for r = 0 to n - 1 do
    List.iter (fun i -> member.(i).(r) <- true) (memberships r)
  done;
  (* domination *)
  let domination_ok = ref true in
  for r = 0 to n - 1 do
    if live r then
      for i = 0 to classes - 1 do
        let covered =
          member.(i).(r)
          || Array.exists (fun u -> member.(i).(u)) (Graph.neighbors g r)
        in
        if not covered then domination_ok := false
      done
  done;
  if not !domination_ok then
    {
      Tester.pass = false;
      domination_ok = false;
      connectivity_ok = true;
      detection_round = None;
    }
  else begin
    (* component ids per class via union-find *)
    let ufs = Array.init classes (fun _ -> Graphs.Union_find.create n) in
    Graph.iter_edges
      (fun u v ->
        for i = 0 to classes - 1 do
          if member.(i).(u) && member.(i).(v) then
            ignore (Graphs.Union_find.union ufs.(i) u v)
        done)
      g;
    let cid r i = Graphs.Union_find.find ufs.(i) r in
    let heard = Array.make (n * classes) (-1) in
    let detection = ref None in
    let detect_at round = if !detection = None then detection := Some round in
    let note = note heard ~classes detect_at in
    for r = 0 to n - 1 do
      if live r then begin
        List.iter (fun i -> note r 0 i (cid r i)) (memberships r);
        Array.iter
          (fun u -> List.iter (fun i -> note r 0 i (cid u i)) (memberships u))
          (Graph.neighbors g r)
      end
    done;
    for round = 1 to detection_rounds do
      let choice = Array.init n (choose rng heard ~classes) in
      for r = 0 to n - 1 do
        if live r then
          Array.iter
            (fun u ->
              let i = choice.(u) in
              if i >= 0 then note r round i heard.((u * classes) + i))
            (Graph.neighbors g r)
      done
    done;
    let connectivity_ok = !detection = None in
    {
      Tester.pass = connectivity_ok;
      domination_ok = true;
      connectivity_ok;
      detection_round = !detection;
    }
  end
