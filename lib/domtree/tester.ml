module Graph = Graphs.Graph
module Net = Congest.Net

type outcome = {
  pass : bool;
  domination_ok : bool;
  connectivity_ok : bool;
  detection_round : int option;
}

let default_detection_rounds ~n =
  max 8 (4 * int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.)))

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

(* ------------------------------------------------------------------ *)
(* Distributed tester *)

let run_distributed ?(seed = 11) ?(live = fun _ -> true) net ~memberships
    ~classes ~detection_rounds =
  let n = Net.n net in
  let rng = Random.State.make [| seed; n; classes |] in
  (* a crashed node holds no memberships and owes no coverage *)
  let memberships r = if live r then memberships r else [] in
  (* 0. the standard O(D) preprocessing gives a diameter bound for the
        failure-flag floods *)
  let tree = Congest.Primitives.bfs_tree net ~root:0 in
  let d_bound = max 1 (2 * tree.Congest.Primitives.height) in
  (* 1. domination: every class must appear in every closed neighborhood *)
  let seen = Array.make (n * classes) false in
  let mark r i =
    if i >= 0 && i < classes then seen.((r * classes) + i) <- true
  in
  Multiflood.membership_sweep net
    (Multiflood.layout ~n memberships)
    ~payload:(fun _ _ -> [||])
    ~recv:(fun r _ i _ -> mark r i);
  let domination_ok = ref true in
  for r = 0 to n - 1 do
    if live r then begin
      List.iter
        (fun i ->
          if i < 0 || i >= classes then
            invalid_arg "Tester.run_distributed: class out of range";
          mark r i)
        (memberships r);
      for i = 0 to classes - 1 do
        if not seen.((r * classes) + i) then domination_ok := false
      done
    end
  done;
  if not !domination_ok then begin
    (* 'domination-failure' flood: Θ(D) rounds *)
    let _ =
      Congest.Primitives.flood_min net ~value:(fun r -> r) ~rounds:d_bound
    in
    {
      pass = false;
      domination_ok = false;
      connectivity_ok = true;
      detection_round = None;
    }
  end
  else begin
    (* 2. per-class component identification *)
    let sl = Multiflood.layout ~n memberships in
    let cids = Multiflood.flood_min net sl ~init:(fun r _ -> r) in
    let cid r i =
      let s = Multiflood.find sl r i in
      if s < 0 then -1 else cids.(s)
    in
    (* 3. status sweep: members announce (class, cid); everyone records
          one id heard per class and watches for conflicts. The id kept
          is its own for its classes, else the newest delivery's (the
          last to arrive), and two ids differ somewhere iff some arrival
          differs from the id kept before it. Memberships are read
          again: [live] may have changed during the flood. *)
    let heard = Array.make (n * classes) (-1) in
    let detection = ref None in
    let detect_at round = if !detection = None then detection := Some round in
    let sl3 = Multiflood.layout ~n memberships in
    let cls3 = sl3.Multiflood.cls in
    let row = Multiflood.row ~classes sl3 in
    for r = 0 to n - 1 do
      for s = sl3.Multiflood.off.(r) to sl3.Multiflood.off.(r + 1) - 1 do
        note heard ~classes detect_at r 0 cls3.(s) (cid r cls3.(s))
      done
    done;
    let conflict = Array.make n false in
    Multiflood.membership_sweep ~row net sl3
      ~payload:(fun r s -> [| cid r cls3.(s) |])
      ~recv:(fun r _ i m ->
        if i >= 0 && i < classes then begin
          let k = (r * classes) + i and c = m.(1) in
          let h = heard.(k) in
          if h < 0 then heard.(k) <- c
          else begin
            if h <> c then conflict.(r) <- true;
            if row.(i) < 0 then heard.(k) <- c
          end
        end);
    (* a node that did not survive the sweep observed nothing in it *)
    for r = 0 to n - 1 do
      if live r then (if conflict.(r) then detect_at 0)
      else begin
        Multiflood.fill_row sl3 row r;
        for i = 0 to classes - 1 do
          if row.(i) < 0 then heard.((r * classes) + i) <- -1
        done;
        Multiflood.clear_row sl3 row r
      end
    done;
    (* 4. random announcement rounds (Lemma E.1's detector-path process) *)
    for round = 1 to detection_rounds do
      let choice = Array.init n (choose rng heard ~classes) in
      Net.broadcast_round net (fun r ->
          let i = choice.(r) in
          if i >= 0 then Some [| i; heard.((r * classes) + i) |] else None);
      Net.iter_deliveries net (fun r _ _ m ->
          if live r then note heard ~classes detect_at r round m.(0) m.(1))
    done;
    (* 5. failure-flag flood: Θ(D) rounds, silent when nothing failed
          ([max_int] is never sent) *)
    let flag r = if !detection <> None && r = 0 then 0 else max_int in
    ignore (Congest.Primitives.flood_min net ~value:flag ~rounds:d_bound);
    let connectivity_ok = !detection = None in
    {
      pass = connectivity_ok;
      domination_ok = true;
      connectivity_ok;
      detection_round = !detection;
    }
  end

(* ------------------------------------------------------------------ *)
(* Centralized tester: same process without the message-passing layer *)

let run_centralized ?(seed = 11) ?(live = fun _ -> true) g ~memberships
    ~classes ~detection_rounds =
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
      pass = false;
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
      pass = connectivity_ok;
      domination_ok = true;
      connectivity_ok;
      detection_round = !detection;
    }
  end
