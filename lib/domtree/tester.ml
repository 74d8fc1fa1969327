module Graph = Graphs.Graph

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

(* The one tester. The distributed side charges every round; the
   central side sends nothing and builds no BFS tree. *)
let run_on side ~seed ~live ~memberships ~classes ~detection_rounds =
  let g = Comm.graph side in
  let n = Graph.n g in
  let rng = Random.State.make [| seed; n; classes |] in
  (* a crashed node holds no memberships and owes no coverage *)
  let memberships r = if live r then memberships r else [] in
  (* memberships are read again once rounds have passed: [live] may
     have changed during them *)
  let last = ref None in
  let layout () =
    let now = Comm.rounds side in
    match !last with
    | Some (at, sl) when at = now -> sl
    | _ ->
      let sl = Multiflood.layout ~n memberships in
      if sl.Multiflood.universe > classes then
        invalid_arg "Tester: class out of range";
      last := Some (now, sl);
      sl
  in
  (* 0. the standard O(D) preprocessing gives a diameter bound for the
        failure-flag floods *)
  let failure_flood = Comm.failure_flood side in
  let sl1 = layout () in
  let slot_of = Array.make (classes * n) (-1) in
  let label = Array.make (classes * n) (-1) in
  let comm =
    Comm.make side ~component:(Array.get label) ~slot_of ~classes
      ~max_slots:(Array.length sl1.Multiflood.cls)
  in
  (* 1. domination: every class must appear in every closed
        neighborhood. A node sees its own classes first, so it listens
        only for the others. *)
  let seen = Array.make (n * classes) false in
  for r = 0 to n - 1 do
    for s = sl1.Multiflood.off.(r) to sl1.Multiflood.off.(r + 1) - 1 do
      seen.((r * classes) + sl1.Multiflood.cls.(s)) <- true
    done
  done;
  Comm.fill_slots slot_of ~n sl1;
  comm.sweep sl1
    ~payload:(fun _ _ -> [||])
    ~listen:(fun r i -> (not seen.((r * classes) + i)) && live r)
    ~ordered:false
    ~recv:(fun r _ i _ -> seen.((r * classes) + i) <- true);
  let domination_ok = ref true in
  for r = 0 to n - 1 do
    if live r then
      for i = 0 to classes - 1 do
        if not seen.((r * classes) + i) then domination_ok := false
      done
  done;
  if not !domination_ok then begin
    (* domination-failure flag flood: Θ(D) rounds *)
    failure_flood true;
    {
      pass = false;
      domination_ok = false;
      connectivity_ok = true;
      detection_round = None;
    }
  end
  else begin
    (* 2. per-class component identification *)
    let sl = layout () in
    Comm.fill_slots slot_of ~n sl;
    Comm.label_components g ~slot_of sl label;
    let cids = comm.component_min () sl ~init:(fun r _ -> r) in
    let cid r i =
      let s = Multiflood.find sl r i in
      if s < 0 then -1 else cids.(s)
    in
    (* 3. status sweep: members announce (class, cid); everyone records
          one id heard per class and watches for conflicts. The id kept
          is its own for its classes, else the newest delivery's (the
          last to arrive), and two ids differ somewhere iff some arrival
          differs from the id kept before it, so the order of arrivals
          cannot change the outcome. *)
    let heard = Array.make (n * classes) (-1) in
    let detection = ref None in
    let detect_at round = if !detection = None then detection := Some round in
    let sl3 = layout () in
    let cls3 = sl3.Multiflood.cls in
    Comm.fill_slots slot_of ~n sl3;
    for r = 0 to n - 1 do
      for s = sl3.Multiflood.off.(r) to sl3.Multiflood.off.(r + 1) - 1 do
        note heard ~classes detect_at r 0 cls3.(s) (cid r cls3.(s))
      done
    done;
    let conflict = Array.make n false in
    comm.sweep sl3
      ~payload:(fun r s -> [| cid r cls3.(s) |])
      ~listen:(fun r _ -> live r)
      ~ordered:false
      ~recv:(fun r _ i m ->
        let k = (r * classes) + i and c = m.(1) in
        let h = heard.(k) in
        if h < 0 then heard.(k) <- c
        else begin
          if h <> c then conflict.(r) <- true;
          if slot_of.((i * n) + r) < 0 then heard.(k) <- c
        end);
    (* a node that did not survive the sweep observed nothing in it *)
    for r = 0 to n - 1 do
      if live r then (if conflict.(r) then detect_at 0)
      else
        for i = 0 to classes - 1 do
          if slot_of.((i * n) + r) < 0 then heard.((r * classes) + i) <- -1
        done
    done;
    (* 4. random announcement rounds (Lemma E.1's detector-path process);
          from here on, the comm's sweep scratch is garbage *)
    let announce = comm.round in
    for round = 1 to detection_rounds do
      let choice = Array.init n (fun r -> choose rng heard ~classes r) in
      announce
        (fun r ->
          let i = choice.(r) in
          if i >= 0 then Some [| i; heard.((r * classes) + i) |] else None)
        ~listen:live
        (fun r _ m -> note heard ~classes detect_at r round m.(0) m.(1))
    done;
    (* 5. failure-flag flood: Θ(D) rounds, silent when nothing failed *)
    failure_flood (!detection <> None);
    let connectivity_ok = !detection = None in
    {
      pass = connectivity_ok;
      domination_ok = true;
      connectivity_ok;
      detection_round = !detection;
    }
  end

let run_distributed ?(seed = 11) ?(live = fun _ -> true) net ~memberships
    ~classes ~detection_rounds =
  run_on (Comm.Distributed net) ~seed ~live ~memberships ~classes
    ~detection_rounds

let run_centralized ?(seed = 11) ?(live = fun _ -> true) g ~memberships
    ~classes ~detection_rounds =
  run_on (Comm.Central g) ~seed ~live ~memberships ~classes ~detection_rounds
