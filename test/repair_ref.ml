(* Reference copy of the central repair ([Repair.run_centralized] while
   it was a body of its own, beside the distributed one), kept as the
   oracle of a differential property. It reads memberships into a
   class x node matrix, names fragments by a BFS per class from
   ascending roots and builds each splice iteration's radius-1 view and
   relays by walking the graph. [Domtree.Repair.run_centralized] must
   return the same repair. *)

module Graph = Graphs.Graph
module Repair = Domtree.Repair

let ceil_lg n =
  int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.))

(* Sanitized working state: per-node sorted unique in-range class lists,
   empty on dead nodes. *)
let sanitize ~live n ~memberships ~classes =
  Array.init n (fun r ->
      if live r then
        List.sort_uniq Int.compare
          (List.filter (fun i -> i >= 0 && i < classes) (memberships r))
      else [])

let live_member_counts mem ~classes =
  let counts = Array.make classes 0 in
  Array.iter
    (fun ls -> List.iter (fun i -> counts.(i) <- counts.(i) + 1) ls)
    mem;
  counts

(* The simultaneous-bridge join rule.
   [nc.(i).(x)]: sorted distinct fragment ids of class [i] that live
   non-member [x] sees at distance 1 (empty when none, or when [x] is a
   member / dead / the class is inactive). [relayed.(i).(x)]: nearest
   fragment ids relayed by adjacent live non-members. A vertex joins
   class [i] iff it touches a fragment directly and its combined view
   names two distinct fragments — covering length-2 bridges (two
   fragments in the direct view) and length-3 bridges (each endpoint
   relays a different nearest fragment to the other). *)
let joins_of ~classes ~n nc relayed =
  let joins = ref [] in
  for i = classes - 1 downto 0 do
    for x = n - 1 downto 0 do
      match nc.(i).(x) with
      | [] -> ()
      | direct ->
        let view = List.sort_uniq Int.compare (direct @ relayed.(i).(x)) in
        if List.length view >= 2 then joins := (x, i) :: !joins
    done
  done;
  !joins

let finalize mem ~classes ~dropped ~touched ~orphans ~splices ~rounds =
  let n = Array.length mem in
  let final =
    Array.init n (fun r -> List.filter (fun i -> not dropped.(i)) mem.(r))
  in
  let status =
    Array.init classes (fun i ->
        if dropped.(i) then Repair.Dropped
        else if touched.(i) then Repair.Repaired
        else Repair.Healthy)
  in
  let retained = ref [] in
  let dropped_l = ref [] in
  for i = classes - 1 downto 0 do
    if dropped.(i) then dropped_l := i :: !dropped_l
    else retained := i :: !retained
  done;
  {
    Repair.r_memberships = final;
    r_status = status;
    r_retained = !retained;
    r_dropped = !dropped_l;
    r_orphans = orphans;
    r_splices = splices;
    r_rounds = rounds;
  }

let run ?(live = fun _ -> true) g ~memberships ~classes =
  let n = Graph.n g in
  let mem = sanitize ~live n ~memberships ~classes in
  let dropped = Array.make classes false in
  let touched = Array.make classes false in
  let orphans = ref 0 in
  let splices = ref 0 in
  (* 1. extinction: no surviving member, nothing to splice *)
  let counts = live_member_counts mem ~classes in
  Array.iteri (fun i c -> if c = 0 then dropped.(i) <- true) counts;
  let member_matrix () =
    let m = Array.make_matrix classes n false in
    Array.iteri
      (fun r ls -> List.iter (fun i -> m.(i).(r) <- true) ls)
      mem;
    m
  in
  (* 2. domination fix: orphaned nodes reassign themselves *)
  let in_class = member_matrix () in
  for r = 0 to n - 1 do
    if live r then
      for i = 0 to classes - 1 do
        if
          (not dropped.(i))
          && (not in_class.(i).(r))
          && not (Array.exists (fun u -> in_class.(i).(u)) (Graph.neighbors g r))
        then begin
          mem.(r) <- List.sort_uniq Int.compare (i :: mem.(r));
          incr orphans;
          touched.(i) <- true
        end
      done
  done;
  (* 3. splice loop: all bridges fire simultaneously, Boruvka-style *)
  let max_iter = ceil_lg n + 2 in
  let comps in_class =
    (* fragment id = min member id, via BFS in ascending root order *)
    let comp = Array.make_matrix classes n (-1) in
    let frag = Array.make classes 0 in
    for i = 0 to classes - 1 do
      if not dropped.(i) then
        for r = 0 to n - 1 do
          if in_class.(i).(r) && comp.(i).(r) < 0 then begin
            frag.(i) <- frag.(i) + 1;
            let q = Queue.create () in
            comp.(i).(r) <- r;
            Queue.add r q;
            while not (Queue.is_empty q) do
              let u = Queue.pop q in
              Array.iter
                (fun v ->
                  if in_class.(i).(v) && comp.(i).(v) < 0 then begin
                    comp.(i).(v) <- r;
                    Queue.add v q
                  end)
                (Graph.neighbors g u)
            done
          end
        done
    done;
    (comp, frag)
  in
  let active frag =
    let a = ref [] in
    for i = classes - 1 downto 0 do
      if (not dropped.(i)) && frag.(i) > 1 then a := i :: !a
    done;
    !a
  in
  let rec splice iter =
    let in_class = member_matrix () in
    let comp, frag = comps in_class in
    match active frag with
    | [] -> ()
    | act ->
      if iter >= max_iter then List.iter (fun i -> dropped.(i) <- true) act
      else begin
        (* radius-1 view *)
        let nc = Array.make_matrix classes n [] in
        for x = 0 to n - 1 do
          if live x then
            for i = 0 to classes - 1 do
              if (not dropped.(i)) && not in_class.(i).(x) then
                nc.(i).(x) <-
                  Array.fold_left
                    (fun acc u ->
                      if in_class.(i).(u) then comp.(i).(u) :: acc else acc)
                    [] (Graph.neighbors g x)
                  |> List.sort_uniq Int.compare
            done
        done;
        (* relays: nearest fragment id, one hop further *)
        let relayed = Array.make_matrix classes n [] in
        for x = 0 to n - 1 do
          if live x then
            for i = 0 to classes - 1 do
              if (not dropped.(i)) && not in_class.(i).(x) then
                relayed.(i).(x) <-
                  Array.fold_left
                    (fun acc y ->
                      if live y && not in_class.(i).(y) then
                        match nc.(i).(y) with
                        | [] -> acc
                        | c :: _ -> c :: acc
                      else acc)
                    [] (Graph.neighbors g x)
                  |> List.sort_uniq Int.compare
            done
        done;
        match joins_of ~classes ~n nc relayed with
        | [] -> List.iter (fun i -> dropped.(i) <- true) act
        | joins ->
          List.iter
            (fun (x, i) ->
              mem.(x) <- List.sort_uniq Int.compare (i :: mem.(x));
              incr splices;
              touched.(i) <- true)
            joins;
          splice (iter + 1)
      end
  in
  splice 0;
  finalize mem ~classes ~dropped ~touched ~orphans:!orphans ~splices:!splices
    ~rounds:0

