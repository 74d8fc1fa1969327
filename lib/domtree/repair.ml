module Graph = Graphs.Graph
module Net = Congest.Net

type class_status = Healthy | Repaired | Dropped

type t = {
  r_memberships : int list array;
  r_status : class_status array;
  r_retained : int list;
  r_dropped : int list;
  r_orphans : int;
  r_splices : int;
  r_rounds : int;
}

let ceil_lg n =
  int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.))

let pp ppf t =
  let count s = Array.fold_left (fun a x -> if x = s then a + 1 else a) 0 t.r_status in
  Format.fprintf ppf
    "repair: %d/%d classes retained (%d healthy, %d repaired, %d dropped), \
     %d orphan join(s), %d splice(s), %d round(s)"
    (List.length t.r_retained)
    (Array.length t.r_status)
    (count Healthy) (count Repaired) (count Dropped) t.r_orphans t.r_splices
    t.r_rounds

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

(* The simultaneous-bridge join rule, shared verbatim by both variants.
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
        if dropped.(i) then Dropped
        else if touched.(i) then Repaired
        else Healthy)
  in
  let retained = ref [] in
  let dropped_l = ref [] in
  for i = classes - 1 downto 0 do
    if dropped.(i) then dropped_l := i :: !dropped_l
    else retained := i :: !retained
  done;
  {
    r_memberships = final;
    r_status = status;
    r_retained = !retained;
    r_dropped = !dropped_l;
    r_orphans = orphans;
    r_splices = splices;
    r_rounds = rounds;
  }

(* ------------------------------------------------------------------ *)
(* Centralized repair *)

let run_centralized ?(live = fun _ -> true) g ~memberships ~classes =
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

(* ------------------------------------------------------------------ *)
(* Distributed repair: the same decision rules, driven by delivered
   CONGEST traffic (so rounds are charged and faults during repair are
   felt), in the repository's simulation idiom — global arrays fed only
   by messages the runtime actually delivered. *)

let run_distributed ?live net ~memberships ~classes =
  let n = Net.n net in
  let live = match live with Some f -> f | None -> Net.node_alive net in
  let cp = Net.checkpoint net in
  let mem = sanitize ~live n ~memberships ~classes in
  let dropped = Array.make classes false in
  let touched = Array.make classes false in
  let orphans = ref 0 in
  let splices = ref 0 in
  (* 1. extinction *)
  let counts = live_member_counts mem ~classes in
  Array.iteri (fun i c -> if c = 0 then dropped.(i) <- true) counts;
  let memfn r = mem.(r) in
  let in_range i = i >= 0 && i < classes in
  (* 2. domination fix off one membership sweep *)
  let seen = Array.make_matrix n classes false in
  Multiflood.membership_sweep net (Multiflood.layout ~n memfn)
    ~payload:(fun _ _ -> [||])
    ~recv:(fun r _ i _ -> if in_range i then seen.(r).(i) <- true);
  for r = 0 to n - 1 do
    if live r then begin
      let seen = seen.(r) in
      List.iter (fun i -> seen.(i) <- true) mem.(r);
      for i = 0 to classes - 1 do
        if (not dropped.(i)) && not seen.(i) then begin
          mem.(r) <- List.sort_uniq Int.compare (i :: mem.(r));
          incr orphans;
          touched.(i) <- true
        end
      done
    end
  done;
  (* 3. splice loop. Joins only add members to classes that are still
        split, so a class one flood found whole stays whole (barring a
        crash during the repair, which the caller's retest sees): the
        first iteration floods every surviving class, each later one
        only the classes the previous one found split, and the
        announcements and relays carry split classes alone. *)
  let max_iter = ceil_lg n + 2 in
  let rec splice iter flooded =
    (* per-class fragment identification on the virtual graph *)
    let sl = Multiflood.layout ~n (fun r -> List.filter flooded mem.(r)) in
    let cids = Multiflood.flood_min_on_change net sl ~init:(fun r _ -> r) in
    let frag = Array.make classes 0 in
    let seen_frag = Array.make_matrix classes n false in
    Array.iteri
      (fun s i ->
        let c = cids.(s) in
        if not seen_frag.(i).(c) then begin
          seen_frag.(i).(c) <- true;
          frag.(i) <- frag.(i) + 1
        end)
      sl.Multiflood.cls;
    let split = Array.map (fun f -> f > 1) frag in
    let act = ref [] in
    for i = classes - 1 downto 0 do
      if (not dropped.(i)) && split.(i) then act := i :: !act
    done;
    match !act with
    | [] -> ()
    | act ->
      if iter >= max_iter then List.iter (fun i -> dropped.(i) <- true) act
      else begin
        let member = Array.make_matrix classes n false in
        Array.iteri
          (fun r ls -> List.iter (fun i -> member.(i).(r) <- true) ls)
          mem;
        (* one sweep; what each non-member hears of class i, sorted and
           unique (a node that did not survive the sweep heard nothing) *)
        let sweep_ids sl ~payload =
          let ids = Array.make_matrix classes n [] in
          Multiflood.membership_sweep net sl ~payload ~recv:(fun x _ i m ->
              if in_range i && not member.(i).(x) then
                ids.(i).(x) <- m.(1) :: ids.(i).(x));
          Array.iter
            (fun row ->
              Array.iteri
                (fun x cs ->
                  row.(x) <-
                    (if live x then List.sort_uniq Int.compare cs else []))
                row)
            ids;
          ids
        in
        (* sweep 1: members of split classes announce their fragment id *)
        let al =
          Multiflood.layout ~n (fun r -> List.filter (Array.get split) mem.(r))
        in
        let nc =
          sweep_ids al ~payload:(fun r s ->
              [| cids.(Multiflood.find sl r al.Multiflood.cls.(s)) |])
        in
        (* sweep 2: non-members relay their nearest fragment id *)
        let relayfn x =
          if not (live x) then []
          else begin
            let cs = ref [] in
            for i = classes - 1 downto 0 do
              if (not dropped.(i)) && (not member.(i).(x)) && nc.(i).(x) <> []
              then cs := i :: !cs
            done;
            !cs
          end
        in
        let rl = Multiflood.layout ~n relayfn in
        let relayed =
          sweep_ids rl ~payload:(fun x s ->
              [| List.hd nc.(rl.Multiflood.cls.(s)).(x) |])
        in
        match joins_of ~classes ~n nc relayed with
        | [] -> List.iter (fun i -> dropped.(i) <- true) act
        | joins ->
          List.iter
            (fun (x, i) ->
              mem.(x) <- List.sort_uniq Int.compare (i :: mem.(x));
              incr splices;
              touched.(i) <- true)
            joins;
          splice (iter + 1) (Array.get split)
      end
  in
  splice 0 (fun i -> not dropped.(i));
  (* 4. dropped-class dissemination: Θ(D) flood, as the tester's
        failure flag, bounded by a BFS tree built only when it is
        needed *)
  if Array.exists (fun b -> b) dropped then begin
    let tree = Congest.Primitives.bfs_tree net ~root:0 in
    let d_bound = max 1 (2 * tree.Congest.Primitives.height) in
    ignore (Congest.Primitives.flood_min net ~value:(fun r -> r) ~rounds:d_bound)
  end;
  finalize mem ~classes ~dropped ~touched ~orphans:!orphans ~splices:!splices
    ~rounds:(Net.rounds_since net cp)
