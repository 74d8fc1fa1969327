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
   empty on dead nodes. A list that is so already is kept as it is. *)
let sanitize ~live n ~memberships ~classes =
  let rec clean = function
    | [] -> true
    | [ i ] -> i >= 0 && i < classes
    | i :: (j :: _ as rest) -> i >= 0 && i < j && clean rest
  in
  Array.init n (fun r ->
      if live r then begin
        let ls = memberships r in
        if clean ls then ls
        else
          List.sort_uniq Int.compare
            (List.filter (fun i -> i >= 0 && i < classes) ls)
      end
      else [])

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
(* The one repair. Distributed, component ids come from per-class
   on-change floods and fragment ids and relays from membership sweeps,
   all delivered CONGEST traffic (so rounds are charged and faults
   during repair are felt); central, the same steps send nothing. *)

let run_on side ~live ~memberships ~classes =
  let n = Graph.n (Comm.graph side) in
  let start = Comm.rounds side in
  let mem = sanitize ~live n ~memberships ~classes in
  let touched = Array.make classes false in
  let orphans = ref 0 in
  let splices = ref 0 in
  (* memberships by (class, node) = [i * n + r]; 1. extinction: a class
     no live node holds is dropped *)
  let member = Array.make (classes * n) false in
  let dropped = Array.make classes true in
  Array.iteri
    (fun r ls ->
      List.iter
        (fun i ->
          member.((i * n) + r) <- true;
          dropped.(i) <- false)
        ls)
    mem;
  let join x i =
    mem.(x) <- List.sort_uniq Int.compare (i :: mem.(x));
    member.((i * n) + x) <- true;
    touched.(i) <- true
  in
  let comm = Comm.make_labelled side ~classes ~max_slots:(classes * n) in
  (* 2. domination fix off one membership sweep *)
  let seen = Array.make (classes * n) false in
  let sl = Multiflood.layout ~n (Array.get mem) in
  comm.sweep sl
    ~payload:(fun _ _ -> [||])
    ~listen:(fun r i -> (not member.((i * n) + r)) && live r)
    ~ordered:false
    ~recv:(fun r _ i _ -> seen.((i * n) + r) <- true);
  for r = 0 to n - 1 do
    if live r then
      for i = 0 to classes - 1 do
        if (not dropped.(i)) && not (member.((i * n) + r) || seen.((i * n) + r))
        then begin
          join r i;
          incr orphans
        end
      done
  done;
  (* 3. splice loop. Joins only add members to classes that are still
        split, so a class one flood found whole stays whole (barring a
        crash during the repair, which the caller's retest sees): the
        first iteration floods every surviving class, each later one
        only the classes the previous one found split, and the
        announcements and relays carry split classes alone. *)
  let max_iter = ceil_lg n + 2 in
  let rec splice iter sl =
    (* per-class fragment identification on the virtual graph *)
    let cids = comm.component_min_on_change sl ~init:(fun r _ -> r) in
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
        (* one sweep; what each live non-member of a split class hears
           of it, sorted and unique (a node that did not survive the
           sweep heard nothing) *)
        let sweep_ids sl ~payload =
          let ids = Array.make_matrix classes n [] in
          comm.sweep sl ~payload
            ~listen:(fun x i ->
              split.(i) && (not member.((i * n) + x)) && live x)
            ~ordered:false
            ~recv:(fun x _ i m ->
              if not member.((i * n) + x) then
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
        let split_classes r = List.filter (Array.get split) mem.(r) in
        let al = Multiflood.layout ~n split_classes in
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
              if
                (not dropped.(i))
                && (not member.((i * n) + x))
                && nc.(i).(x) <> []
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
              join x i;
              incr splices)
            joins;
          splice (iter + 1) (Multiflood.layout ~n split_classes)
      end
  in
  (* every surviving class: the layout of the domination sweep, unless
     an orphan joined (an extinct class has no member to lay out) *)
  splice 0 (if !orphans = 0 then sl else Multiflood.layout ~n (Array.get mem));
  (* 4. dropped-class dissemination: the tester's Θ(D) failure-flag
        flood, bounded by a BFS tree built only when it is needed *)
  if Array.exists (fun b -> b) dropped then Comm.failure_flood side true;
  finalize mem ~classes ~dropped ~touched ~orphans:!orphans ~splices:!splices
    ~rounds:(Comm.rounds side - start)

let run_centralized ?(live = fun _ -> true) g ~memberships ~classes =
  run_on (Comm.Central g) ~live ~memberships ~classes

let run_distributed ?live net ~memberships ~classes =
  let live = match live with Some f -> f | None -> Net.node_alive net in
  run_on (Comm.Distributed net) ~live ~memberships ~classes
