module Graph = Graphs.Graph
module Union_find = Graphs.Union_find

type stats = {
  excess_after_layer : (int * int) list;
  matched_per_layer : (int * int) list;
  bridging_edges_per_layer : (int * int) list;
}

type t = {
  vg : Virtual_graph.t;
  classes : int;
  class_of : int array;
  members : int array array;
  connected : bool array;
  dominating : bool array;
  stats : stats;
}

let default_classes ~k = max 1 (k / 3)

let default_layers ~n =
  let lg = int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.)) in
  max 4 (2 * lg)

(* B.3 draws its proposal values below [proposal_range ~n] *)
let proposal_range ~n = max 64 (n * n)
let proposal_key ~n v who = ((proposal_range ~n - v) * n) + who

(* Message tags for the single-round broadcasts of B.2 *)
let tag_connector = 0
let tag_one = 1

(* [wit] encodes what a receiver heard of B.2b for one class: nothing,
   a connector or two different components (every component is
   witnessed), or one component id [c] (every component but [c]). *)
let wit_none = -1
let wit_all = -2

(* [a] with room for index [i], doubled when it has none *)
let grow a i =
  let len = Array.length a in
  if i < len then a
  else begin
    let b = Array.make (max (i + 1) (2 * len)) 0 in
    Array.blit a 0 b 0 len;
    b
  end

let run_on side ~seed ~jumpstart ~classes ~layers =
  let g = Comm.graph side in
  let caller =
    match side with
    | Comm.Central _ -> "Cds_packing.run"
    | Comm.Distributed _ -> "Dist_packing.run"
  in
  if classes < 1 then invalid_arg (caller ^ ": classes < 1");
  if jumpstart < 1 || jumpstart > layers then
    invalid_arg (caller ^ ": jumpstart out of range");
  let n = Graph.n g in
  if n > 0 && proposal_range ~n > (Congest.Model.max_word ~n - (n - 1)) / n
  then
    invalid_arg (caller ^ ": n too large for a one-word B.3 proposal key");
  let csr_off = Graph.csr_offsets g and csr_adj = Graph.csr_neighbors g in
  let vg = Virtual_graph.create g ~layers in
  let rng = Random.State.make [| seed; n; classes; 77 |] in
  let class_of = Array.make (Virtual_graph.count vg) (-1) in
  (* the distinct classes of each node's virtual nodes, newest first,
     and the same read by (class, node) = [i * n + r]. The union-find
     over (class, node) pairs keeps every class's components as
     memberships join; memberships only grow, so it serves the whole
     run, and only the central side reads it during a layer. *)
  let my_classes = Array.make n [] in
  let member = Array.make (classes * n) false in
  let uf = Union_find.create (classes * n) in
  let components = Array.make classes 0 in
  let assign ~real ~layer ~vtype ~cls =
    class_of.(Virtual_graph.vid vg ~real ~layer ~vtype) <- cls;
    let x = (cls * n) + real in
    if not member.(x) then begin
      member.(x) <- true;
      my_classes.(real) <- cls :: my_classes.(real);
      components.(cls) <- components.(cls) + 1;
      for e = csr_off.(real) to csr_off.(real + 1) - 1 do
        let y = (cls * n) + csr_adj.(e) in
        if member.(y) && Union_find.union uf x y then
          components.(cls) <- components.(cls) - 1
      done
    end
  in
  let random_class () = Random.State.int rng classes in
  let excess () =
    Array.fold_left (fun total c -> if c >= 1 then total + c - 1 else total) 0
      components
  in
  (* jump-start *)
  for layer = 1 to jumpstart do
    for r = 0 to n - 1 do
      for vtype = 1 to 3 do
        assign ~real:r ~layer ~vtype ~cls:(random_class ())
      done
    done
  done;
  let memberships r = my_classes.(r) in
  let stats_excess = ref [ (jumpstart, excess ()) ] in
  let stats_matched = ref [] in
  let stats_bridging = ref [] in
  let stages = default_layers ~n in
  (* per-run scratch. A node holds each class at most once and at most
     three classes per layer, which bounds the slots of any layer. *)
  let max_slots = n * min classes (3 * layers) in
  (* [slot_of.(i * n + r)]: r's slot of class i in this layer's layout,
     [-1] if r holds no virtual node of class i *)
  let slot_of = Array.make (classes * n) (-1) in
  let slot r i = slot_of.((i * n) + r) in
  let comm =
    Comm.make side ~component:(Union_find.find uf) ~slot_of ~classes ~max_slots
  in
  let component_id = comm.component_min () in
  let component_min = comm.component_min () in
  let deact = Array.make max_slots false in
  let locked = Array.make max_slots false in
  let best_value = Array.make max_slots (-1) in
  let best_who = Array.make max_slots (-1) in
  let class1 = Array.make n 0 and class2 = Array.make n (-1) in
  let class3 = Array.make n 0 in
  let first1 = Array.make n (-1) and many1 = Array.make n false in
  let first3 = Array.make n (-1) and many3 = Array.make n false in
  let prop_value = Array.make n 0 in
  let prop_cls = Array.make n (-1) in
  let prop_cid = Array.make n 0 in
  (* B.2b witness state and the filtered sweep #2 log, both per
     (receiver, class) = [r * classes + i]: [log_head] starts a list
     through [log_next], newest first, of entries [cid * 2 + active].
     The log and the option lists start empty and grow on demand: both
     stay empty when no component is split. *)
  let wit = Array.make (n * classes) wit_none in
  let log_head = Array.make (n * classes) (-1) in
  let log_val = ref [||] in
  let log_next = ref [||] in
  let n_log = ref 0 in
  let seen_at = Array.make n (-1) in
  (* the B.2c option lists: r's are [opt_off.(r) ..][opt_len.(r)] *)
  let opt_cls = ref [||] in
  let opt_cid = ref [||] in
  let opt_off = Array.make n 0 and opt_len = Array.make n 0 in
  let hear r m =
    let w = (r * classes) + m.(1) in
    if m.(0) = tag_connector then wit.(w) <- wit_all
    else
      let c = m.(2) and x = wit.(w) in
      if x = wit_none then wit.(w) <- c
      else if x <> c then wit.(w) <- wit_all
  in
  let witnessed w c =
    let x = wit.(w) in
    x = wit_all || (x >= 0 && x <> c)
  in

  for new_layer = jumpstart + 1 to layers do
    (* local random choices for type-1 and type-3 new nodes *)
    for r = 0 to n - 1 do
      class1.(r) <- random_class ()
    done;
    for r = 0 to n - 1 do
      class3.(r) <- random_class ()
    done;
    (* the old nodes' memberships are fixed until the layer commits *)
    let sl = Multiflood.layout ~n memberships in
    let nslots = Array.length sl.cls in
    Comm.fill_slots slot_of ~n sl;

    (* B.1: component identification of old nodes *)
    let cid = component_id sl ~init:(fun r _ -> r) in
    (* status sweep #1: members announce (class, cid). A node keeps, for
       its type-1 and type-3 classes, the first cid seen in its closed
       neighborhood and whether a different one turned up. *)
    Array.fill first1 0 n (-1);
    Array.fill many1 0 n false;
    Array.fill first3 0 n (-1);
    Array.fill many3 0 n false;
    let see first many r c =
      if first.(r) < 0 then first.(r) <- c
      else if first.(r) <> c then many.(r) <- true
    in
    for r = 0 to n - 1 do
      let s1 = slot r class1.(r) and s3 = slot r class3.(r) in
      if s1 >= 0 then see first1 many1 r cid.(s1);
      if s3 >= 0 then see first3 many3 r cid.(s3)
    done;
    comm.sweep sl
      ~payload:(fun _ s -> [| cid.(s) |])
      ~listen:(fun r i -> i = class1.(r) || i = class3.(r))
      ~ordered:false
      ~recv:(fun r _ i m ->
        if i = class1.(r) then see first1 many1 r m.(1);
        if i = class3.(r) then see first3 many3 r m.(1));

    (* B.2a: type-1 connector declarations (one round); members
       adjacent to a declaring type-1 node mark deactivation *)
    Array.fill deact 0 nslots false;
    comm.round
      (fun r ->
        if many1.(r) then Some [| tag_connector; class1.(r) |] else None)
      ~listen:(fun _ -> true)
      (fun r _ m ->
        let s = slot r m.(1) in
        if s >= 0 then deact.(s) <- true);
    (* the deactivation flag, component-wide: a raised flag is 0 and
       spreads, an unraised one is neutral and never sent *)
    let flag =
      component_min sl ~init:(fun _ s ->
          if deact.(s) then 0 else Multiflood.neutral)
    in

    (* B.2b: type-3 messages (one round). Its messages depend only on
       sweep #1; every receiver, own message included, folds what it
       hears of class i into [wit]. *)
    let msg3 r =
      let i = class3.(r) in
      if first3.(r) < 0 then None
      else if many3.(r) then Some [| tag_connector; i |]
      else Some [| tag_one; i; first3.(r) |]
    in
    comm.round msg3 ~listen:(fun _ -> true) (fun r _ m -> hear r m);
    for r = 0 to n - 1 do
      Option.iter (hear r) (msg3 r)
    done;

    (* status sweep #2: members announce (class, cid * 2 + active), the
       word the receiver's log stores. A receiver logs a delivery of
       (i, c) only if B.2c can list it: c is not its own component of i
       and its B.2b witnesses c. Both depend on (r, i, c) alone, so the
       lists read the same entries in the same newest-first order as a
       full log. A class of one component (its count is the old layers'
       until the layer commits) is never witnessed: every B.2b message
       of it names that component. *)
    comm.sweep sl
      ~payload:(fun _ s -> [| (cid.(s) * 2) + if flag.(s) = 0 then 0 else 1 |])
      ~listen:(fun r i ->
        wit.((r * classes) + i) <> wit_none && components.(i) > 1)
      ~ordered:true
      ~recv:(fun r _ i m ->
        let s = slot r i and c = m.(1) / 2 in
        let w = (r * classes) + i in
        if (s < 0 || c <> cid.(s)) && witnessed w c then begin
          let e = !n_log in
          log_val := grow !log_val e;
          log_next := grow !log_next e;
          !log_val.(e) <- m.(1);
          !log_next.(e) <- log_head.(w);
          log_head.(w) <- e;
          n_log := e + 1
        end);

    (* B.2c: type-2 neighbor lists. A type-3 message of class i audible
       at r (own included) witnesses component (i, c) if it declares a
       connector or names a component other than c. Candidates are the
       distinct active (class, cid) around r: classes descending, own
       membership first, then the logged ones newest first. *)
    let n_opts = ref 0 in
    let emit i c =
      let e = !n_opts in
      opt_cls := grow !opt_cls e;
      opt_cid := grow !opt_cid e;
      !opt_cls.(e) <- i;
      !opt_cid.(e) <- c;
      n_opts := e + 1
    in
    let log_val = !log_val and log_next = !log_next in
    for r = 0 to n - 1 do
      opt_off.(r) <- !n_opts;
      for i = classes - 1 downto 0 do
        let w = (r * classes) + i in
        if wit.(w) <> wit_none then begin
          let s = slot r i in
          if s >= 0 && flag.(s) <> 0 && witnessed w cid.(s) then emit i cid.(s);
          (* [w] stamps [seen_at]: the newest delivery of c decides *)
          let e = ref log_head.(w) in
          while !e >= 0 do
            let c = log_val.(!e) / 2 in
            if seen_at.(c) <> w then begin
              seen_at.(c) <- w;
              if log_val.(!e) land 1 = 1 then emit i c
            end;
            e := log_next.(!e)
          done
        end
      done;
      opt_len.(r) <- !n_opts - opt_off.(r)
    done;
    let bridging = !n_opts in
    Array.fill seen_at 0 n (-1);
    Array.fill wit 0 (n * classes) wit_none;
    Array.fill log_head 0 (n * classes) (-1);
    n_log := 0;

    (* B.3: proposal-based maximal matching, at most [stages] stages.
       [opt_len] now counts the options still open. A stage in which no
       node proposes draws nothing and changes nothing, and neither can
       any later one, so its silent proposal round is charged as the
       quiescence detection and ends the loop. *)
    let opt_cls = !opt_cls and opt_cid = !opt_cid in
    Array.fill class2 0 n (-1);
    (* members remember that their component got matched so it never
       accepts a second proposal in a later stage *)
    Array.fill locked 0 nslots false;
    (* b. a member of a still-unmatched component [(i, c)] records the
       best proposal addressed to it *)
    let offer r i c value who =
      let s = slot r i in
      if s >= 0 && cid.(s) = c && not locked.(s) then begin
        let bv = best_value.(s) in
        if value > bv || (value = bv && who > best_who.(s)) then begin
          best_value.(s) <- value;
          best_who.(s) <- who
        end
      end
    in
    (* d. r hears that component (j, c) accepted the proposal [key]: its
       own proposal may have won, and either way (j, c) is taken now
       (the paper's Listv update) *)
    let taken r j c key =
      if
        prop_cls.(r) = j && prop_cid.(r) = c
        && key = proposal_key ~n prop_value.(r) r
      then class2.(r) <- j;
      let lo = opt_off.(r) in
      let kept = ref lo in
      for e = lo to lo + opt_len.(r) - 1 do
        if not (opt_cls.(e) = j && opt_cid.(e) = c) then begin
          opt_cls.(!kept) <- opt_cls.(e);
          opt_cid.(!kept) <- opt_cid.(e);
          incr kept
        end
      done;
      opt_len.(r) <- !kept - lo
    in
    let stage = ref 0 and proposers = ref 1 in
    while !proposers > 0 && !stage < stages do
      incr stage;
      proposers := 0;
      (* a. proposals: one draw per open option, in list order; the
         largest (value, class, cid) wins *)
      for r = 0 to n - 1 do
        prop_cls.(r) <- -1;
        if class2.(r) < 0 then
          for e = opt_off.(r) to opt_off.(r) + opt_len.(r) - 1 do
            let v = Random.State.full_int rng (proposal_range ~n) in
            let i = opt_cls.(e) and c = opt_cid.(e) in
            let pv = prop_value.(r) and pi = prop_cls.(r) in
            if
              pi < 0 || v > pv
              || (v = pv && (i > pi || (i = pi && c > prop_cid.(r))))
            then begin
              prop_value.(r) <- v;
              prop_cls.(r) <- i;
              prop_cid.(r) <- c
            end
          done;
        if prop_cls.(r) >= 0 then incr proposers
      done;
      Array.fill best_value 0 nslots (-1);
      Array.fill best_who 0 nslots (-1);
      (* a proposer's own membership of the component hears it too *)
      comm.round
        (fun r ->
          if prop_cls.(r) >= 0 then
            Some [| prop_cls.(r); prop_cid.(r); prop_value.(r); r |]
          else None)
        ~listen:(fun _ -> true)
        (fun r _ m -> offer r m.(0) m.(1) m.(2) m.(3));
      if !proposers > 0 then begin
        for r = 0 to n - 1 do
          if prop_cls.(r) >= 0 then
            offer r prop_cls.(r) prop_cid.(r) prop_value.(r) r
        done;
        (* c. component-wide best proposal: a min-flood of its key *)
        let best =
          component_min sl ~init:(fun _ s ->
              if best_who.(s) >= 0 then
                proposal_key ~n best_value.(s) best_who.(s)
              else Multiflood.neutral)
        in
        let accepted s = best.(s) <> Multiflood.neutral in
        (* d. members lock their now-matched memberships and announce
           the accepted proposal; every listener, the members
           themselves included, marks the component taken *)
        for s = 0 to nslots - 1 do
          if accepted s then locked.(s) <- true
        done;
        comm.sweep sl
          ~payload:(fun _ s ->
            [| cid.(s); (if accepted s then best.(s) else -1) |])
          ~listen:(fun r j ->
            let open_in_j = ref false in
            for e = opt_off.(r) to opt_off.(r) + opt_len.(r) - 1 do
              if opt_cls.(e) = j then open_in_j := true
            done;
            !open_in_j)
          ~ordered:false
          ~recv:(fun r _ j m -> if m.(2) >= 0 then taken r j m.(1) m.(2));
        for r = 0 to n - 1 do
          for s = sl.off.(r) to sl.off.(r + 1) - 1 do
            if accepted s then taken r sl.cls.(s) cid.(s) best.(s)
          done
        done
      end
    done;
    let matched = Array.fold_left (fun a c -> if c >= 0 then a + 1 else a) 0 class2 in
    for r = 0 to n - 1 do
      if class2.(r) < 0 then class2.(r) <- random_class ()
    done;

    (* commit the layer *)
    for r = 0 to n - 1 do
      assign ~real:r ~layer:new_layer ~vtype:1 ~cls:class1.(r);
      assign ~real:r ~layer:new_layer ~vtype:2 ~cls:class2.(r);
      assign ~real:r ~layer:new_layer ~vtype:3 ~cls:class3.(r)
    done;
    stats_excess := (new_layer, excess ()) :: !stats_excess;
    stats_matched := (new_layer, matched) :: !stats_matched;
    stats_bridging := (new_layer, bridging) :: !stats_bridging
  done;

  (* harvest: per-class results, free on either side *)
  let in_class i v = member.((i * n) + v) in
  let members =
    Array.init classes (fun i ->
        let acc = ref [] in
        for r = n - 1 downto 0 do
          if in_class i r then acc := r :: !acc
        done;
        Array.of_list !acc)
  in
  {
    vg;
    classes;
    class_of;
    members;
    connected = Array.map (fun c -> c = 1) components;
    dominating =
      Array.init classes (fun i -> Graphs.Domination.is_dominating g (in_class i));
    stats =
      {
        excess_after_layer = List.rev !stats_excess;
        matched_per_layer = List.rev !stats_matched;
        bridging_edges_per_layer = List.rev !stats_bridging;
      };
  }

let run ?(seed = 42) ?jumpstart g ~classes ~layers =
  let jumpstart = Option.value jumpstart ~default:(layers / 2) in
  run_on (Central g) ~seed ~jumpstart ~classes ~layers

let pack ?seed g ~k =
  run ?seed g ~classes:(default_classes ~k) ~layers:(default_layers ~n:(Graph.n g))

let valid_classes p =
  let acc = ref [] in
  for i = p.classes - 1 downto 0 do
    if p.connected.(i) && p.dominating.(i) then acc := i :: !acc
  done;
  !acc

let real_classes (p : t) =
  let n = Graph.n (Virtual_graph.base p.vg) in
  let sets = Array.make n [] in
  Array.iteri
    (fun vid cls ->
      if cls >= 0 then begin
        let r = Virtual_graph.real_of p.vg vid in
        if not (List.mem cls sets.(r)) then sets.(r) <- cls :: sets.(r)
      end)
    p.class_of;
  Array.map (List.sort Int.compare) sets
