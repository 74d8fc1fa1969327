module Graph = Graphs.Graph
module Net = Congest.Net
module Union_find = Graphs.Union_find

let matching_stages ~n =
  max 4 (2 * int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.)))

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

let run ?(seed = 42) ?jumpstart net ~classes ~layers =
  if classes < 1 then invalid_arg "Dist_packing.run: classes < 1";
  let jumpstart = match jumpstart with Some j -> j | None -> layers / 2 in
  if jumpstart < 1 || jumpstart > layers then
    invalid_arg "Dist_packing.run: jumpstart out of range";
  let g = Net.graph net in
  let n = Graph.n g in
  let vg = Virtual_graph.create g ~layers in
  let rng = Random.State.make [| seed; n; classes; 77 |] in
  let class_of = Array.make (Virtual_graph.count vg) (-1) in
  (* per-node local knowledge: the distinct classes of own virtual nodes;
     [member] is the same, read by class (post-hoc instrumentation) *)
  let my_classes = Array.make n [] in
  let member = Array.make_matrix classes n false in
  let assign ~real ~layer ~vtype ~cls =
    class_of.(Virtual_graph.vid vg ~real ~layer ~vtype) <- cls;
    if not member.(cls).(real) then begin
      member.(cls).(real) <- true;
      my_classes.(real) <- cls :: my_classes.(real)
    end
  in
  let random_class () = Random.State.int rng classes in
  (* jump-start *)
  for layer = 1 to jumpstart do
    for r = 0 to n - 1 do
      for vtype = 1 to 3 do
        assign ~real:r ~layer ~vtype ~cls:(random_class ())
      done
    done
  done;
  let memberships r = my_classes.(r) in
  (* instrumentation: excess components, computed post-hoc per layer from
     the same membership data (costs no rounds). Memberships only grow,
     so one union-find over (class, node) pairs serves the whole run: a
     union joins two members, which stay members. *)
  let uf = Union_find.create (classes * n) in
  let excess () =
    Graph.iter_edges
      (fun u v ->
        for i = 0 to classes - 1 do
          if member.(i).(u) && member.(i).(v) then
            ignore (Union_find.union uf ((i * n) + u) ((i * n) + v))
        done)
      g;
    (* a union only joins members, so every member's root is a member:
       the components of class i are its members that are roots *)
    let total = ref 0 in
    for i = 0 to classes - 1 do
      let roots = ref 0 in
      for r = 0 to n - 1 do
        let x = (i * n) + r in
        if member.(i).(r) && Union_find.find uf x = x then incr roots
      done;
      if !roots >= 1 then total := !total + (!roots - 1)
    done;
    !total
  in
  let stats_excess = ref [ (jumpstart, excess ()) ] in
  let stats_matched = ref [] in
  let stats_bridging = ref [] in
  let stages = matching_stages ~n in
  let proposal_range = max 64 (n * n) in
  (* per-run scratch. A node holds each class at most once and at most
     three classes per layer, which bounds the slots of any layer. *)
  let max_slots = n * min classes (3 * layers) in
  let cid_buf = Multiflood.buffers ~slots:max_slots ~classes in
  let flood_buf = Multiflood.buffers ~slots:max_slots ~classes in
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
    let nslots = Array.length sl.Multiflood.cls in
    let slot r i = Multiflood.find sl r i in
    (* the receiver's class->slot row for the B.2a, sweep #2 and B.3b
       deliveries, sized by [classes] rather than by the classes the
       layout holds *)
    let row = Multiflood.row ~classes sl in

    (* B.1: component identification of old nodes *)
    let cid, _ =
      Multiflood.flood_min ~buffers:cid_buf net sl ~init:(fun r _ -> (r, r))
    in
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
    Multiflood.membership_sweep net sl
      ~payload:(fun _ s -> [| cid.(s) |])
      ~recv:(fun r _ i m ->
        if i = class1.(r) then see first1 many1 r m.(1);
        if i = class3.(r) then see first3 many3 r m.(1));

    (* B.2a: type-1 connector declarations (one round) *)
    Net.broadcast_round net (fun r ->
        if many1.(r) then Some [| tag_connector; class1.(r) |] else None);
    (* members adjacent to a declaring type-1 node mark deactivation *)
    Array.fill deact 0 nslots false;
    Multiflood.iter_deliveries net sl row (fun _ _ _ m ->
        if m.(0) = tag_connector then begin
          let s = row.(m.(1)) in
          if s >= 0 then deact.(s) <- true
        end);
    (* flood the deactivation flag through each component (flag 0 wins);
       only the flag is read, so the tiebreak is constant *)
    let flag, _ =
      Multiflood.flood_min ~buffers:flood_buf net sl ~init:(fun _ s ->
          ((if deact.(s) then 0 else 1), 0))
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
    Net.broadcast_round net msg3;
    for r = 0 to n - 1 do
      Option.iter (hear r) (msg3 r)
    done;
    Net.iter_deliveries net (fun r _ _ m -> hear r m);

    (* status sweep #2: members announce (class, cid, active?). A
       receiver logs a delivery of (i, c) only if B.2c can list it: c is
       not its own component of i and its B.2b witnesses c. Both depend
       on (r, i, c) alone, so the lists read the same entries in the
       same newest-first order as a full log. *)
    Multiflood.membership_sweep ~row net sl
      ~payload:(fun _ s -> [| cid.(s); (if flag.(s) = 0 then 0 else 1) |])
      ~recv:(fun r _ i m ->
        let s = row.(i) and c = m.(1) in
        let w = (r * classes) + i in
        if (s < 0 || c <> cid.(s)) && witnessed w c then begin
          let e = !n_log in
          log_val := grow !log_val e;
          log_next := grow !log_next e;
          !log_val.(e) <- (c * 2) + (if m.(2) = 1 then 1 else 0);
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
            let v = Random.State.full_int rng proposal_range in
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
      Net.broadcast_round net (fun r ->
          if prop_cls.(r) >= 0 then
            Some [| prop_cls.(r); prop_cid.(r); prop_value.(r); r |]
          else None);
      if !proposers > 0 then begin
        (* b. members of still-unmatched components record the best
           proposal addressed to their component *)
        Array.fill best_value 0 nslots (-1);
        Array.fill best_who 0 nslots (-1);
        Multiflood.iter_deliveries net sl row (fun _ _ _ m ->
            let s = row.(m.(0)) in
            let value = m.(2) and who = m.(3) in
            if s >= 0 && cid.(s) = m.(1) && not locked.(s) then begin
              let bv = best_value.(s) in
              if value > bv || (value = bv && who > best_who.(s)) then begin
                best_value.(s) <- value;
                best_who.(s) <- who
              end
            end);
        (* c. component-wide maximum via min-flood on negated values *)
        let neg, who =
          Multiflood.flood_min ~buffers:flood_buf net sl ~init:(fun _ s ->
              if best_who.(s) >= 0 then (-best_value.(s), best_who.(s))
              else (1, -1))
        in
        let accepted s = neg.(s) <= 0 && who.(s) >= 0 in
        (* d. members lock their now-matched memberships, announce the
           accepted proposal, and every listener drops any component it
           hears got matched to somebody else (the paper's Listv
           update) *)
        for s = 0 to nslots - 1 do
          if accepted s then locked.(s) <- true
        done;
        Multiflood.membership_sweep net sl
          ~payload:(fun _ s ->
            if accepted s then [| cid.(s); -neg.(s); who.(s) |]
            else [| cid.(s); -1; -1 |])
          ~recv:(fun r _ j m ->
            let c' = m.(1) and w = m.(3) in
            if w >= 0 then begin
              (* did my own proposal win? *)
              if
                prop_cls.(r) = j && prop_cid.(r) = c' && w = r
                && m.(2) = prop_value.(r)
              then class2.(r) <- j;
              (* either way, component (j, c') is taken now *)
              let lo = opt_off.(r) in
              let kept = ref lo in
              for e = lo to lo + opt_len.(r) - 1 do
                if not (opt_cls.(e) = j && opt_cid.(e) = c') then begin
                  opt_cls.(!kept) <- opt_cls.(e);
                  opt_cid.(!kept) <- opt_cid.(e);
                  incr kept
                end
              done;
              opt_len.(r) <- !kept - lo
            end)
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

  (* harvest (post-hoc verification, free) *)
  let members =
    Array.init classes (fun i ->
        let acc = ref [] in
        for r = n - 1 downto 0 do
          if member.(i).(r) then acc := r :: !acc
        done;
        Array.of_list !acc)
  in
  let connected =
    Array.init classes (fun i ->
        let ms = members.(i) in
        Array.length ms > 0
        &&
        let in_set v = member.(i).(v) in
        let dist = Graphs.Traversal.distances_within g in_set ms.(0) in
        Array.for_all (fun r -> dist.(r) >= 0) ms)
  in
  let dominating =
    Array.init classes (fun i ->
        Graphs.Domination.is_dominating g (fun v -> member.(i).(v)))
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
        bridging_edges_per_layer = List.rev !stats_bridging;
      };
  }

let extract_trees net (result : Cds_packing.t) =
  let g = Net.graph net in
  let n = Graph.n g in
  let valid = Cds_packing.valid_classes result in
  let member = Array.make_matrix result.Cds_packing.classes n false in
  Array.iteri
    (fun i ms -> Array.iter (fun r -> member.(i).(r) <- true) ms)
    result.Cds_packing.members;
  (* one kernel and one marked subgraph, refilled per class *)
  let kernel = Congest.Dist_mst.kernel net in
  let eu, ev = Graph.csr_endpoints g in
  let weights = Array.make (Graph.m g) 0 in
  let sub =
    {
      Congest.Components.nodes = Array.make n false;
      edges = Array.make (Graph.m g) false;
    }
  in
  let trees =
    List.map
      (fun cls ->
        let active = member.(cls) in
        Array.blit active 0 sub.nodes 0 n;
        Array.iteri
          (fun e _ -> sub.edges.(e) <- active.(eu.(e)) && active.(ev.(e)))
          sub.edges;
        let ids = Congest.Dist_mst.forest_ids kernel sub ~weights in
        {
          Packing.cls;
          vertices = result.Cds_packing.members.(cls);
          edges = Array.fold_right (fun e acc -> (eu.(e), ev.(e)) :: acc) ids [];
        })
      valid
  in
  Packing.uniform g trees

let pack ?seed net ~k =
  let n = Net.n net in
  run ?seed net
    ~classes:(Cds_packing.default_classes ~k)
    ~layers:(Cds_packing.default_layers ~n)
