(* Reference copy of the Appendix B packer ([Dist_packing.run] before
   B.3 stopped at its first silent proposal round and the layer loop
   moved to per-run scratch), kept as the oracle of a differential
   property. It runs every B.3 stage to the [matching_stages] cap, floods
   the B.2a flags with the sender id as tiebreak and logs all of status
   sweep #2. Like the packer, a node hears its own B.3 proposal and its
   own accept announcements. [Domtree.Dist_packing.run] must return the
   same packing and statistics in no more rounds. *)

module Graph = Graphs.Graph
module Net = Congest.Net
module Union_find = Graphs.Union_find
module Multiflood = Domtree.Multiflood
module Virtual_graph = Domtree.Virtual_graph
module Cds_packing = Domtree.Cds_packing

let matching_stages ~n =
  max 4 (2 * int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.)))

(* Message tags for the single-round broadcasts of B.2 *)
let tag_connector = 0
let tag_one = 1

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
  (* per-node local knowledge: the distinct classes of own virtual nodes *)
  let my_classes = Array.make n [] in
  let assign ~real ~layer ~vtype ~cls =
    class_of.(Virtual_graph.vid vg ~real ~layer ~vtype) <- cls;
    if not (List.mem cls my_classes.(real)) then
      my_classes.(real) <- cls :: my_classes.(real)
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
     the same membership data (costs no rounds) *)
  let excess () =
    let ufs = Array.init classes (fun _ -> Union_find.create n) in
    let member = Array.make_matrix classes n false in
    for r = 0 to n - 1 do
      List.iter (fun i -> member.(i).(r) <- true) my_classes.(r)
    done;
    Graph.iter_edges
      (fun u v ->
        for i = 0 to classes - 1 do
          if member.(i).(u) && member.(i).(v) then
            ignore (Union_find.union ufs.(i) u v)
        done)
      g;
    (* a union only joins members, so every member's root is a member:
       the components of class i are its members that are roots *)
    let total = ref 0 in
    for i = 0 to classes - 1 do
      let roots = ref 0 in
      for r = 0 to n - 1 do
        if member.(i).(r) && Union_find.find ufs.(i) r = r then incr roots
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
  let csr_off = Graph.csr_offsets g and csr_adj = Graph.csr_neighbors g in
  (* per-receiver scratch of the B.2c scans *)
  let w_conn = Array.make classes false in
  let w_one = Array.make classes (-1) in
  let w_many = Array.make classes false in
  let seen_at = Array.make n (-1) in
  (* the classes of the type-3 messages the receiver heard, each once *)
  let heard = Array.make classes 0 and n_heard = ref 0 in
  let hear m =
    let i = m.(1) in
    if (not w_conn.(i)) && w_one.(i) < 0 then begin
      heard.(!n_heard) <- i;
      incr n_heard
    end;
    if m.(0) = tag_connector then w_conn.(i) <- true
    else if w_one.(i) < 0 then w_one.(i) <- m.(2)
    else if w_one.(i) <> m.(2) then w_many.(i) <- true
  in
  let hear3 _ _ _ m = hear m in
  let witnessed i c =
    w_conn.(i) || w_many.(i) || (w_one.(i) >= 0 && w_one.(i) <> c)
  in

  for new_layer = jumpstart + 1 to layers do
    (* local random choices for type-1 and type-3 new nodes *)
    let class1 = Array.init n (fun _ -> random_class ()) in
    let class3 = Array.init n (fun _ -> random_class ()) in
    (* the old nodes' memberships are fixed until the layer commits *)
    let sl = Multiflood.layout ~n memberships in
    let nslots = Array.length sl.Multiflood.cls in
    let slot r i = Multiflood.find sl r i in
    (* the receiver's class->slot row for the B.2a and B.3b deliveries,
       sized by [classes] rather than by the classes the layout holds *)
    let row = Multiflood.row ~classes sl in

    (* B.1: component identification of old nodes *)
    let cid, _ = Multiflood_ref.flood_min net sl ~init:(fun r _ -> (r, r)) in
    (* status sweep #1: members announce (class, cid). A node keeps, for
       its type-1 and type-3 classes, the first cid seen in its closed
       neighborhood and whether a different one turned up. *)
    let first1 = Array.make n (-1) and many1 = Array.make n false in
    let first3 = Array.make n (-1) and many3 = Array.make n false in
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
    let deact = Array.make nslots false in
    Multiflood.iter_deliveries net sl row (fun _ _ _ m ->
        if m.(0) = tag_connector then begin
          let s = row.(m.(1)) in
          if s >= 0 then deact.(s) <- true
        end);
    (* flood the deactivation flag through each component (flag 0 wins) *)
    let flag, _ =
      Multiflood_ref.flood_min net sl ~init:(fun r s ->
          ((if deact.(s) then 0 else 1), r))
    in
    (* status sweep #2: members announce (class, cid, active?). Each
       receiver logs its deliveries in arrival order; the B.2c lists read
       the log newest first. *)
    let log_off = Array.make (n + 1) 0 in
    for r = 0 to n - 1 do
      let c = ref 0 in
      for e = csr_off.(r) to csr_off.(r + 1) - 1 do
        let u = csr_adj.(e) in
        c := !c + sl.Multiflood.off.(u + 1) - sl.Multiflood.off.(u)
      done;
      log_off.(r + 1) <- log_off.(r) + !c
    done;
    let log_cls = Array.make log_off.(n) 0 in
    let log_cid = Array.make log_off.(n) 0 in
    let log_act = Array.make log_off.(n) false in
    let log_end = Array.sub log_off 0 n in
    Multiflood.membership_sweep net sl
      ~payload:(fun _ s -> [| cid.(s); (if flag.(s) = 0 then 0 else 1) |])
      ~recv:(fun r _ i m ->
        let e = log_end.(r) in
        log_cls.(e) <- i;
        log_cid.(e) <- m.(1);
        log_act.(e) <- m.(2) = 1;
        log_end.(r) <- e + 1);

    (* B.2b: type-3 messages (one round) *)
    let msg3 =
      Array.init n (fun r ->
          let i = class3.(r) in
          if first3.(r) < 0 then None
          else if many3.(r) then Some [| tag_connector; i |]
          else Some [| tag_one; i; first3.(r) |])
    in
    Net.broadcast_round net (fun r -> msg3.(r));

    (* B.2c: type-2 neighbor lists. A type-3 message of class i audible
       at r (own included) witnesses component (i, c) if it declares a
       connector or names a component other than c. Candidates are the
       distinct active (class, cid) around r: classes descending, own
       membership first, then the logged ones newest first. They fill
       r's region of [opt_cls]/[opt_cid], which has room for one per own
       slot and one per logged delivery. *)
    let opt_base r = sl.Multiflood.off.(r) + log_off.(r) in
    let opt_cls = Array.make (nslots + log_off.(n)) 0 in
    let opt_cid = Array.make (nslots + log_off.(n)) 0 in
    let opt_len = Array.make n 0 in
    let emit r i c =
      let e = opt_base r + opt_len.(r) in
      opt_cls.(e) <- i;
      opt_cid.(e) <- c;
      opt_len.(r) <- opt_len.(r) + 1
    in
    for r = 0 to n - 1 do
      n_heard := 0;
      Option.iter hear msg3.(r);
      Net.iter_inbox net r hear3;
      let audible = Array.sub heard 0 !n_heard in
      Array.sort (fun a b -> Int.compare b a) audible;
      Array.iter
        (fun i ->
          let s = slot r i in
          let own = if s >= 0 then cid.(s) else -1 in
          if s >= 0 && flag.(s) <> 0 && witnessed i own then emit r i own;
          let stamp = (r * classes) + i in
          for e = log_end.(r) - 1 downto log_off.(r) do
            if log_cls.(e) = i then begin
              let c = log_cid.(e) in
              if c <> own && seen_at.(c) <> stamp then begin
                seen_at.(c) <- stamp;
                if log_act.(e) && witnessed i c then emit r i c
              end
            end
          done;
          w_conn.(i) <- false;
          w_one.(i) <- -1;
          w_many.(i) <- false)
        audible
    done;
    let bridging = Array.fold_left ( + ) 0 opt_len in
    Array.fill seen_at 0 n (-1);

    (* B.3: proposal-based maximal matching, Θ(log n) stages; [opt_len]
       now counts the options still open *)
    let class2 = Array.make n (-1) in
    (* members remember that their component got matched so it never
       accepts a second proposal in a later stage *)
    let locked = Array.make nslots false in
    let prop_value = Array.make n 0 in
    let prop_cls = Array.make n (-1) in
    let prop_cid = Array.make n 0 in
    let best_value = Array.make nslots (-1) in
    let best_who = Array.make nslots (-1) in
    for _stage = 1 to stages do
      (* a. proposals: one draw per open option, in list order; the
         largest (value, class, cid) wins *)
      for r = 0 to n - 1 do
        prop_cls.(r) <- -1;
        if class2.(r) < 0 then
          for e = opt_base r to opt_base r + opt_len.(r) - 1 do
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
          done
      done;
      Net.broadcast_round net (fun r ->
          if prop_cls.(r) >= 0 then
            Some [| prop_cls.(r); prop_cid.(r); prop_value.(r); r |]
          else None);
      (* b. members of still-unmatched components record the best proposal
         addressed to their component; a proposer's own membership of the
         component hears it too *)
      Array.fill best_value 0 nslots (-1);
      Array.fill best_who 0 nslots (-1);
      let offer s c value who =
        if s >= 0 && cid.(s) = c && not locked.(s) then begin
          let bv = best_value.(s) in
          if value > bv || (value = bv && who > best_who.(s)) then begin
            best_value.(s) <- value;
            best_who.(s) <- who
          end
        end
      in
      Multiflood.iter_deliveries net sl row (fun _ _ _ m ->
          offer row.(m.(0)) m.(1) m.(2) m.(3));
      for r = 0 to n - 1 do
        if prop_cls.(r) >= 0 then
          offer (slot r prop_cls.(r)) prop_cid.(r) prop_value.(r) r
      done;
      (* c. component-wide maximum via min-flood on negated values *)
      let neg, who =
        Multiflood_ref.flood_min net sl ~init:(fun _ s ->
            if best_who.(s) >= 0 then (-best_value.(s), best_who.(s))
            else (1, -1))
      in
      let accepted s = neg.(s) <= 0 && who.(s) >= 0 in
      (* d. members lock their now-matched memberships, announce the
         accepted proposal, and every listener, the members themselves
         included, drops any component it hears got matched to somebody
         else (the paper's Listv update) *)
      for s = 0 to nslots - 1 do
        if accepted s then locked.(s) <- true
      done;
      let taken r j c' value w =
        (* did my own proposal win? *)
        if prop_cls.(r) = j && prop_cid.(r) = c' && w = r && value = prop_value.(r)
        then class2.(r) <- j;
        (* either way, component (j, c') is taken now *)
        let lo = opt_base r in
        let kept = ref lo in
        for e = lo to lo + opt_len.(r) - 1 do
          if not (opt_cls.(e) = j && opt_cid.(e) = c') then begin
            opt_cls.(!kept) <- opt_cls.(e);
            opt_cid.(!kept) <- opt_cid.(e);
            incr kept
          end
        done;
        opt_len.(r) <- !kept - lo
      in
      Multiflood.membership_sweep net sl
        ~payload:(fun _ s ->
          if accepted s then [| cid.(s); -neg.(s); who.(s) |]
          else [| cid.(s); -1; -1 |])
        ~recv:(fun r _ j m -> if m.(3) >= 0 then taken r j m.(1) m.(2) m.(3));
      for r = 0 to n - 1 do
        for s = sl.Multiflood.off.(r) to sl.Multiflood.off.(r + 1) - 1 do
          if accepted s then
            taken r sl.Multiflood.cls.(s) cid.(s) (-neg.(s)) who.(s)
        done
      done
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
  let member = Array.make_matrix classes n false in
  for r = 0 to n - 1 do
    List.iter (fun i -> member.(i).(r) <- true) my_classes.(r)
  done;
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
