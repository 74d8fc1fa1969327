type tree = {
  root : int;
  parent : int array;
  depth : int array;
  height : int;
}

let bfs_tree net ~root =
  let n = Net.n net in
  let parent = Array.make n (-1) in
  let depth = Array.make n (-1) in
  parent.(root) <- root;
  depth.(root) <- 0;
  let frontier = ref [ root ] in
  let level = ref 0 in
  while !frontier <> [] do
    let is_frontier = Array.make n false in
    List.iter (fun u -> is_frontier.(u) <- true) !frontier;
    Net.broadcast_round net (fun u ->
        if is_frontier.(u) then Some [| !level |] else None);
    incr level;
    let next = ref [] in
    (* a new node adopts its first (smallest) sender *)
    Net.iter_deliveries net (fun v sender _ _ ->
        if depth.(v) < 0 then begin
          parent.(v) <- sender;
          depth.(v) <- !level;
          next := v :: !next
        end);
    frontier := !next
  done;
  let height = Array.fold_left max 0 depth in
  { root; parent; depth; height }

let flood_min net ~value ~rounds =
  let n = Net.n net in
  let current = Array.init n value in
  let adopt v _ _ (m : Net.msg) =
    if m.(0) < current.(v) then current.(v) <- m.(0)
  in
  for _ = 1 to rounds do
    Net.broadcast_round net (fun u ->
        if current.(u) = max_int then None else Some [| current.(u) |]);
    Net.iter_deliveries net adopt
  done;
  current

(* Same protocol, run through the locality sanitizer: each node's
   current minimum is carried as a (witness, value) pair, so every
   knowledge entry a node folds over is one it provably received. Two
   words per message instead of one; identical fixpoint. *)
let flood_min_checked net ~value ~rounds =
  let n = Net.n net in
  let k = Knowledge.create net ~init:(fun v -> (v, value v)) in
  let best v =
    (* fold only over learned entries; every read is checked + logged *)
    List.fold_left
      (fun ((_, bx) as b) u ->
        let (_, x) as cand = Knowledge.read k ~reader:v ~about:u in
        if x < bx then cand else b)
      (Knowledge.read k ~reader:v ~about:v)
      (List.filter (fun u -> u <> v) (Knowledge.known_to k v))
  in
  let learn v u _ (m : Net.msg) =
    Knowledge.learn k ~reader:v ~about:u (m.(0), m.(1))
  in
  for _ = 1 to rounds do
    Net.broadcast_round net (fun v ->
        let w, x = best v in
        Some [| w; x |]);
    for v = 0 to n - 1 do
      Net.iter_inbox net v learn;
      Knowledge.set_own k ~node:v (best v)
    done
  done;
  Array.init n (fun v -> snd (Knowledge.read k ~reader:v ~about:v))

(* Convergecast scheduled by depth: nodes at depth d broadcast their
   aggregate at round (height - d + 1); parents fold children values. *)
let converge net tree ~combine ~value =
  let n = Net.n net in
  let acc = Array.init n value in
  let fold v sender _ (m : Net.msg) =
    if tree.parent.(sender) = v then acc.(v) <- combine acc.(v) m.(0)
  in
  for lvl = tree.height downto 1 do
    Net.broadcast_round net (fun u ->
        if tree.depth.(u) = lvl then Some [| acc.(u) |] else None);
    Net.iter_deliveries net fold
  done;
  acc.(tree.root)

let converge_sum net tree value = converge net tree ~combine:( + ) ~value

let converge_min net tree value = converge net tree ~combine:min ~value

let broadcast_int net tree x =
  let n = Net.n net in
  let received = Array.make n None in
  received.(tree.root) <- Some x;
  for lvl = 0 to tree.height - 1 do
    Net.broadcast_round net (fun u ->
        if tree.depth.(u) = lvl then
          match received.(u) with Some v -> Some [| v |] | None -> None
        else None);
    (* a node one level down keeps its first (smallest-sender) copy *)
    Net.iter_deliveries net (fun v _ _ m ->
        if received.(v) = None && tree.depth.(v) = lvl + 1 then
          received.(v) <- Some m.(0))
  done;
  Array.map (function Some v -> v | None -> x) received

let preprocess net =
  let n = Net.n net in
  (* Leader election: flood min id. We do not yet know D, so flood with a
     doubling horizon: 2, 4, 8 ... rounds until a full extra sweep changes
     nothing anywhere. Round cost is within a constant factor of D. *)
  let current = Array.init n (fun u -> u) in
  let changed = ref true in
  let adopt v _ _ (m : Net.msg) =
    if m.(0) < current.(v) then begin
      current.(v) <- m.(0);
      changed := true
    end
  in
  while !changed do
    changed := false;
    Net.broadcast_round net (fun u -> Some [| current.(u) |]);
    Net.iter_deliveries net adopt
  done;
  let leader = current.(0) in
  let tree = bfs_tree net ~root:leader in
  let count = converge_sum net tree (fun _ -> 1) in
  assert (count = n);
  (* 2-approximation of the diameter: D <= 2 * ecc(leader) = 2 * height. *)
  let d_bound = max 1 (2 * tree.height) in
  let _ = broadcast_int net tree d_bound in
  (tree, count, d_bound)

let pipelined_upcast net tree ~items ~filter =
  let n = Net.n net in
  let queues = Array.init n (fun _ -> Queue.create ()) in
  for u = 0 to n - 1 do
    (* locally originating items also pass the local filter *)
    List.iter (fun it -> if filter u it then Queue.add it queues.(u)) (items u)
  done;
  let root_received = ref [] in
  let receive v sender _ m =
    if tree.parent.(sender) = v && filter v m then
      if v = tree.root then root_received := m :: !root_received
      else Queue.add m queues.(v)
  in
  let pending () = Array.exists (fun q -> not (Queue.is_empty q)) queues in
  while pending () do
    let heads =
      Array.mapi
        (fun u q -> if u = tree.root then None else Queue.take_opt q)
        queues
    in
    (* the root absorbs its own queued items without sending; they lead
       the result, latest first *)
    let own = queues.(tree.root) in
    root_received := List.of_seq (Queue.to_seq own) @ !root_received;
    Queue.clear own;
    Net.broadcast_round net (fun u -> heads.(u));
    Net.iter_deliveries net receive
  done;
  List.rev !root_received

let pipelined_downcast net tree items =
  let arr = Array.of_list items in
  let count = Array.length arr in
  (* item i is broadcast by depth-d nodes at round i + d (0-indexed);
     total rounds = count + height *)
  if count > 0 then
    for r = 0 to count + tree.height - 1 do
      Net.broadcast_round net (fun u ->
          let d = tree.depth.(u) in
          let i = r - d in
          if d >= 0 && i >= 0 && i < count then Some arr.(i) else None)
    done

(* Pipelined keyed aggregation. Per node: a sorted stream of own values,
   plus one incoming stream per child; the node may emit the aggregate
   for the smallest unemitted key once every child stream has advanced
   past it (children emit in increasing key order, so "advanced past"
   means delivered a larger key or closed). A closed stream is signaled
   with an end-marker item. *)
let pipelined_converge net tree ~values ~better =
  let n = Net.n net in
  let end_key = max_int in
  (* children lists *)
  let children = Array.make n [] in
  Array.iteri
    (fun v p ->
      if p >= 0 && p <> v then children.(p) <- v :: children.(p))
    tree.parent;
  (* per node: own pending values sorted by key *)
  let own =
    Array.init n (fun u ->
        ref (List.sort (fun (a, _) (b, _) -> Int.compare a b) (values u)))
  in
  (* per node: best payload per key merged so far, and per-child stream
     progress (the largest key fully delivered by that child) *)
  let collected = Array.init n (fun _ -> Hashtbl.create 8) in
  let progress = Array.init n (fun _ -> Hashtbl.create 4) in
  Array.iteri
    (fun u cs -> List.iter (fun c -> Hashtbl.replace progress.(u) c (-1)) cs)
    children;
  let merge u key payload =
    match Hashtbl.find_opt collected.(u) key with
    | Some cur -> if better payload cur then Hashtbl.replace collected.(u) key payload
    | None -> Hashtbl.replace collected.(u) key payload
  in
  let emitted_up_to = Array.make n (-1) in
  let closed = Array.make n false in
  (* a node's next emittable key: the smallest key (own or collected)
     above emitted_up_to that all children have advanced past *)
  let next_key u =
    let candidate = ref end_key in
    List.iter
      (fun (k, _) -> if k > emitted_up_to.(u) && k < !candidate then candidate := k)
      !(own.(u));
    (* lint: allow hashtbl-order — commutative min over keys *)
    Hashtbl.iter
      (fun k _ -> if k > emitted_up_to.(u) && k < !candidate then candidate := k)
      collected.(u);
    !candidate
  in
  let children_ready u key =
    List.for_all
      (fun c -> match Hashtbl.find_opt progress.(u) c with
        | Some p -> p >= key
        | None -> true)
      children.(u)
  in
  let all_children_closed u =
    List.for_all
      (fun c ->
        match Hashtbl.find_opt progress.(u) c with
        | Some p -> p = end_key
        | None -> false)
      children.(u)
  in
  let receive v sender _ (m : Net.msg) =
    if tree.parent.(sender) = v then
      if m.(0) = 1 then Hashtbl.replace progress.(v) sender end_key
      else begin
        let k = m.(1) in
        let payload = Array.sub m 2 (Array.length m - 2) in
        merge v k payload;
        Hashtbl.replace progress.(v) sender k
      end
  in
  let root_result = ref [] in
  let guard = ref 0 in
  let budget = 4 * (tree.height + n + 5) * (1 + n) in
  while (not closed.(tree.root)) && !guard < budget do
    incr guard;
    (* decide what each node emits this round *)
    let outgoing = Array.make n None in
    for u = 0 to n - 1 do
      if not closed.(u) then begin
        (* fold own values into collected up to any key (they are local) *)
        List.iter (fun (k, p) -> merge u k p) !(own.(u));
        own.(u) := [];
        let k = next_key u in
        if k < end_key && children_ready u k then begin
          let payload = Hashtbl.find collected.(u) k in
          emitted_up_to.(u) <- k;
          if u = tree.root then root_result := (k, payload) :: !root_result
          else outgoing.(u) <- Some (k, payload)
        end
        else if k = end_key && all_children_closed u then begin
          closed.(u) <- true;
          if u <> tree.root then outgoing.(u) <- Some (end_key, [||])
        end
      end
    done;
    Net.broadcast_round net (fun u ->
        match outgoing.(u) with
        | Some (k, payload) ->
          let tag = if k = end_key then 1 else 0 in
          (* lint: allow msg-budget — relayed verbatim, never concatenated:
             width is 2 + the caller's per-key payload, which the caller
             keeps within Model.words_budget (Net rejects it at runtime
             otherwise); the pipeline only picks [better], never appends *)
          Some (Array.append [| tag; (if k = end_key then 0 else k) |] payload)
        | None -> None);
    Net.iter_deliveries net receive
  done;
  if not closed.(tree.root) then
    failwith "Primitives.pipelined_converge: did not terminate";
  List.rev !root_result
