module Graph = Graphs.Graph
module Tree_check = Graphs.Tree_check

type witness = {
  w_class : int;
  w_vertices : int list;
  w_edges : (int * int) list;
}

type t = {
  c_classes_requested : int;
  c_retained : int list;
  c_dropped : int list;
  c_witnesses : witness list;
  c_k : int;
  c_target : int;
  c_live : int;
  c_max_load : int;
}

let ceil_lg n =
  int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.))

let target ~k ~n = max 1 (k / (3 * max 1 (ceil_lg n)))

(* Live members of each class, ascending. Out-of-range class ids in a
   membership list are ignored here and reported by [check]. *)
let class_members ~live n ~memberships ~classes =
  let members = Array.make classes [] in
  for r = n - 1 downto 0 do
    if live r then
      List.iter
        (fun i -> if i >= 0 && i < classes then members.(i) <- r :: members.(i))
        (memberships r)
  done;
  members

(* Deterministic BFS inside one class: root = smallest member, neighbors
   scanned in Graph.neighbors' sorted order. Returns (reached, tree
   edges as (min,max) pairs in edge-id order). *)
let bfs_tree g ~in_class root =
  let edges = ref [] in
  let visited = Array.make (Graph.n g) false in
  let q = Queue.create () in
  visited.(root) <- true;
  Queue.add root q;
  let count = ref 1 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Graph.iter_incident g u (fun v e ->
        if in_class.(v) && not visited.(v) then begin
          visited.(v) <- true;
          incr count;
          edges := e :: !edges;
          Queue.add v q
        end)
  done;
  (!count, List.map (Graph.edge_endpoints g) (List.sort Int.compare !edges))

let dominates ~live g ~in_class =
  let n = Graph.n g in
  let ok = ref true in
  for r = 0 to n - 1 do
    if
      live r
      && (not in_class.(r))
      && not (Array.exists (fun u -> in_class.(u)) (Graph.neighbors g r))
    then ok := false
  done;
  !ok

let build ?(live = fun _ -> true) g ~memberships ~classes ~k =
  let n = Graph.n g in
  let members = class_members ~live n ~memberships ~classes in
  let retained = ref [] in
  let dropped = ref [] in
  let witnesses = ref [] in
  for i = classes - 1 downto 0 do
    match members.(i) with
    | [] -> dropped := i :: !dropped
    | root :: _ as ms ->
      let in_class = Array.make n false in
      List.iter (fun u -> in_class.(u) <- true) ms;
      let reached, edges = bfs_tree g ~in_class root in
      if reached = List.length ms && dominates ~live g ~in_class then begin
        retained := i :: !retained;
        witnesses :=
          { w_class = i; w_vertices = ms; w_edges = edges } :: !witnesses
      end
      else dropped := i :: !dropped
  done;
  let retained_set = Array.make (max 1 classes) false in
  List.iter (fun i -> retained_set.(i) <- true) !retained;
  let c_live = ref 0 in
  let max_load = ref 0 in
  for r = 0 to n - 1 do
    if live r then begin
      incr c_live;
      let load =
        List.length
          (List.filter
             (fun i -> i >= 0 && i < classes && retained_set.(i))
             (memberships r))
      in
      if load > !max_load then max_load := load
    end
  done;
  {
    c_classes_requested = classes;
    c_retained = !retained;
    c_dropped = !dropped;
    c_witnesses = !witnesses;
    c_k = k;
    c_target = target ~k ~n;
    c_live = !c_live;
    c_max_load = !max_load;
  }

let degraded t = List.length t.c_retained < t.c_classes_requested
let meets_target t = List.length t.c_retained >= t.c_target
let retained_count t = List.length t.c_retained

let check ?(seed = 11) ?(live = fun _ -> true) g ~memberships t =
  let n = Graph.n g in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (* 1. bookkeeping: retained + dropped partition the requested range *)
  if
    List.sort Int.compare (t.c_retained @ t.c_dropped)
    <> List.init t.c_classes_requested Fun.id
  then
    err "retained/dropped do not partition the %d requested classes"
      t.c_classes_requested;
  if List.map (fun w -> w.w_class) t.c_witnesses <> t.c_retained then
    err "witness list does not mirror the retained classes";
  (* 2. witness structural validity *)
  let members = class_members ~live n ~memberships ~classes:t.c_classes_requested in
  let tree = Tree_check.create g in
  List.iter
    (fun w ->
      let i = w.w_class in
      match w.w_vertices with
      | [] -> err "class %d: empty witness" i
      | root :: _ as vs ->
        if List.sort_uniq Int.compare vs <> vs then
          err "class %d: witness vertices not sorted and duplicate-free" i;
        List.iter
          (fun v ->
            if v < 0 || v >= n then
              err "class %d: witness vertex %d out of range" i v
            else if not (live v) then
              err "class %d: witness vertex %d is dead" i v)
          vs;
        if i >= 0 && i < t.c_classes_requested && vs <> members.(i) then
          err "class %d: witness vertices differ from the class's live members"
            i;
        if List.length w.w_edges <> List.length vs - 1 then
          err "class %d: %d edges over %d vertices is not a tree" i
            (List.length w.w_edges) (List.length vs);
        Tree_check.load tree (Array.of_list vs);
        List.iter
          (fun (u, v) ->
            match Tree_check.edge tree u v with
            | Off_graph ->
              err "class %d: witness edge (%d,%d) is not a graph edge" i u v
            | Leaves_set ->
              err "class %d: witness edge (%d,%d) leaves the class" i u v
            | Cycle | Joined -> ())
          w.w_edges;
        List.iter
          (fun v ->
            if
              Tree_check.mem tree v && Tree_check.mem tree root
              && not (Tree_check.same tree v root)
            then err "class %d: witness edges do not span vertex %d" i v)
          vs)
    t.c_witnesses;
  (* 3. accounting honesty *)
  let c_live = ref 0 in
  for r = 0 to n - 1 do
    if live r then incr c_live
  done;
  if t.c_live <> !c_live then
    err "live-count mismatch: certificate says %d, graph has %d" t.c_live
      !c_live;
  if t.c_target <> target ~k:t.c_k ~n then
    err "target mismatch: certificate says %d, target k=%d n=%d gives %d"
      t.c_target t.c_k n
      (target ~k:t.c_k ~n);
  let retained_set = Array.make (max 1 t.c_classes_requested) false in
  List.iter
    (fun i ->
      if i >= 0 && i < t.c_classes_requested then retained_set.(i) <- true)
    t.c_retained;
  let max_load = ref 0 in
  for r = 0 to n - 1 do
    if live r then begin
      let load =
        List.length
          (List.filter
             (fun i ->
               i >= 0 && i < t.c_classes_requested && retained_set.(i))
             (memberships r))
      in
      if load > !max_load then max_load := load
    end
  done;
  if t.c_max_load <> !max_load then
    err "max-load mismatch: certificate says %d, memberships give %d"
      t.c_max_load !max_load;
  (* 4. the Appendix E tester over the retained classes (remapped to a
        contiguous range), on the live graph *)
  (match t.c_retained with
  | [] -> ()
  | retained ->
    let idx = Array.make (max 1 t.c_classes_requested) (-1) in
    List.iteri
      (fun j i ->
        if i >= 0 && i < t.c_classes_requested then idx.(i) <- j)
      retained;
    let mem' r =
      List.filter_map
        (fun i ->
          if i >= 0 && i < t.c_classes_requested && idx.(i) >= 0 then
            Some idx.(i)
          else None)
        (memberships r)
    in
    let o =
      Tester.run_centralized ~seed ~live g ~memberships:mem'
        ~classes:(List.length retained)
        ~detection_rounds:(Tester.default_detection_rounds ~n)
    in
    if not o.Tester.pass then
      err "Tester rejects the retained classes (domination %b, connectivity %b)"
        o.Tester.domination_ok o.Tester.connectivity_ok);
  match List.rev !errs with [] -> Ok () | es -> Error es

let pp ppf t =
  Format.fprintf ppf
    "certificate: %d/%d classes retained (floor %d, k=%d), %d live nodes, \
     max load %d%s%s"
    (retained_count t) t.c_classes_requested t.c_target t.c_k t.c_live
    t.c_max_load
    (if degraded t then " [degraded]" else "")
    (if meets_target t then "" else " [below floor]")
