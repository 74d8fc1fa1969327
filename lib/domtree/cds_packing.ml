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

(* What a type-3 node, or all type-3 neighbors of one class around a
   real, saw of the old components: nothing ([no_witness]), one root
   c >= 0, or two or more ([any_witness]), which witnesses every
   component. *)
let no_witness = -1
let any_witness = -2

(* Mutable algorithm state: per-class incremental component tracking.
   The (class, root) sets of one layer are flat [t * n] stamp rows,
   indexed [cls * n + root]. *)
type state = {
  g : Graph.t;
  vg : Virtual_graph.t;
  t : int;
  rng : Random.State.t;
  class_of : int array; (* vid -> class or -1 *)
  in_class : bool array array; (* class -> real -> member? *)
  uf : Union_find.t array; (* class -> union-find over reals *)
  classes_of_real : int list array; (* real -> distinct classes, ascending *)
  components : int array; (* class -> number of components *)
  seen : int array; (* (class, root) -> epoch it was last listed in *)
  mutable epoch : int;
  deactivated : int array; (* (class, root) -> layer it was deactivated in *)
  matched : int array; (* (class, root) -> layer it was matched in *)
  root_of : int array; (* (class, real) -> component root, per layer *)
  (* step 2c scratch around one real, per class *)
  visited : int array; (* epoch the class was last seen around the real *)
  comps : int list array; (* its components, as neighborhood_components *)
  witness : int array; (* what its type-3 neighbors saw *)
}

let make_state ?(seed = 42) g vg t =
  let n = Graph.n g in
  {
    g;
    vg;
    t;
    rng = Random.State.make [| seed; n; t |];
    class_of = Array.make (Virtual_graph.count vg) (-1);
    in_class = Array.init t (fun _ -> Array.make n false);
    uf = Array.init t (fun _ -> Union_find.create n);
    classes_of_real = Array.make n [];
    components = Array.make t 0;
    seen = Array.make (t * n) (-1);
    epoch = 0;
    deactivated = Array.make (t * n) (-1);
    matched = Array.make (t * n) (-1);
    root_of = Array.make (t * n) (-1);
    visited = Array.make t (-1);
    comps = Array.make t [];
    witness = Array.make t no_witness;
  }

let rec insert_sorted x = function
  | y :: rest when y < x -> y :: insert_sorted x rest
  | l -> x :: l

(* Register the (already recorded in class_of) assignment of the virtual
   node on [real] to class [i], merging components incrementally. *)
let add_member st ~real ~cls =
  if not st.in_class.(cls).(real) then begin
    st.in_class.(cls).(real) <- true;
    st.classes_of_real.(real) <- insert_sorted cls st.classes_of_real.(real);
    st.components.(cls) <- st.components.(cls) + 1;
    Array.iter
      (fun u ->
        if st.in_class.(cls).(u) && Union_find.union st.uf.(cls) real u then
          st.components.(cls) <- st.components.(cls) - 1)
      (Graph.neighbors st.g real)
  end

let assign st ~vid ~cls =
  st.class_of.(vid) <- cls;
  add_member st ~real:(Virtual_graph.real_of st.vg vid) ~cls

let random_class st = Random.State.int st.rng st.t

let next_epoch st =
  st.epoch <- st.epoch + 1;
  st.epoch

(* The components are frozen from the start of a layer until its
   commit, so each member's root is looked up once per layer. *)
let refresh_roots st =
  let n = Graph.n st.g in
  Array.iteri
    (fun u classes ->
      List.iter
        (fun i -> st.root_of.((i * n) + u) <- Union_find.find st.uf.(i) u)
        classes)
    st.classes_of_real

(* Distinct component roots of class [i] within the closed neighborhood
   of real vertex [r] (same-real adjacency of the virtual graph makes r
   itself count), most recently found first. *)
let neighborhood_components st ~cls ~real =
  let n = Graph.n st.g in
  let epoch = next_epoch st in
  let acc = ref [] in
  let consider u =
    if st.in_class.(cls).(u) then begin
      let root = st.root_of.((cls * n) + u) in
      if st.seen.((cls * n) + root) <> epoch then begin
        st.seen.((cls * n) + root) <- epoch;
        acc := root :: !acc
      end
    end
  in
  consider real;
  Array.iter consider (Graph.neighbors st.g real);
  !acc

(* Total excess component count M = sum over classes of (N_i - 1). *)
let excess st =
  Array.fold_left (fun total c -> if c >= 1 then total + c - 1 else total) 0
    st.components

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* The bridging edges (i, c) of the type-2 node on [r], as (class, root)
   indices [i * n + c], most recent first. Classes are taken in order
   of first appearance over [r; neighbors r] (each vertex's classes
   ascending), and within a class in neighborhood_components order;
   (i, c) is an edge when component c is not deactivated and some
   type-3 neighbor of class i witnesses another component (condition
   (c)). One pass over N[r] finds every class's components, a second
   reads the witnesses. *)
let bridging_edges st ~layer ~class3 ~msg3 r =
  let n = Graph.n st.g in
  let epoch = next_epoch st in
  let order = ref [] in
  let visit u =
    List.iter
      (fun i ->
        if st.visited.(i) <> epoch then begin
          st.visited.(i) <- epoch;
          st.comps.(i) <- [];
          st.witness.(i) <- no_witness;
          order := i :: !order
        end;
        let root = st.root_of.((i * n) + u) in
        if st.seen.((i * n) + root) <> epoch then begin
          st.seen.((i * n) + root) <- epoch;
          st.comps.(i) <- root :: st.comps.(i)
        end)
      st.classes_of_real.(u)
  in
  let witness w =
    let i = class3.(w) in
    let c = msg3.(w) in
    if st.visited.(i) = epoch && c <> no_witness then begin
      let seen = st.witness.(i) in
      if seen = no_witness then st.witness.(i) <- c
      else if c = any_witness || (seen >= 0 && seen <> c) then
        st.witness.(i) <- any_witness
    end
  in
  let nbrs = Graph.neighbors st.g r in
  visit r;
  Array.iter visit nbrs;
  witness r;
  Array.iter witness nbrs;
  List.fold_left
    (fun acc i ->
      let seen = st.witness.(i) in
      List.fold_left
        (fun acc c ->
          if
            (seen = any_witness || (seen >= 0 && seen <> c))
            && st.deactivated.((i * n) + c) <> layer
          then ((i * n) + c) :: acc
          else acc)
        acc st.comps.(i))
    [] (List.rev !order)

(* One recursive step: assign classes to the virtual nodes of layer
   [new_layer] given the components of layers < new_layer. *)
let assign_layer st ~new_layer =
  let n = Graph.n st.g in
  let vg = st.vg in
  refresh_roots st;
  (* 1. type-1 and type-3 new nodes pick random classes (recorded but not
        yet merged into the component structure: the bridging graph is
        about OLD components). *)
  let class1 = Array.init n (fun _ -> random_class st) in
  let class3 = Array.init n (fun _ -> random_class st) in
  (* 2a. deactivation by type-1 connectors: components of class i seen
         (>= 2 at once) from a type-1 new node of class i. *)
  for r = 0 to n - 1 do
    let i = class1.(r) in
    match neighborhood_components st ~cls:i ~real:r with
    | _ :: _ :: _ as comps ->
      List.iter (fun root -> st.deactivated.((i * n) + root) <- new_layer) comps
    | _ -> ()
  done;
  (* 2b. type-3 messages *)
  let msg3 =
    Array.init n (fun r ->
        match neighborhood_components st ~cls:class3.(r) ~real:r with
        | [] -> no_witness
        | [ root ] -> root
        | _ :: _ :: _ -> any_witness)
  in
  (* 2c. bridging adjacency for each type-2 new node (one per real) *)
  let listv = Array.init n (bridging_edges st ~layer:new_layer ~class3 ~msg3) in
  let bridging_edge_count =
    Array.fold_left (fun acc l -> acc + List.length l) 0 listv
  in
  (* 3. greedy maximal matching between type-2 nodes and components *)
  let matched = ref 0 in
  let class2 = Array.make n (-1) in
  let order = Array.init n (fun r -> r) in
  shuffle st.rng order;
  Array.iter
    (fun r ->
      let options = Array.of_list listv.(r) in
      shuffle st.rng options;
      Array.iter
        (fun key ->
          if class2.(r) < 0 && st.matched.(key) <> new_layer then begin
            st.matched.(key) <- new_layer;
            class2.(r) <- key / n;
            incr matched
          end)
        options;
      if class2.(r) < 0 then class2.(r) <- random_class st)
    order;
  (* 4. commit the whole layer *)
  for r = 0 to n - 1 do
    assign st ~vid:(Virtual_graph.vid vg ~real:r ~layer:new_layer ~vtype:1)
      ~cls:class1.(r);
    assign st ~vid:(Virtual_graph.vid vg ~real:r ~layer:new_layer ~vtype:2)
      ~cls:class2.(r);
    assign st ~vid:(Virtual_graph.vid vg ~real:r ~layer:new_layer ~vtype:3)
      ~cls:class3.(r)
  done;
  (!matched, bridging_edge_count)

let run ?(seed = 42) ?jumpstart g ~classes ~layers =
  if classes < 1 then invalid_arg "Cds_packing.run: classes < 1";
  let jumpstart = match jumpstart with Some j -> j | None -> layers / 2 in
  if jumpstart < 1 || jumpstart > layers then
    invalid_arg "Cds_packing.run: jumpstart out of range";
  let vg = Virtual_graph.create g ~layers in
  let st = make_state ~seed g vg classes in
  let n = Graph.n g in
  (* jump-start: layers 1..jumpstart (default L/2), all types random *)
  for layer = 1 to jumpstart do
    for r = 0 to n - 1 do
      for vtype = 1 to 3 do
        assign st ~vid:(Virtual_graph.vid vg ~real:r ~layer ~vtype)
          ~cls:(random_class st)
      done
    done
  done;
  let excess0 = excess st in
  let stats_excess = ref [ (jumpstart, excess0) ] in
  let stats_matched = ref [] in
  let stats_bridging = ref [] in
  for new_layer = jumpstart + 1 to layers do
    let matched, bridging = assign_layer st ~new_layer in
    stats_excess := (new_layer, excess st) :: !stats_excess;
    stats_matched := (new_layer, matched) :: !stats_matched;
    stats_bridging := (new_layer, bridging) :: !stats_bridging
  done;
  (* harvest per-class results *)
  let members =
    Array.init classes (fun i ->
        let acc = ref [] in
        for r = n - 1 downto 0 do
          if st.in_class.(i).(r) then acc := r :: !acc
        done;
        Array.of_list !acc)
  in
  let connected =
    Array.init classes (fun i ->
        let ms = members.(i) in
        Array.length ms > 0
        &&
        let root = Union_find.find st.uf.(i) ms.(0) in
        Array.for_all (fun r -> Union_find.find st.uf.(i) r = root) ms)
  in
  let dominating =
    Array.init classes (fun i ->
        Graphs.Domination.is_dominating g (fun v -> st.in_class.(i).(v)))
  in
  {
    vg;
    classes;
    class_of = st.class_of;
    members;
    connected;
    dominating;
    stats =
      {
        excess_after_layer = List.rev !stats_excess;
        matched_per_layer = List.rev !stats_matched;
        bridging_edges_per_layer = List.rev !stats_bridging;
      };
  }

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
