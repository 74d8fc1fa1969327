(* Reference copy of the quadratic central CDS packing
   ([Cds_packing.run] before its per-(real, class) rewrite), kept as the
   oracle of a differential property. It must make the same RNG draws
   and reach the same result as [Domtree.Cds_packing.run]. *)

module Graph = Graphs.Graph
module Union_find = Graphs.Union_find
module Virtual_graph = Domtree.Virtual_graph
module Cds_packing = Domtree.Cds_packing

(* Mutable algorithm state: per-class incremental component tracking. *)
type state = {
  g : Graph.t;
  vg : Virtual_graph.t;
  t : int;
  rng : Random.State.t;
  class_of : int array; (* vid -> class or -1 *)
  in_class : bool array array; (* class -> real -> member? *)
  uf : Union_find.t array; (* class -> union-find over reals *)
  classes_of_real : int list array; (* real -> distinct classes, unsorted *)
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
  }

(* Register the (already recorded in class_of) assignment of the virtual
   node on [real] to class [i], merging components incrementally. *)
let add_member st ~real ~cls =
  if not st.in_class.(cls).(real) then begin
    st.in_class.(cls).(real) <- true;
    st.classes_of_real.(real) <- cls :: st.classes_of_real.(real);
    Array.iter
      (fun u ->
        if st.in_class.(cls).(u) then ignore (Union_find.union st.uf.(cls) real u))
      (Graph.neighbors st.g real)
  end

let assign st ~vid ~cls =
  st.class_of.(vid) <- cls;
  add_member st ~real:(Virtual_graph.real_of st.vg vid) ~cls

let random_class st = Random.State.int st.rng st.t

(* Distinct component roots of class [i] within the closed neighborhood
   of real vertex [r] (same-real adjacency of the virtual graph makes r
   itself count). *)
let neighborhood_components st ~cls ~real =
  let acc = ref [] in
  let consider u =
    if st.in_class.(cls).(u) then begin
      let root = Union_find.find st.uf.(cls) u in
      if not (List.mem root !acc) then acc := root :: !acc
    end
  in
  consider real;
  Array.iter consider (Graph.neighbors st.g real);
  !acc

(* Total excess component count M = sum over classes of (N_i - 1). *)
let excess st =
  let total = ref 0 in
  for i = 0 to st.t - 1 do
    let roots = Hashtbl.create 16 in
    Array.iteri
      (fun r inside ->
        if inside then Hashtbl.replace roots (Union_find.find st.uf.(i) r) ())
      st.in_class.(i);
    let c = Hashtbl.length roots in
    if c >= 1 then total := !total + (c - 1)
  done;
  !total

type type3_msg =
  | Empty
  | One of int (* component root *)
  | Connector

let shuffle rng arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

(* One recursive step: assign classes to the virtual nodes of layer
   [new_layer] given the components of layers < new_layer. *)
let assign_layer st ~new_layer =
  let n = Graph.n st.g in
  let vg = st.vg in
  (* 1. type-1 and type-3 new nodes pick random classes (recorded but not
        yet merged into the component structure: the bridging graph is
        about OLD components). *)
  let class1 = Array.init n (fun _ -> random_class st) in
  let class3 = Array.init n (fun _ -> random_class st) in
  (* 2a. deactivation by type-1 connectors: components of class i seen
         (>= 2 at once) from a type-1 new node of class i. *)
  let deactivated = Hashtbl.create 64 in
  for r = 0 to n - 1 do
    let i = class1.(r) in
    let comps = neighborhood_components st ~cls:i ~real:r in
    if List.length comps >= 2 then
      List.iter (fun root -> Hashtbl.replace deactivated (i, root) ()) comps
  done;
  (* 2b. type-3 messages *)
  let msg3 =
    Array.init n (fun r ->
        let i = class3.(r) in
        match neighborhood_components st ~cls:i ~real:r with
        | [] -> Empty
        | [ root ] -> One root
        | _ :: _ :: _ -> Connector)
  in
  (* 2c. bridging adjacency for each type-2 new node (one per real) *)
  let bridging_edge_count = ref 0 in
  let listv =
    Array.init n (fun r ->
        (* classes present around r *)
        let acc = ref [] in
        let add_for u =
          List.iter
            (fun i ->
              let comps = neighborhood_components st ~cls:i ~real:r in
              List.iter
                (fun c ->
                  if
                    (not (Hashtbl.mem deactivated (i, c)))
                    && not (List.mem (i, c) !acc)
                  then begin
                    (* condition (c): some type-3 neighbor w of class i
                       witnessing another component *)
                    let witnessed = ref false in
                    let check_w rw =
                      if (not !witnessed) && class3.(rw) = i then
                        match msg3.(rw) with
                        | Empty -> ()
                        | Connector -> witnessed := true
                        | One c' -> if c' <> c then witnessed := true
                    in
                    check_w r;
                    Array.iter check_w (Graph.neighbors st.g r);
                    if !witnessed then begin
                      acc := (i, c) :: !acc;
                      incr bridging_edge_count
                    end
                  end)
                comps)
            (List.sort_uniq Int.compare st.classes_of_real.(u))
        in
        add_for r;
        Array.iter add_for (Graph.neighbors st.g r);
        !acc)
  in
  (* 3. greedy maximal matching between type-2 nodes and components *)
  let matched_component = Hashtbl.create 64 in
  let matched = ref 0 in
  let class2 = Array.make n (-1) in
  let order = shuffle st.rng (Array.init n (fun r -> r)) in
  Array.iter
    (fun r ->
      let options = shuffle st.rng (Array.of_list listv.(r)) in
      let chosen = ref None in
      Array.iter
        (fun (i, c) ->
          if !chosen = None && not (Hashtbl.mem matched_component (i, c)) then begin
            Hashtbl.replace matched_component (i, c) ();
            chosen := Some i;
            incr matched
          end)
        options;
      match !chosen with
      | Some i -> class2.(r) <- i
      | None -> class2.(r) <- random_class st)
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
  (!matched, !bridging_edge_count)

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
    Cds_packing.vg;
    classes;
    class_of = st.class_of;
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
