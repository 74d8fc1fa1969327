module Graph = Graphs.Graph
module Union_find = Graphs.Union_find

type component = {
  cls : int;
  id : int;
  members : int list;
  active : bool;
}

type t = {
  components : component list;
  edges : (int * (int * int)) list;
}

(* by class, then id: the components of one class are disjoint, so
   their ids (minimum members) differ and no other field is reached *)
let compare_component a b =
  match Int.compare a.cls b.cls with 0 -> Int.compare a.id b.id | c -> c

let compare_edge (r1, (i1, c1)) (r2, (i2, c2)) =
  match Int.compare r1 r2 with
  | 0 -> ( match Int.compare i1 i2 with 0 -> Int.compare c1 c2 | c -> c)
  | c -> c

let build g ~classes ~members ~class1 ~class3 =
  let n = Graph.n g in
  (* components of each class's old members *)
  let ufs = Array.init classes (fun _ -> Union_find.create n) in
  Graph.iter_edges
    (fun u v ->
      for i = 0 to classes - 1 do
        if members i u && members i v then ignore (Union_find.union ufs.(i) u v)
      done)
    g;
  let comp_id i v = Union_find.find ufs.(i) v in
  (* distinct component ids of class i within the closed neighborhood *)
  let nbhd_components i r =
    let acc = ref [] in
    let consider u =
      if members i u then begin
        let c = comp_id i u in
        if not (List.mem c !acc) then acc := c :: !acc
      end
    in
    consider r;
    Array.iter consider (Graph.neighbors g r);
    !acc
  in
  (* (b): deactivation by type-1 connectors *)
  let deactivated = Hashtbl.create 16 in
  for r = 0 to n - 1 do
    let i = class1.(r) in
    let comps = nbhd_components i r in
    if List.length comps >= 2 then
      List.iter (fun c -> Hashtbl.replace deactivated (i, c) ()) comps
  done;
  (* type-3 messages *)
  let msg3 =
    Array.init n (fun r ->
        let i = class3.(r) in
        match nbhd_components i r with
        | [] -> `Empty
        | [ c ] -> `One c
        | _ :: _ :: _ -> `Connector)
  in
  (* (a) + (c): edges of the bridging graph *)
  let edges = ref [] in
  for r = 0 to n - 1 do
    for i = 0 to classes - 1 do
      List.iter
        (fun c ->
          if not (Hashtbl.mem deactivated (i, c)) then begin
            let witnessed = ref false in
            let check rw =
              if (not !witnessed) && class3.(rw) = i then
                match msg3.(rw) with
                | `Connector -> witnessed := true
                | `One c' -> if c' <> c then witnessed := true
                | `Empty -> ()
            in
            check r;
            Array.iter check (Graph.neighbors g r);
            if !witnessed then edges := (r, (i, c)) :: !edges
          end)
        (nbhd_components i r)
    done
  done;
  (* enumerate the components *)
  let comp_members = Hashtbl.create 16 in
  for v = n - 1 downto 0 do
    for i = 0 to classes - 1 do
      if members i v then begin
        let key = (i, comp_id i v) in
        let cur =
          match Hashtbl.find_opt comp_members key with Some l -> l | None -> []
        in
        Hashtbl.replace comp_members key (v :: cur)
      end
    done
  done;
  let components =
    Hashtbl.fold
      (fun (i, c) ms acc ->
        {
          cls = i;
          id = List.fold_left min max_int ms;
          members = ms;
          active = not (Hashtbl.mem deactivated (i, c));
        }
        :: acc)
      comp_members []
    |> List.sort compare_component
  in
  (* canonicalize edge component ids to the minimum member *)
  let canon = Hashtbl.create 16 in
  (* lint: allow hashtbl-order — one write per distinct key, order-free *)
  Hashtbl.iter
    (fun (i, c) ms -> Hashtbl.replace canon (i, c) (List.fold_left min max_int ms))
    comp_members;
  let edges =
    List.rev_map
      (fun (r, (i, c)) -> (r, (i, Hashtbl.find canon (i, c))))
      !edges
    |> List.sort_uniq compare_edge
  in
  { components; edges }

let greedy_matching t =
  let taken_node = Hashtbl.create 16 in
  let taken_comp = Hashtbl.create 16 in
  List.filter
    (fun (r, key) ->
      if Hashtbl.mem taken_node r || Hashtbl.mem taken_comp key then false
      else begin
        Hashtbl.replace taken_node r ();
        Hashtbl.replace taken_comp key ();
        true
      end)
    t.edges

let pp ppf t =
  Format.fprintf ppf "@[<v>bridging graph: %d components, %d edges@,"
    (List.length t.components) (List.length t.edges);
  List.iter
    (fun c ->
      Format.fprintf ppf "component (class %d, id %d)%s: {%s}@," c.cls c.id
        (if c.active then "" else " [deactivated]")
        (String.concat "," (List.map string_of_int c.members)))
    t.components;
  List.iter
    (fun (r, (i, c)) ->
      Format.fprintf ppf "type-2 node %d -- (class %d, component %d)@," r i c)
    t.edges;
  Format.fprintf ppf "@]"
