module Graph = Graphs.Graph

(* Kernel state is flat: per-node arrays by vertex, and per-edge arrays
   by edge id. Edge ids follow the canonical (min, max) lexicographic
   order, so a candidate (w, min u v, max u v) orders exactly like the
   int pair (w, edge id); the forest is one bool per edge, and scanning
   it by id yields the sorted edge list.

   Floods are send-on-change: the nodes whose value changed in a round,
   each listed once in [next], are the next round's senders. A listed
   node carries [mark = stamp + 1]; [start_round] bumps [stamp] and
   swaps [next] into [cur], so the send closures test [mark = stamp].
   Deliveries are read sender-major, from the sender's own message
   buffer, so receivers update their state in place during the walk. *)

let none = -1

let lighter (w1 : int) (e1 : int) w2 e2 = w1 < w2 || (w1 = w2 && e1 < e2)

type kernel = {
  net : Net.t;
  off : int array;
  adj : int array;
  ids : int array;
  eu : int array;
  ev : int array;
  forest : bool array;
  fdeg : int array;  (** forest edges at each node *)
  label : int array;  (** fragment label: the least id in the fragment *)
  cand : int array;  (** lightest outgoing marked edge, or [none] *)
  bw : int array;  (** least candidate [(w, a, b)] heard, [max_int] if none *)
  ba : int array;
  bb : int array;
  lbuf : Net.msg array;  (** one 1-word label message per node *)
  lout : Net.msg option array;
  tbuf : Net.msg array;  (** one 3-word [(w, a, b)] message per node *)
  tout : Net.msg option array;
  mark : int array;
  mutable stamp : int;
  mutable cur : int array;
  mutable ncur : int;
  mutable next : int array;
  mutable nnext : int;
}

let kernel net =
  let g = Net.graph net in
  let n = Graph.n g in
  let eu, ev = Graph.csr_endpoints g in
  let lbuf = Array.init n (fun _ -> [| 0 |]) in
  let tbuf = Array.init n (fun _ -> [| 0; 0; 0 |]) in
  {
    net;
    off = Graph.csr_offsets g;
    adj = Graph.csr_neighbors g;
    ids = Graph.csr_edge_ids g;
    eu;
    ev;
    forest = Array.make (Graph.m g) false;
    fdeg = Array.make n 0;
    label = Array.make n 0;
    cand = Array.make n none;
    bw = Array.make n max_int;
    ba = Array.make n max_int;
    bb = Array.make n max_int;
    lbuf;
    lout = Array.map Option.some lbuf;
    tbuf;
    tout = Array.map Option.some tbuf;
    mark = Array.make n 0;
    stamp = 0;
    cur = Array.make n 0;
    ncur = 0;
    next = Array.make n 0;
    nnext = 0;
  }

let queue k v =
  if k.mark.(v) <> k.stamp + 1 then begin
    k.mark.(v) <- k.stamp + 1;
    k.next.(k.nnext) <- v;
    k.nnext <- k.nnext + 1
  end

(* a node whose one forest edge brought its new value has no one to tell *)
let relay k v = if k.fdeg.(v) > 1 then queue k v

let start_round k =
  let c = k.cur in
  k.cur <- k.next;
  k.ncur <- k.nnext;
  k.next <- c;
  k.nnext <- 0;
  k.stamp <- k.stamp + 1

let send_label k u =
  if k.mark.(u) = k.stamp then begin
    k.lbuf.(u).(0) <- k.label.(u);
    k.lout.(u)
  end
  else None

let send_triple k u =
  if k.mark.(u) = k.stamp then begin
    let m = k.tbuf.(u) in
    m.(0) <- k.bw.(u);
    m.(1) <- k.ba.(u);
    m.(2) <- k.bb.(u);
    k.tout.(u)
  end
  else None

(* Send-on-change min-label flood over forest edges from the listed
   nodes, until no node is listed or [cap] rounds have run. Returns
   whether it went quiet. *)
let flood_labels ?(cap = max_int) k =
  let net = k.net and off = k.off and adj = k.adj and ids = k.ids in
  let forest = k.forest and label = k.label in
  let rounds = ref 0 in
  while k.nnext > 0 && !rounds < cap do
    incr rounds;
    start_round k;
    Net.broadcast_round net (send_label k);
    for i = 0 to k.ncur - 1 do
      let u = k.cur.(i) in
      let l = k.lbuf.(u).(0) in
      for s = off.(u) to off.(u + 1) - 1 do
        let v = adj.(s) in
        if forest.(ids.(s)) && l < label.(v) && Net.delivered net u s then begin
          label.(v) <- l;
          relay k v
        end
      done
    done
  done;
  k.nnext = 0

(* The same flood for the fragment's least candidate (w, a, b). *)
let flood_triples k =
  let net = k.net and off = k.off and adj = k.adj and ids = k.ids in
  let forest = k.forest and bw = k.bw and ba = k.ba and bb = k.bb in
  while k.nnext > 0 do
    start_round k;
    Net.broadcast_round net (send_triple k);
    for i = 0 to k.ncur - 1 do
      let u = k.cur.(i) in
      let m = k.tbuf.(u) in
      let w = m.(0) and a = m.(1) and b = m.(2) in
      for s = off.(u) to off.(u + 1) - 1 do
        let v = adj.(s) in
        if
          forest.(ids.(s))
          && (w < bw.(v)
             || (w = bw.(v) && (a < ba.(v) || (a = ba.(v) && b < bb.(v)))))
          && Net.delivered net u s
        then begin
          bw.(v) <- w;
          ba.(v) <- a;
          bb.(v) <- b;
          relay k v
        end
      done
    done
  done

(* One round: every marked node announces its fragment label, and each
   learns its lightest outgoing marked edge, [none] if it has none. *)
let announce k (sub : Components.marks) weights =
  let net = k.net and off = k.off and adj = k.adj and ids = k.ids in
  let label = k.label and cand = k.cand in
  Net.broadcast_round net (fun u ->
      if sub.nodes.(u) then begin
        k.lbuf.(u).(0) <- label.(u);
        k.lout.(u)
      end
      else None);
  Array.fill cand 0 (Array.length cand) none;
  for u = 0 to Array.length label - 1 do
    if sub.nodes.(u) then begin
      let l = k.lbuf.(u).(0) in
      for s = off.(u) to off.(u + 1) - 1 do
        let e = ids.(s) and v = adj.(s) in
        if sub.edges.(e) && l <> label.(v) && Net.delivered net u s then begin
          let b = cand.(v) in
          if b = none || lighter weights.(e) e weights.(b) b then cand.(v) <- e
        end
      done
    end
  done

(* Each node starts the election from its own candidate; the nodes with
   a candidate and a forest edge to tell it on open the flood. *)
let elect k weights =
  for u = 0 to Array.length k.cand - 1 do
    let e = k.cand.(u) in
    if e = none then begin
      k.bw.(u) <- max_int;
      k.ba.(u) <- max_int;
      k.bb.(u) <- max_int
    end
    else begin
      k.bw.(u) <- weights.(e);
      k.ba.(u) <- k.eu.(e);
      k.bb.(u) <- k.ev.(e);
      if k.fdeg.(u) > 0 then queue k u
    end
  done;
  flood_triples k

(* Adds forest edge [e]; its endpoints open the next label flood. *)
let add k e =
  if k.forest.(e) then false
  else begin
    k.forest.(e) <- true;
    let a = k.eu.(e) and b = k.ev.(e) in
    k.fdeg.(a) <- k.fdeg.(a) + 1;
    k.fdeg.(b) <- k.fdeg.(b) + 1;
    queue k a;
    queue k b;
    true
  end

(* The endpoint whose candidate won its fragment's election declares it,
   and the other endpoint hears the declaration on the edge itself.
   Returns whether the forest grew. *)
let declare k weights =
  let net = k.net and off = k.off and adj = k.adj and ids = k.ids in
  start_round k;
  for u = 0 to Array.length k.cand - 1 do
    let e = k.cand.(u) in
    if
      e <> none
      && weights.(e) = k.bw.(u)
      && k.eu.(e) = k.ba.(u)
      && k.ev.(e) = k.bb.(u)
    then begin
      k.mark.(u) <- k.stamp;
      k.cur.(k.ncur) <- u;
      k.ncur <- k.ncur + 1
    end
  done;
  Net.broadcast_round net (send_triple k);
  let grew = ref false in
  for i = 0 to k.ncur - 1 do
    let u = k.cur.(i) in
    if add k k.cand.(u) then grew := true;
    let a = k.tbuf.(u).(1) and b = k.tbuf.(u).(2) in
    for s = off.(u) to off.(u + 1) - 1 do
      let v = adj.(s) in
      if (v = a || v = b) && Net.delivered net u s && add k ids.(s) then
        grew := true
    done
  done;
  !grew

(* Phase 1 floods no labels: the forest is empty and every label is the
   node's own id. Each later phase's flood starts from the last phase's
   labels, at the endpoints of the edges it added. *)
let merge k sub weights =
  ignore (flood_labels k);
  announce k sub weights;
  elect k weights;
  declare k weights

let reset k =
  Array.fill k.forest 0 (Array.length k.forest) false;
  Array.fill k.fdeg 0 (Array.length k.fdeg) 0;
  Array.iteri (fun v _ -> k.label.(v) <- v) k.label;
  k.nnext <- 0

let forest_ids k sub ~weights =
  reset k;
  while merge k sub weights do
    ()
  done;
  let count = ref 0 in
  Array.iter (fun on -> if on then incr count) k.forest;
  let out = Array.make !count 0 in
  let i = ref 0 in
  Array.iteri
    (fun e on ->
      if on then begin
        out.(!i) <- e;
        incr i
      end)
    k.forest;
  out

(* [weight u v] once per marked edge, [u < v] *)
let edge_weights net (sub : Components.marks) weight =
  let eu, ev = Graph.csr_endpoints (Net.graph net) in
  Array.mapi (fun e on -> if on then weight eu.(e) ev.(e) else 0) sub.edges

let forest_edges k =
  let acc = ref [] in
  for e = Array.length k.forest - 1 downto 0 do
    if k.forest.(e) then acc := (k.eu.(e), k.ev.(e)) :: !acc
  done;
  !acc

let minimum_spanning_forest_on net ~active ~edge_active ~weight =
  let sub = Components.marks net ~active ~edge_active in
  let k = kernel net in
  ignore (forest_ids k sub ~weights:(edge_weights net sub weight));
  forest_edges k

let minimum_spanning_forest net ~weight =
  minimum_spanning_forest_on net
    ~active:(fun _ -> true)
    ~edge_active:(fun _ _ -> true)
    ~weight

(* Kutten-Peleg-shaped variant (controlled GHS): Boruvka phases run in
   cheap LOCAL mode (the merge kernel above, fully parallel across
   fragments) while fragment diameters stay below the cap; once a label
   flood does not go quiet within the cap — fragments now have >= cap
   nodes, so at most n/cap of them remain — the algorithm switches to
   GLOBAL mode: fragment labels via the hybrid component identification
   and per-fragment minima via one pipelined keyed convergecast over the
   global BFS tree (height + #fragments rounds per phase). A one-bit
   "did the flood go quiet" convergecast is charged per local phase. *)
let minimum_spanning_forest_hybrid ?cap net ~weight =
  let g = Net.graph net in
  let n = Graph.n g in
  let cap =
    match cap with
    | Some c -> c
    | None -> int_of_float (ceil (sqrt (float_of_int (max 1 n))))
  in
  let tree = Primitives.bfs_tree net ~root:0 in
  let sub =
    Components.marks net ~active:(fun _ -> true) ~edge_active:(fun _ _ -> true)
  in
  let weights = edge_weights net sub weight in
  let k = kernel net in
  reset k;
  let fragments = { sub with Components.edges = k.forest } in
  let eu = k.eu and ev = k.ev in
  let continue = ref true in
  let global_mode = ref false in
  let phase = ref 0 in
  while !continue do
    incr phase;
    if not !global_mode then begin
      (* LOCAL phase *)
      let quiet = flood_labels ~cap k in
      Net.silent_rounds net ((2 * tree.height) + 1);
      if quiet then begin
        announce k sub weights;
        elect k weights;
        continue := declare k weights
      end
      else global_mode := true
    end
    else begin
      (* GLOBAL phase *)
      let labels = Components.label_hybrid ~cap ~seed:!phase net fragments in
      Array.blit labels 0 k.label 0 n;
      announce k sub weights;
      let values u =
        let e = k.cand.(u) in
        if e = none then []
        else [ (labels.(u), [| weights.(e); eu.(e); ev.(e) |]) ]
      in
      let better (x : Net.msg) (y : Net.msg) =
        if x.(0) <> y.(0) then x.(0) < y.(0)
        else if x.(1) <> y.(1) then x.(1) < y.(1)
        else x.(2) < y.(2)
      in
      let winners = Primitives.pipelined_converge net tree ~values ~better in
      let edges =
        List.map (fun (_, (m : Net.msg)) -> Graph.edge_index g m.(1) m.(2)) winners
        |> List.sort_uniq Int.compare
      in
      if edges = [] then continue := false
      else begin
        Primitives.pipelined_downcast net tree
          (List.map (fun e -> [| eu.(e); ev.(e) |]) edges);
        List.iter (fun e -> k.forest.(e) <- true) edges
      end
    end
  done;
  forest_edges k
