type arc = { dst : int; mutable cap : int; init : int; rev : int }

type t = {
  n : int;
  mutable arcs : arc array array;
  mutable pending : (int * int * int) list;
  mutable frozen : bool;
}

let create n =
  if n < 0 then invalid_arg "Maxflow.create: negative size";
  { n; arcs = [||]; pending = []; frozen = false }

let add_edge net u v cap =
  if cap < 0 then invalid_arg "Maxflow.add_edge: negative capacity";
  if u < 0 || v < 0 || u >= net.n || v >= net.n then
    invalid_arg "Maxflow.add_edge: node out of range";
  if net.frozen then invalid_arg "Maxflow.add_edge: network already solved";
  net.pending <- (u, v, cap) :: net.pending

let freeze net =
  if not net.frozen then begin
    let deg = Array.make net.n 0 in
    let pend = List.rev net.pending in
    List.iter
      (fun (u, v, _) ->
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1)
      pend;
    let dummy = { dst = 0; cap = 0; init = 0; rev = 0 } in
    let arcs = Array.init net.n (fun u -> Array.make deg.(u) dummy) in
    let fill = Array.make net.n 0 in
    List.iter
      (fun (u, v, cap) ->
        let iu = fill.(u) and iv = fill.(v) in
        arcs.(u).(iu) <- { dst = v; cap; init = cap; rev = iv };
        arcs.(v).(iv) <- { dst = u; cap = 0; init = 0; rev = iu };
        fill.(u) <- iu + 1;
        fill.(v) <- iv + 1)
      pend;
    net.arcs <- arcs;
    net.frozen <- true
  end

let bfs_levels net ~src ~sink =
  let level = Array.make net.n (-1) in
  let queue = Queue.create () in
  level.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun a ->
        if a.cap > 0 && level.(a.dst) < 0 then begin
          level.(a.dst) <- level.(u) + 1;
          Queue.add a.dst queue
        end)
      net.arcs.(u)
  done;
  if level.(sink) < 0 then None else Some level

let rec dfs_push net level iter ~sink u pushed =
  if u = sink then pushed
  else begin
    let result = ref 0 in
    let arcs = net.arcs.(u) in
    let len = Array.length arcs in
    while !result = 0 && iter.(u) < len do
      let a = arcs.(iter.(u)) in
      if a.cap > 0 && level.(a.dst) = level.(u) + 1 then begin
        let d = dfs_push net level iter ~sink a.dst (min pushed a.cap) in
        if d > 0 then begin
          a.cap <- a.cap - d;
          let back = net.arcs.(a.dst).(a.rev) in
          back.cap <- back.cap + d;
          result := d
        end
        else iter.(u) <- iter.(u) + 1
      end
      else iter.(u) <- iter.(u) + 1
    done;
    !result
  end

let max_flow net ~src ~sink =
  if src = sink then invalid_arg "Maxflow.max_flow: src = sink";
  freeze net;
  let total = ref 0 in
  let continue = ref true in
  while !continue do
    match bfs_levels net ~src ~sink with
    | None -> continue := false
    | Some level ->
      let iter = Array.make net.n 0 in
      let flowing = ref true in
      while !flowing do
        let d = dfs_push net level iter ~sink src max_int in
        if d = 0 then flowing := false else total := !total + d
      done
  done;
  !total

let min_cut_side net ~src =
  freeze net;
  let seen = Array.make net.n false in
  let queue = Queue.create () in
  seen.(src) <- true;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun a ->
        if a.cap > 0 && not seen.(a.dst) then begin
          seen.(a.dst) <- true;
          Queue.add a.dst queue
        end)
      net.arcs.(u)
  done;
  seen

let edge_connectivity_pair g u v =
  let net = create (Graph.n g) in
  Graph.iter_edges
    (fun a b ->
      add_edge net a b 1;
      add_edge net b a 1)
    g;
  max_flow net ~src:u ~sink:v

(* Vertex splitting: node x becomes x_in = 2x, x_out = 2x + 1 with a unit
   arc x_in -> x_out (high-capacity for the terminals); edge {a,b} becomes
   a_out -> b_in and b_out -> a_in of high capacity. *)
let split_network g u v =
  let n = Graph.n g in
  let inf = (Graph.m g * 2) + n + 1 in
  let net = create (2 * n) in
  for x = 0 to n - 1 do
    let cap = if x = u || x = v then inf else 1 in
    add_edge net (2 * x) ((2 * x) + 1) cap
  done;
  Graph.iter_edges
    (fun a b ->
      add_edge net ((2 * a) + 1) (2 * b) inf;
      add_edge net ((2 * b) + 1) (2 * a) inf)
    g;
  net

let vertex_connectivity_pair g u v =
  if u = v then invalid_arg "Maxflow.vertex_connectivity_pair: u = v";
  if Graph.mem_edge g u v then
    invalid_arg "Maxflow.vertex_connectivity_pair: adjacent vertices";
  let net = split_network g u v in
  max_flow net ~src:((2 * u) + 1) ~sink:(2 * v)

(* Flow decomposition into unit paths. An arc carries [init - cap] units
   (positive values only; reverse arcs have init = 0 and never qualify
   unless the paired arc was cancelled below zero, which cannot happen).
   Each extraction finds a src->sink path through positive-flow arcs with
   a per-walk visited set (cycles in the flow are skipped, not traversed),
   then cancels one unit along it. *)
let decompose_paths net ~src ~sink ~node_of =
  freeze net;
  let flow_on a = a.init - a.cap in
  let cancel_unit u i =
    let a = net.arcs.(u).(i) in
    let back = net.arcs.(a.dst).(a.rev) in
    a.cap <- a.cap + 1;
    back.cap <- back.cap - 1
  in
  let rec dfs visited u =
    if u = sink then Some []
    else begin
      visited.(u) <- true;
      let arcs = net.arcs.(u) in
      let found = ref None in
      let i = ref 0 in
      while !found = None && !i < Array.length arcs do
        let a = arcs.(!i) in
        if flow_on a > 0 && not visited.(a.dst) then begin
          match dfs visited a.dst with
          | Some rest -> found := Some ((u, !i) :: rest)
          | None -> ()
        end;
        incr i
      done;
      !found
    end
  in
  let paths = ref [] in
  let continue = ref true in
  while !continue do
    let visited = Array.make net.n false in
    match dfs visited src with
    | None -> continue := false
    | Some steps ->
      List.iter (fun (u, i) -> cancel_unit u i) steps;
      let vertices = List.map (fun (u, _) -> node_of u) steps @ [ node_of sink ] in
      let dedup =
        List.fold_left
          (fun acc x -> match acc with y :: _ when y = x -> acc | _ -> x :: acc)
          [] vertices
        |> List.rev
      in
      paths := dedup :: !paths
  done;
  List.rev !paths

let vertex_disjoint_paths g u v =
  if u = v then invalid_arg "Maxflow.vertex_disjoint_paths: u = v";
  if Graph.mem_edge g u v then
    invalid_arg "Maxflow.vertex_disjoint_paths: adjacent vertices";
  let net = split_network g u v in
  let _ = max_flow net ~src:((2 * u) + 1) ~sink:(2 * v) in
  decompose_paths net ~src:((2 * u) + 1) ~sink:(2 * v) ~node_of:(fun x -> x / 2)
