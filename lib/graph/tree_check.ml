type t = {
  g : Graph.t;
  slot : int array; (* vertex -> index in [members], or -1 *)
  members : int array; (* the first [size] entries: the current set *)
  mutable size : int;
  parent : int array; (* union-find over member indices *)
  cover : int array; (* vertex -> last [dominates] call that covered it *)
  mutable epoch : int;
}

let create g =
  let n = Graph.n g in
  {
    g;
    slot = Array.make n (-1);
    members = Array.make n 0;
    size = 0;
    parent = Array.make n 0;
    cover = Array.make n 0;
    epoch = 0;
  }

let load c vs =
  for j = 0 to c.size - 1 do
    c.slot.(c.members.(j)) <- -1
  done;
  c.size <- 0;
  let n = Graph.n c.g in
  Array.iter
    (fun v ->
      if v >= 0 && v < n && c.slot.(v) < 0 then begin
        c.slot.(v) <- c.size;
        c.members.(c.size) <- v;
        c.parent.(c.size) <- c.size;
        c.size <- c.size + 1
      end)
    vs

let mem c v = v >= 0 && v < Graph.n c.g && c.slot.(v) >= 0

(* path halving *)
let rec find c i =
  let p = c.parent.(i) in
  if p = i then i
  else begin
    c.parent.(i) <- c.parent.(p);
    find c c.parent.(i)
  end

let union c u v =
  let ru = find c c.slot.(u) and rv = find c c.slot.(v) in
  ru <> rv
  && begin
    c.parent.(ru) <- rv;
    true
  end

let same c u v = find c c.slot.(u) = find c c.slot.(v)

let dominates c =
  let n = Graph.n c.g in
  c.epoch <- c.epoch + 1;
  let covered = ref 0 in
  let cover v =
    if c.cover.(v) <> c.epoch then begin
      c.cover.(v) <- c.epoch;
      incr covered
    end
  in
  let j = ref 0 in
  while !covered < n && !j < c.size do
    let v = c.members.(!j) in
    cover v;
    Array.iter cover (Graph.neighbors c.g v);
    incr j
  done;
  !covered = n

type edge = Off_graph | Leaves_set | Cycle | Joined

let join c u v =
  if not (mem c u && mem c v) then Leaves_set
  else if union c u v then Joined
  else Cycle

let edge c u v = if Graph.mem_edge c.g u v then join c u v else Off_graph

let edge_id c e =
  if e < 0 || e >= Graph.m c.g then Off_graph
  else
    let us, vs = Graph.csr_endpoints c.g in
    join c us.(e) vs.(e)
