(* CSR (compressed sparse row) graph core.

   The adjacency of all n vertices lives in one flat [adj : int array]
   of length 2m, sliced by [off : int array] of length n+1: vertex [u]'s
   neighbors are [adj.(off.(u)) .. adj.(off.(u+1) - 1)], sorted
   ascending. A parallel [slot_edge : int array] maps every adjacency
   slot to the index of its undirected edge in the canonical edge order,
   so the simulator's per-message accounting ([edge_index]) is one
   O(log deg) monomorphic int search — or free when a caller iterates
   slots directly via [iter_incident] / the [csr_*] accessors.

   Canonical edge order is unchanged from the seed implementation:
   edges as (min, max) pairs sorted lexicographically. Everything
   downstream (edge ids in packing certificates, broadcast congestion
   tables, Net edge loads) depends on that order being stable.

   Edge endpoints are stored as two flat unboxed int arrays [eu]/[ev]
   rather than a [(int * int) array]: at n = 2^20 (m ~ 4m edges) the
   tuple array costs three words per edge plus a pointer chase per
   access, which dominated [iter_edges]-shaped scans. The per-vertex
   [nbr] views ([neighbors]'s "same physical array every call"
   contract) are materialized lazily, published once through an
   [Atomic] so concurrent first calls from pool domains sharing one
   graph agree on one physical array. *)

type t = {
  n : int;
  m : int;  (* number of undirected edges *)
  off : int array;  (* n+1 offsets into adj/slot_edge *)
  adj : int array;  (* flat neighbor lists, each slice sorted *)
  slot_edge : int array;  (* adjacency slot -> edge index *)
  eu : int array;  (* edge i -> smaller endpoint, lex-sorted *)
  ev : int array;  (* edge i -> larger endpoint *)
  nbr : int array array option Atomic.t;
      (* lazy per-vertex neighbor views (copies of adj slices) *)
}

let validate n u v =
  if u = v then invalid_arg "Graph: self-loop";
  if u < 0 || v < 0 || u >= n || v >= n then
    invalid_arg "Graph: endpoint out of range"

(* Core constructor over canonical edge keys [min u v * n + max u v],
   sorted ascending, duplicates allowed (collapsed here). Keys are
   destructive-input: the caller hands over the array. *)
let build_sorted_keys ~n keys =
  let nk = Array.length keys in
  let m =
    let c = ref 0 in
    for i = 0 to nk - 1 do
      if i = 0 || keys.(i - 1) <> keys.(i) then incr c
    done;
    !c
  in
  let eu = Array.make m 0 and ev = Array.make m 0 in
  let w = ref 0 in
  for i = 0 to nk - 1 do
    let k = keys.(i) in
    if i = 0 || keys.(i - 1) <> k then begin
      eu.(!w) <- k / n;
      ev.(!w) <- k mod n;
      incr w
    end
  done;
  let deg = Array.make n 0 in
  for i = 0 to m - 1 do
    deg.(eu.(i)) <- deg.(eu.(i)) + 1;
    deg.(ev.(i)) <- deg.(ev.(i)) + 1
  done;
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + deg.(u)
  done;
  let adj = Array.make (2 * m) 0 in
  let slot_edge = Array.make (2 * m) 0 in
  let fill = Array.make n 0 in
  let put w v i =
    let s = off.(w) + fill.(w) in
    adj.(s) <- v;
    slot_edge.(s) <- i;
    fill.(w) <- fill.(w) + 1
  in
  (* Two passes over the lex-ordered edges leave every slice sorted
     without a sort: pass 1 appends each edge's smaller endpoint to the
     larger one's slice (ascending, all < w), pass 2 appends the larger
     endpoint to the smaller one's slice (ascending, all > w). *)
  for i = 0 to m - 1 do
    put ev.(i) eu.(i) i
  done;
  for i = 0 to m - 1 do
    put eu.(i) ev.(i) i
  done;
  { n; m; off; adj; slot_edge; eu; ev; nbr = Atomic.make None }

let build ~n pairs =
  (* validate in list order, with the seed's exact messages *)
  List.iter (fun (u, v) -> validate n u v) pairs;
  let keys =
    Array.of_list (List.map (fun (u, v) -> (min u v * n) + max u v) pairs)
  in
  Array.sort Int.compare keys;
  build_sorted_keys ~n keys

let of_edges ~n edges = build ~n edges

let of_endpoints ~n us vs =
  let len = Array.length us in
  if Array.length vs <> len then
    invalid_arg "Graph.of_endpoints: endpoint arrays differ in length";
  let keys = Array.make len 0 in
  for i = 0 to len - 1 do
    let u = us.(i) and v = vs.(i) in
    validate n u v;
    keys.(i) <- (min u v * n) + max u v
  done;
  Array.sort Int.compare keys;
  build_sorted_keys ~n keys

let n g = g.n
let m g = g.m

(* Publish-once lazy view: the first caller to install wins; losers
   re-read so every caller returns the same physical array. *)
let force_nbr g =
  match Atomic.get g.nbr with
  | Some v -> v
  | None -> (
    let v =
      Array.init g.n (fun u -> Array.sub g.adj g.off.(u) (g.off.(u + 1) - g.off.(u)))
    in
    if Atomic.compare_and_set g.nbr None (Some v) then v
    else match Atomic.get g.nbr with Some v -> v | None -> assert false)

let neighbors g u = (force_nbr g).(u)
let degree g u = g.off.(u + 1) - g.off.(u)

let min_degree g =
  if g.n = 0 then max_int
  else begin
    let best = ref max_int in
    for u = 0 to g.n - 1 do
      let d = g.off.(u + 1) - g.off.(u) in
      if d < !best then best := d
    done;
    !best
  end

(* adjacency slot of [v] inside [u]'s sorted slice, or -1 *)
let slot_of g u v =
  let lo = ref g.off.(u) and hi = ref g.off.(u + 1) in
  let found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.adj.(mid) in
    if w = v then found := mid else if w < v then lo := mid + 1 else hi := mid
  done;
  !found

let mem_edge g u v =
  if u = v || u < 0 || v < 0 || u >= g.n || v >= g.n then false
  else slot_of g u v >= 0

let edge_index g u v =
  if u = v || u < 0 || v < 0 || u >= g.n || v >= g.n then raise Not_found;
  let s = slot_of g u v in
  if s < 0 then raise Not_found;
  g.slot_edge.(s)

let edge_endpoints g i = (g.eu.(i), g.ev.(i))
let csr_offsets g = g.off
let csr_neighbors g = g.adj
let csr_edge_ids g = g.slot_edge
let csr_endpoints g = (g.eu, g.ev)

let iter_incident g u f =
  for s = g.off.(u) to g.off.(u + 1) - 1 do
    f g.adj.(s) g.slot_edge.(s)
  done

let iter_edges f g =
  for i = 0 to g.m - 1 do
    f g.eu.(i) g.ev.(i)
  done

let fold_edges f acc g =
  let acc = ref acc in
  for i = 0 to g.m - 1 do
    acc := f !acc g.eu.(i) g.ev.(i)
  done;
  !acc

let iter_vertices f g = for u = 0 to g.n - 1 do f u done

let induced g keep =
  let old_of_new = ref [] in
  let new_of_old = Array.make g.n (-1) in
  let count = ref 0 in
  for u = 0 to g.n - 1 do
    if keep u then begin
      new_of_old.(u) <- !count;
      old_of_new := u :: !old_of_new;
      incr count
    end
  done;
  let mapping = Array.of_list (List.rev !old_of_new) in
  let es =
    fold_edges
      (fun acc u v ->
        if keep u && keep v then (new_of_old.(u), new_of_old.(v)) :: acc
        else acc)
      [] g
  in
  (build ~n:!count es, mapping)

let spanning_subgraph g pred =
  let es = fold_edges (fun acc u v -> if pred u v then (u, v) :: acc else acc) [] g in
  build ~n:g.n es

let union_edges g extra =
  List.iter (fun (u, v) -> validate g.n u v) extra;
  let nx = List.length extra in
  let keys = Array.make (g.m + nx) 0 in
  for i = 0 to g.m - 1 do
    keys.(i) <- (g.eu.(i) * g.n) + g.ev.(i)
  done;
  List.iteri
    (fun j (u, v) -> keys.(g.m + j) <- (min u v * g.n) + max u v)
    extra;
  Array.sort Int.compare keys;
  build_sorted_keys ~n:g.n keys

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@," g.n (m g);
  iter_edges (fun u v -> Format.fprintf ppf "%d -- %d@," u v) g;
  Format.fprintf ppf "@]"

let pp_dot ?(highlight = fun _ -> false) ppf g =
  Format.fprintf ppf "graph {@.";
  Format.fprintf ppf "  node [shape=circle];@.";
  for v = 0 to g.n - 1 do
    if highlight v then
      Format.fprintf ppf "  %d [style=filled, fillcolor=lightblue];@." v
  done;
  iter_edges (fun u v -> Format.fprintf ppf "  %d -- %d;@." u v) g;
  Format.fprintf ppf "}@."
