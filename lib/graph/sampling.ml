let edge_partition rng g ~eta =
  if eta < 1 then invalid_arg "Sampling.edge_partition: eta < 1";
  let part_of = Array.init (Graph.m g) (fun _ -> Random.State.int rng eta) in
  let eu, ev = Graph.csr_endpoints g in
  let buckets = Array.make eta [] in
  Array.iteri (fun e i -> buckets.(i) <- (eu.(e), ev.(e)) :: buckets.(i)) part_of;
  (Array.map (Graph.of_edges ~n:(Graph.n g)) buckets, part_of)

let suggested_eta ~lambda ~n ~eps =
  let threshold = 20.0 *. log (float_of_int (max 2 n)) /. (eps *. eps) in
  max 1 (int_of_float (float_of_int lambda /. threshold))

let vertex_sample rng g ~p =
  Array.init (Graph.n g) (fun _ -> Random.State.float rng 1.0 < p)

let sampled_connectivity rng g ~trials =
  let best = ref max_int in
  for _ = 1 to trials do
    let sample = vertex_sample rng g ~p:0.5 in
    let sub, _ = Graph.induced g (fun v -> sample.(v)) in
    let k =
      if Graph.n sub = 0 then 0 else Connectivity.vertex_connectivity sub
    in
    if k < !best then best := k
  done;
  if !best = max_int then 0 else !best
