module Net = Congest.Net

type report = {
  result : Broadcast.result;
  bound : float;
}

let sources_for net per_node =
  List.init (Net.n net) (fun v -> (v, per_node))

let all_to_all ?seed ?(per_node = 1) net packing ~k =
  let n = Net.n net in
  let sources = sources_for net per_node in
  let result = Broadcast.via_dominating_trees ?seed net packing ~sources in
  let total = float_of_int (n * per_node) in
  let bound =
    float_of_int per_node +. ((total +. float_of_int n) /. float_of_int (max 1 k))
  in
  { result; bound }

let all_to_all_naive ?(per_node = 1) net =
  Broadcast.naive_single_tree net ~sources:(sources_for net per_node)

let all_to_all_ft ?seed ?(per_node = 1) net faults packing =
  Congest.Faults.install net faults;
  Broadcast.via_dominating_trees_ft ?seed net faults packing
    ~sources:(sources_for net per_node)

let all_to_all_naive_ft ?(per_node = 1) net faults =
  Congest.Faults.install net faults;
  Broadcast.naive_single_tree_ft net faults
    ~sources:(sources_for net per_node)

let scattered ?(seed = 42) net packing ~k ~total ~max_per_node =
  let n = Net.n net in
  if total < 0 || max_per_node < 1 || total > n * max_per_node then
    invalid_arg
      (Printf.sprintf
         "Gossip.scattered: cannot place %d messages on %d nodes at most %d \
          per node"
         total n max_per_node);
  let rng = Random.State.make [| seed; n; total |] in
  let counts = Array.make n 0 in
  let placed = ref 0 in
  while !placed < total do
    let v = Random.State.int rng n in
    if counts.(v) < max_per_node then begin
      counts.(v) <- counts.(v) + 1;
      incr placed
    end
  done;
  let sources = ref [] in
  let eta = ref 0 in
  Array.iteri
    (fun v c ->
      if c > 0 then sources := (v, c) :: !sources;
      if c > !eta then eta := c)
    counts;
  let result = Broadcast.via_dominating_trees ~seed net packing ~sources:!sources in
  let bound =
    float_of_int !eta
    +. (float_of_int (total + n) /. float_of_int (max 1 k))
  in
  { result; bound }
