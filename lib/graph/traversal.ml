let bfs g src =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
      (Graph.neighbors g u)
  done;
  dist

let bfs_tree g src =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  parent.(src) <- src;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          parent.(v) <- u;
          Queue.add v queue
        end)
      (Graph.neighbors g u)
  done;
  (dist, parent)

let components g =
  let n = Graph.n g in
  let label = Array.make n (-1) in
  let count = ref 0 in
  let queue = Queue.create () in
  for src = 0 to n - 1 do
    if label.(src) < 0 then begin
      label.(src) <- !count;
      Queue.add src queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        Array.iter
          (fun v ->
            if label.(v) < 0 then begin
              label.(v) <- !count;
              Queue.add v queue
            end)
          (Graph.neighbors g u)
      done;
      incr count
    end
  done;
  (!count, label)

let is_connected g =
  let count, _ = components g in
  count <= 1

let eccentricity g u =
  let dist = bfs g u in
  Array.fold_left
    (fun acc d ->
      if d < 0 then invalid_arg "Traversal.eccentricity: disconnected graph"
      else max acc d)
    0 dist

let diameter g =
  if Graph.n g = 0 then invalid_arg "Traversal.diameter: empty graph";
  let best = ref 0 in
  for u = 0 to Graph.n g - 1 do
    best := max !best (eccentricity g u)
  done;
  !best

let diameter_2approx g =
  if Graph.n g = 0 then invalid_arg "Traversal.diameter_2approx: empty graph";
  let dist0 = bfs g 0 in
  let far = ref 0 in
  Array.iteri
    (fun v d ->
      if d < 0 then invalid_arg "Traversal.diameter_2approx: disconnected graph";
      if d > dist0.(!far) then far := v)
    dist0;
  eccentricity g !far

let distances_within g pred src =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  if not (pred src) then dist
  else begin
    let queue = Queue.create () in
    dist.(src) <- 0;
    Queue.add src queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Array.iter
        (fun v ->
          if pred v && dist.(v) < 0 then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v queue
          end)
        (Graph.neighbors g u)
    done;
    dist
  end
