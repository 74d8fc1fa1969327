type 'a t = {
  net : Net.t;
  view : 'a option array array; (* view.(v).(u): v's copy of u's value *)
  read_log : bool array array; (* read_log.(v).(u): v read entry u *)
  checked : bool;
}

let create ?(checked = true) net ~init =
  let n = Net.n net in
  let view = Array.make_matrix n n None in
  for v = 0 to n - 1 do
    view.(v).(v) <- Some (init v)
  done;
  { net; view; read_log = Array.make_matrix n n false; checked }

let checked t = t.checked

let violate t ~reader ~about =
  raise
    (Net.Protocol_violation
       {
         Net.v_round = Net.rounds t.net;
         v_node = Some reader;
         v_edge = None;
         v_budget = None;
         v_detail =
           Printf.sprintf
             "locality: node %d read knowledge about node %d it never \
              received" reader about;
       })

let read_opt t ~reader ~about =
  t.read_log.(reader).(about) <- true;
  t.view.(reader).(about)

let read t ~reader ~about =
  match read_opt t ~reader ~about with
  | Some v -> v
  | None ->
    if t.checked then violate t ~reader ~about
    else invalid_arg "Knowledge.read: entry never learned (unchecked mode)"

let knows t ~reader ~about = t.view.(reader).(about) <> None
let set_own t ~node v = t.view.(node).(node) <- Some v
let learn t ~reader ~about v = t.view.(reader).(about) <- Some v

let exchange t ~encode ~decode =
  Net.broadcast_round t.net (fun v ->
      match t.view.(v).(v) with Some x -> Some (encode x) | None -> None);
  Net.iter_deliveries t.net (fun v u _ m ->
      learn t ~reader:v ~about:u (decode m))

let indices_where row =
  let acc = ref [] in
  for u = Array.length row - 1 downto 0 do
    if row.(u) then acc := u :: !acc
  done;
  !acc

let reads_of t reader = indices_where t.read_log.(reader)

let known_to t reader =
  indices_where (Array.map (fun e -> e <> None) t.view.(reader))
