(* Reference copy of the receiver-major round engine: a send walk over
   the senders, descending, then a receive walk over every receiver's
   CSR slice (senders descending), hashing each receiver's in-traffic as
   it goes. Each round scans all 2m adjacency slots, whatever its
   traffic. Kept as the oracle of a differential property: [Congest.Net]
   must produce the same telemetry (counters, boundary words, digest
   trace) and the same inbox view, round for round, with
   and without a fault hook. Only the round engine is copied; barriers,
   obs and the replay sanitizer are not. *)

module Graph = Graphs.Graph
module Net = Congest.Net

type msg = Net.msg

type arenas = {
  mirror : int array;
  out_msg : msg array;
  out_hash : int array;
  fate : int array;
}

type last_round =
  | No_round
  | Broadcast
  | Faulty_broadcast of arenas
  | Edge of arenas

type t = {
  graph : Graph.t;
  csr_off : int array;
  csr_adj : int array;
  csr_ids : int array;
  model : Congest.Model.t;
  words_budget : int;
  max_word : int;
  mutable rounds : int;
  mutable messages : int;
  mutable words : int;
  mutable messages_lost : int;
  mutable words_lost : int;
  mutable last : last_round;
  sent : msg array;
  sent_len : int array;
  sent_hash : int array;
  mutable arenas : arenas option;
  mutable tag : int;
  mutable boundary : (int -> bool) option;
  mutable boundary_words : int;
  mutable faults : Net.fault_hook option;
  mutable digests : int list;  (* newest first *)
}

let create model g =
  let n = Graph.n g in
  {
    graph = g;
    csr_off = Graph.csr_offsets g;
    csr_adj = Graph.csr_neighbors g;
    csr_ids = Graph.csr_edge_ids g;
    model;
    words_budget = Congest.Model.words_budget ~n;
    max_word = Congest.Model.max_word ~n;
    rounds = 0;
    messages = 0;
    words = 0;
    messages_lost = 0;
    words_lost = 0;
    last = No_round;
    sent = Array.make n [||];
    sent_len = Array.make n (-1);
    sent_hash = Array.make n 0;
    arenas = None;
    tag = 0;
    boundary = None;
    boundary_words = 0;
    faults = None;
    digests = [];
  }

let install_faults net hook = net.faults <- Some hook
let set_boundary net side = net.boundary <- Some side

let violate ?node ?edge ?budget net detail =
  raise
    (Net.Protocol_violation
       {
         Net.v_round = net.rounds;
         v_node = node;
         v_edge = edge;
         v_budget = budget;
         v_detail = detail;
       })

let mix h x = ((h lxor x) * 0x01000193) land 0x3FFFFFFFFFFFFFF
let digest_in h ~tag ~src hm = mix (mix (mix h tag) src) hm

let validate net ~node m =
  let len = Array.length m in
  if len > net.words_budget then
    violate ~node net ~budget:net.words_budget
      (Printf.sprintf "message of %d words exceeds budget" len);
  let h = ref 0 in
  for i = 0 to len - 1 do
    let w = m.(i) in
    if abs w > net.max_word then
      violate ~node net ~budget:net.max_word
        (Printf.sprintf "word %d exceeds O(log n) width bound" w);
    h := mix !h w
  done;
  !h

let arenas net =
  match net.arenas with
  | Some a -> a
  | None ->
    let ids = net.csr_ids in
    let slots = Array.length ids in
    let mirror = Array.make slots 0 in
    let first = Array.make (Graph.m net.graph) (-1) in
    for s = 0 to slots - 1 do
      let ei = ids.(s) in
      if first.(ei) < 0 then first.(ei) <- s
      else begin
        mirror.(s) <- first.(ei);
        mirror.(first.(ei)) <- s
      end
    done;
    let a =
      {
        mirror;
        out_msg = Array.make slots [||];
        out_hash = Array.make slots 0;
        fate = Array.make slots 0;
      }
    in
    net.arenas <- Some a;
    a

let begin_round net =
  net.tag <- net.tag + 1;
  net.last <- No_round;
  match net.faults with
  | Some h -> h.Net.on_round_start net.rounds
  | None -> ()

let end_round net ~digest ~msgs ~words ~lost ~wlost ~cross =
  net.messages <- net.messages + msgs;
  net.words <- net.words + words;
  net.messages_lost <- net.messages_lost + lost;
  net.words_lost <- net.words_lost + wlost;
  net.boundary_words <- net.boundary_words + cross;
  net.rounds <- net.rounds + 1;
  net.digests <- digest :: net.digests

let broadcast_round net send =
  let hook = net.faults in
  let mirror, fate =
    match hook with
    | None -> ([||], [||])
    | Some _ ->
      let a = arenas net in
      (a.mirror, a.fate)
  in
  begin_round net;
  let tag = net.tag in
  let faulty = Option.is_some hook in
  let bounded, side =
    match net.boundary with Some f -> (true, f) | None -> (false, fun _ -> false)
  in
  let off = net.csr_off and adj = net.csr_adj and ids = net.csr_ids in
  let sent = net.sent and sent_len = net.sent_len
  and sent_hash = net.sent_hash in
  let n = Array.length sent in
  for u = n - 1 downto 0 do
    let out =
      match hook with
      | Some h when not (h.Net.node_alive u) -> None
      | _ -> send u
    in
    match out with
    | None -> sent_len.(u) <- -1
    | Some m ->
      sent_hash.(u) <- validate net ~node:u m;
      sent.(u) <- m;
      sent_len.(u) <- Array.length m;
      (match hook with
      | None -> ()
      | Some h ->
        for s = off.(u) to off.(u + 1) - 1 do
          fate.(s) <-
            (if h.Net.deliver ~src:u ~dst:adj.(s) ~edge:ids.(s) m then tag
             else -tag)
        done)
  done;
  let msgs = ref 0 and words = ref 0 and lost = ref 0 and wlost = ref 0 in
  let cross = ref 0 and dig = ref 0 in
  for v = 0 to n - 1 do
    let h = ref v in
    for s' = off.(v + 1) - 1 downto off.(v) do
      let u = adj.(s') in
      let len = sent_len.(u) in
      if len < 0 then ()
      else if faulty && fate.(mirror.(s')) <> tag then begin
        h := digest_in !h ~tag:2 ~src:u sent_hash.(u);
        incr lost;
        wlost := !wlost + len
      end
      else begin
        h := digest_in !h ~tag:1 ~src:u sent_hash.(u);
        incr msgs;
        words := !words + len;
        if bounded && side u <> side v then cross := !cross + len
      end
    done;
    dig := mix !dig !h
  done;
  end_round net ~digest:!dig ~msgs:!msgs ~words:!words ~lost:!lost
    ~wlost:!wlost ~cross:!cross;
  net.last <- (if faulty then Faulty_broadcast (arenas net) else Broadcast)

let slot_in off adj u v =
  let lo = ref off.(u) and hi = ref off.(u + 1) in
  let found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let w = adj.(mid) in
    if w = v then found := mid else if w < v then lo := mid + 1 else hi := mid
  done;
  !found

let edge_round net send =
  if net.model = Congest.Model.V_congest then
    violate net "edge_round: per-edge messages illegal in V-CONGEST";
  let hook = net.faults in
  let { mirror; out_msg; out_hash; fate } = arenas net in
  begin_round net;
  let tag = net.tag in
  let bounded, side =
    match net.boundary with Some f -> (true, f) | None -> (false, fun _ -> false)
  in
  let off = net.csr_off and adj = net.csr_adj and ids = net.csr_ids in
  let rec stage u next = function
    | [] -> ()
    | (v, m) :: rest ->
      let s =
        if next < off.(u + 1) && adj.(next) = v then next
        else slot_in off adj u v
      in
      if s < 0 then
        violate net ~node:u ~edge:(u, v) "edge_round: message along a non-edge";
      if abs fate.(s) = tag then
        violate net ~node:u ~edge:(u, v)
          "edge_round: two messages on one edge direction";
      fate.(s) <- tag;
      out_hash.(s) <- validate net ~node:u m;
      out_msg.(s) <- m;
      (match hook with
      | Some h when not (h.Net.deliver ~src:u ~dst:v ~edge:ids.(s) m) ->
        fate.(s) <- -tag
      | _ -> ());
      stage u (s + 1) rest
  in
  let n = Array.length net.sent in
  for u = n - 1 downto 0 do
    match hook with
    | Some h when not (h.Net.node_alive u) -> ()
    | _ -> stage u off.(u) (send u)
  done;
  let msgs = ref 0 and words = ref 0 and lost = ref 0 and wlost = ref 0 in
  let cross = ref 0 and dig = ref 0 in
  for v = 0 to n - 1 do
    let h = ref v in
    for s' = off.(v + 1) - 1 downto off.(v) do
      let u = adj.(s') in
      let s = mirror.(s') in
      let st = fate.(s) in
      if st = tag then begin
        let len = Array.length out_msg.(s) in
        h := digest_in !h ~tag:1 ~src:u out_hash.(s);
        incr msgs;
        words := !words + len;
        if bounded && side u <> side v then cross := !cross + len
      end
      else if st = -tag then begin
        h := digest_in !h ~tag:2 ~src:u out_hash.(s);
        incr lost;
        wlost := !wlost + Array.length out_msg.(s)
      end
    done;
    dig := mix !dig !h
  done;
  end_round net ~digest:!dig ~msgs:!msgs ~words:!words ~lost:!lost
    ~wlost:!wlost ~cross:!cross;
  net.last <- Edge (arenas net)

let iter_inbox net v f =
  let off = net.csr_off and adj = net.csr_adj and ids = net.csr_ids in
  let tag = net.tag and sent = net.sent in
  match net.last with
  | No_round -> ()
  | Broadcast ->
    let sent_len = net.sent_len in
    for s = off.(v) to off.(v + 1) - 1 do
      let u = adj.(s) in
      if sent_len.(u) >= 0 then f v u ids.(s) sent.(u)
    done
  | Faulty_broadcast { mirror; fate; _ } ->
    for s = off.(v) to off.(v + 1) - 1 do
      if fate.(mirror.(s)) = tag then f v adj.(s) ids.(s) sent.(adj.(s))
    done
  | Edge { mirror; fate; out_msg; _ } ->
    for s = off.(v) to off.(v + 1) - 1 do
      let s_out = mirror.(s) in
      if fate.(s_out) = tag then f v adj.(s) ids.(s) out_msg.(s_out)
    done

let telemetry net =
  {
    Net.t_rounds = net.rounds;
    t_messages = net.messages;
    t_words = net.words;
    t_messages_lost = net.messages_lost;
    t_words_lost = net.words_lost;
    t_boundary_words = net.boundary_words;
    t_digests = Array.of_list (List.rev net.digests);
  }
