module Graph = Graphs.Graph
module Net = Congest.Net
module Faults = Congest.Faults

type result = {
  rounds : int;
  messages : int;
  throughput : float;
  max_vertex_congestion : int;
  max_edge_congestion : int;
}

(* (origin, count) list -> per-message origins, message ids 0.., and
   their number. Rejects what the flat per-(node, message) state below
   cannot index, naming the entry point [who]. *)
let expand_sources ~who ~n sources =
  let acc = ref [] in
  let id = ref 0 in
  List.iter
    (fun (origin, count) ->
      if count < 0 then
        invalid_arg
          (Printf.sprintf "%s: negative message count %d at origin %d" who
             count origin);
      if origin < 0 || origin >= n then
        invalid_arg
          (Printf.sprintf "%s: origin %d out of range [0, %d)" who origin n);
      for _ = 1 to count do
        acc := (!id, origin) :: !acc;
        incr id
      done)
    sources;
  (List.rev !acc, !id)

(* Flat flag tables, one bit per entry: the per-(node, message),
   per-(tree, edge) and per-(membership, message) state of the
   schedulers below, indexed [row * width + col]. *)
let flags size = Bytes.make ((size + 7) / 8) '\000'
let flag t k = Char.code (Bytes.get t (k lsr 3)) land (1 lsl (k land 7)) <> 0

let set_flag t k =
  let b = k lsr 3 in
  Bytes.set t b (Char.chr (Char.code (Bytes.get t b) lor (1 lsl (k land 7))))

(* [tree_edges g trees edges_of] flags edge id [e] of tree [i] at
   [i * m + e]; an id outside the graph is never crossed, so it gets no
   flag. *)
let tree_edges g trees edges_of =
  let m = Graph.m g in
  let t = flags (Array.length trees * m) in
  Array.iteri
    (fun i tr ->
      Array.iter
        (fun e -> if e >= 0 && e < m then set_flag t ((i * m) + e))
        (edges_of tr))
    trees;
  t

(* One FIFO of ids per queue index, all in one flat store: queue [q]'s
   cells are linked from [head.(q)] to [tail.(q)] through [next], and a
   popped cell heads the [free] list for the next push. Once the cell
   arrays have grown to the most ids ever queued at once, pushes and
   pops allocate nothing. *)
module Fifo = struct
  type t = {
    head : int array;  (* queue -> first cell, -1 when empty *)
    tail : int array;  (* queue -> last cell, when not empty *)
    mutable value : int array;  (* cell -> queued id *)
    mutable next : int array;  (* cell -> next cell of its list, or -1 *)
    mutable free : int;  (* first recycled cell, -1 when none *)
    mutable used : int;  (* cells handed out so far *)
  }

  let create queues =
    {
      head = Array.make queues (-1);
      tail = Array.make queues (-1);
      value = Array.make 64 0;
      next = Array.make 64 (-1);
      free = -1;
      used = 0;
    }

  let is_empty f q = f.head.(q) < 0

  let cell f =
    if f.free >= 0 then begin
      let c = f.free in
      f.free <- f.next.(c);
      c
    end
    else begin
      let c = f.used in
      if c = Array.length f.value then begin
        let grow a = Array.append a (Array.make (Array.length a) (-1)) in
        f.value <- grow f.value;
        f.next <- grow f.next
      end;
      f.used <- c + 1;
      c
    end

  let push f q id =
    let c = cell f in
    f.value.(c) <- id;
    f.next.(c) <- -1;
    if f.head.(q) < 0 then f.head.(q) <- c else f.next.(f.tail.(q)) <- c;
    f.tail.(q) <- c

  (* the oldest id of queue [q], which must not be empty, removed *)
  let pop f q =
    let c = f.head.(q) in
    f.head.(q) <- f.next.(c);
    f.next.(c) <- f.free;
    f.free <- c;
    f.value.(c)
end

(* A run's result. [rounds] is the real count: a run with nothing to
   send takes none, and its throughput is 0. *)
let finish net start ~messages ~relays ~edge_crossings =
  let rounds = Net.rounds_since net start in
  {
    rounds;
    messages;
    throughput =
      (if rounds = 0 then 0. else float_of_int messages /. float_of_int rounds);
    max_vertex_congestion = Array.fold_left max 0 relays;
    max_edge_congestion = Array.fold_left max 0 edge_crossings;
  }

(* Delivery bookkeeping, shared by every scheduler: who heard what, and
   per message how many surviving nodes heard it. With no adversary no
   node dies and every message is heard by its origin, so [all_done]
   holds exactly when every node has heard every message. [heard] flags
   (v, id) at [v * total + id]; [heard_count.(v)] counts v's flags. *)
type delivery = {
  total : int;
  node_dead : bool array;
  mutable alive : int;
  heard : Bytes.t;
  heard_count : int array;
  heard_alive : int array;
}

let delivery n total =
  {
    total;
    node_dead = Array.make n false;
    alive = n;
    heard = flags (n * total);
    heard_count = Array.make n 0;
    heard_alive = Array.make total 0;
  }

let has_heard d v id = flag d.heard ((v * d.total) + id)

(* true iff [id] is news to [v], which is alive *)
let[@inline] hear d v id =
  if d.node_dead.(v) || has_heard d v id then false
  else begin
    set_flag d.heard ((v * d.total) + id);
    d.heard_count.(v) <- d.heard_count.(v) + 1;
    d.heard_alive.(id) <- d.heard_alive.(id) + 1;
    true
  end

(* the [k]-th message [v] heard, ids ascending *)
let nth_heard d v k =
  let rec from id k =
    if has_heard d v id then if k = 0 then id else from (id + 1) (k - 1)
    else from (id + 1) k
  in
  from 0 k

let bury d v =
  if not d.node_dead.(v) then begin
    d.node_dead.(v) <- true;
    d.alive <- d.alive - 1;
    for id = 0 to d.total - 1 do
      if has_heard d v id then d.heard_alive.(id) <- d.heard_alive.(id) - 1
    done
  end

let all_done d =
  d.alive = 0
  ||
  let id = ref 0 in
  while
    !id < d.total
    &&
    let h = d.heard_alive.(!id) in
    h = 0 || h = d.alive
  do
    incr id
  done;
  !id = d.total

(* ------------------------------------------------------------------ *)
(* E-CONGEST: spanning-tree packing *)

let via_spanning_trees ?(seed = 42) net (packing : Spantree.Spacking.t)
    ~sources =
  let who = "Broadcast.via_spanning_trees" in
  let trees = Array.of_list packing.Spantree.Spacking.trees in
  let tcount = Array.length trees in
  if tcount = 0 then invalid_arg (who ^ ": empty packing");
  let g = Net.graph net in
  let n = Graph.n g and m = Graph.m g in
  let rng = Random.State.make [| seed; n; tcount; 3 |] in
  let msgs, total = expand_sources ~who ~n sources in
  (* weighted random tree per message *)
  let weights = Array.map (fun tr -> tr.Spantree.Spacking.weight) trees in
  let wsum = Array.fold_left ( +. ) 0. weights in
  let pick_tree () =
    let x = Random.State.float rng wsum in
    let acc = ref 0. in
    let chosen = ref (tcount - 1) in
    (try
       Array.iteri
         (fun i w ->
           acc := !acc +. w;
           if !acc >= x then begin
             chosen := i;
             raise Exit
           end)
         weights
     with Exit -> ());
    !chosen
  in
  let tree_of_msg = Array.init total (fun _ -> pick_tree ()) in
  let on_tree = tree_edges g trees (fun tr -> tr.Spantree.Spacking.edges) in
  let off = Graph.csr_offsets g
  and nbr = Graph.csr_neighbors g
  and slot_edge = Graph.csr_edge_ids g in
  (* per CSR slot (v, u): fifo of message ids v forwards to u, each on
     its own tree *)
  let fifo = Fifo.create (2 * m) in
  let d = delivery n total in
  let learn v id ~from =
    if hear d v id then begin
      (* schedule forwarding along the tree, away from the source *)
      let row = tree_of_msg.(id) * m in
      for s = off.(v) to off.(v + 1) - 1 do
        if nbr.(s) <> from && flag on_tree (row + slot_edge.(s)) then
          Fifo.push fifo s id
      done
    end
  in
  List.iter (fun (id, origin) -> learn origin id ~from:(-1)) msgs;
  let relays = Array.make n 0 in
  let edge_crossings = Array.make m 0 in
  let start = Net.checkpoint net in
  let receive v sender _ (msg : Net.msg) = learn v msg.(1) ~from:sender in
  let guard = ref 0 in
  while (not (all_done d)) && !guard < 100 * (total + n) do
    incr guard;
    (* one message per directed edge, neighbours ascending *)
    let outgoing =
      Array.init n (fun v ->
          let out = ref [] in
          for s = off.(v + 1) - 1 downto off.(v) do
            if not (Fifo.is_empty fifo s) then begin
              let id = Fifo.pop fifo s and e = slot_edge.(s) in
              relays.(v) <- relays.(v) + 1;
              edge_crossings.(e) <- edge_crossings.(e) + 1;
              out := (nbr.(s), [| tree_of_msg.(id); id |]) :: !out
            end
          done;
          !out)
    in
    Net.edge_round net (fun v -> outgoing.(v));
    for v = 0 to n - 1 do
      Net.iter_inbox net v receive
    done
  done;
  if not (all_done d) then
    failwith (who ^ ": did not converge (bad packing?)");
  finish net start ~messages:total ~relays ~edge_crossings

(* ------------------------------------------------------------------ *)
(* V-CONGEST: one store-and-forward scheduler per tree shape, run
   against an optional Faults adversary. A fault-free entry point is the
   same scheduler with no adversary and no repair tick. Recovery
   semantics under an adversary:
   - a tree with a crashed member or a killed tree edge is dead; its
     pending relays are rerouted onto surviving trees;
   - every [repair_every] rounds each node re-gossips one random heard
     message (retransmission against Bernoulli drops);
   - delivery is owed to surviving nodes only, and only for messages
     some survivor has heard. *)

type ft_result = {
  ft_rounds : int;
  ft_messages : int;
  ft_delivered : int;
  ft_throughput : float;
  ft_coverage : float;
  ft_survivors : int;
  ft_dead_trees : int;
  ft_converged : bool;
}

(* [fault_sync d faults ~on_crash ~on_kill] polls the adversary: when
   its crash count grows it buries the crashed nodes and hands them to
   [on_crash]; when its kill count grows it hands the killed edges to
   [on_kill]. With no adversary it does nothing. *)
let fault_sync d faults ~on_crash ~on_kill =
  match faults with
  | None -> ignore
  | Some f ->
    let known_crashes = ref 0 and known_kills = ref 0 in
    fun () ->
      if Faults.crashes f <> !known_crashes then begin
        known_crashes := Faults.crashes f;
        let crashed = Faults.crashed_nodes f in
        List.iter (bury d) crashed;
        on_crash crashed
      end;
      if Faults.edges_killed f <> !known_kills then begin
        known_kills := Faults.edges_killed f;
        on_kill (Faults.killed_edges f)
      end

type run = {
  d : delivery;
  start : Net.checkpoint;
  relays : int array;
  edge_crossings : int array;
}

(* The round loop of both tree shapes. Every [repair_every] rounds each
   survivor first [resend]s one random message it heard. Then each live
   node [v] for which [pick v buf.(v)] holds broadcasts [buf.(v)], which
   [pick] has just written, the adversary is polled, and each node [u]
   that picked hands its message to [fan_out u buf.(u)], which walks
   [u]'s own CSR slots for the deliveries ([Net.delivered]) to live
   receivers. Stops once [all_done] or after [cap] rounds.

   The walk is sender-major but every result equals the receiver-major
   [Net.iter_inbox] walk's: each piece of receiver state a delivery
   touches (heard bit, adopted bit, relay queue) is written only by
   deliveries to that receiver, and senders ascending hand each receiver
   its deliveries in the same ascending-sender order as its inbox; the
   per-message heard counts are sums. No RNG draw moves.

   Nothing is allocated per round: each node owns one [width]-word
   message buffer and its [Some] wrapper, and the net's inbox view reads
   the buffers in place. That is safe because a buffer is rewritten only
   by its node's next [pick], after this round's walk has ended, and the
   [Faults] adversaries read nothing of a message but its length.

   A local broadcast crosses every edge at its sender, and [relays.(v)]
   counts the rounds [v] picked a message (whether or not the adversary
   silenced it), so an edge's crossings are the sum of its endpoints'
   relays, derived once at the end. *)
let run_rounds ?repair_every net d ~sync ~rng ~cap ~width ~resend ~pick
    ~fan_out =
  let g = Net.graph net in
  let n = Graph.n g in
  sync ();
  let relays = Array.make n 0 in
  let buf = Array.init n (fun _ -> Array.make width 0) in
  let out = Array.map Option.some buf in
  let sends = Array.make n false in
  let send v = if sends.(v) then out.(v) else None in
  let start = Net.checkpoint net in
  let round = ref 0 in
  while (not (all_done d)) && !round < cap do
    incr round;
    (match repair_every with
    | Some every when !round mod every = 0 ->
      for v = 0 to n - 1 do
        (* a uniform draw over v's heard ids, ascending *)
        let c = d.heard_count.(v) in
        if (not d.node_dead.(v)) && c > 0 then
          resend v (nth_heard d v (Random.State.int rng c))
      done
    | _ -> ());
    for v = 0 to n - 1 do
      sends.(v) <- (not d.node_dead.(v)) && pick v buf.(v)
    done;
    Net.broadcast_round net send;
    sync ();
    for u = 0 to n - 1 do
      if sends.(u) then begin
        relays.(u) <- relays.(u) + 1;
        fan_out u buf.(u)
      end
    done
  done;
  let us, vs = Graph.csr_endpoints g in
  let edge_crossings =
    Array.init (Graph.m g) (fun e -> relays.(us.(e)) + relays.(vs.(e)))
  in
  { d; start; relays; edge_crossings }

let fault_free net run ~failure =
  if not (all_done run.d) then failwith failure;
  finish net run.start ~messages:run.d.total ~relays:run.relays
    ~edge_crossings:run.edge_crossings

let with_faults net run ~dead_trees =
  let d = run.d in
  let rounds = Net.rounds_since net run.start in
  let delivered = ref 0 and pairs = ref 0 in
  for id = 0 to d.total - 1 do
    pairs := !pairs + d.heard_alive.(id);
    if d.alive > 0 && d.heard_alive.(id) = d.alive then incr delivered
  done;
  {
    ft_rounds = rounds;
    ft_messages = d.total;
    ft_delivered = !delivered;
    ft_throughput =
      (if rounds = 0 then 0.
       else float_of_int !delivered /. float_of_int rounds);
    ft_coverage =
      (if d.total = 0 || d.alive = 0 then 1.
       else float_of_int !pairs /. float_of_int (d.total * d.alive));
    ft_survivors = d.alive;
    ft_dead_trees = dead_trees;
    ft_converged = all_done d;
  }

let default_cap ~total ~n = (20 * (total + n)) + 200

(* ------------------------------------------------------------------ *)
(* Dominating-tree packing *)

let packing_trees ~who (packing : Domtree.Packing.t) =
  let trees = Array.of_list packing.Domtree.Packing.trees in
  if Array.length trees = 0 then invalid_arg (who ^ ": empty packing");
  trees

(* Each message rides a uniformly random tree. Members relay it along
   tree edges and time-share across their trees round-robin. Returns the
   run and the number of trees the adversary killed. *)
let packing_rounds ?faults ?repair_every ~rng ~cap net trees ~msgs ~total =
  let tcount = Array.length trees in
  let g = Net.graph net in
  let n = Graph.n g and m = Graph.m g in
  let off = Graph.csr_offsets g
  and adj = Graph.csr_neighbors g
  and ids = Graph.csr_edge_ids g in
  (* membership slots: [slot.(i * n + v)] numbers the pair (tree i,
     member v), or is -1 when v is not in tree i *)
  let slot = Array.make (tcount * n) (-1) in
  let slots = ref 0 in
  Array.iteri
    (fun i tr ->
      Array.iter
        (fun v ->
          if slot.((i * n) + v) < 0 then begin
            slot.((i * n) + v) <- !slots;
            incr slots
          end)
        tr.Domtree.Packing.vertices)
    trees;
  let member i v = slot.((i * n) + v) >= 0 in
  let tree_edge = tree_edges g trees (fun tr -> tr.Domtree.Packing.edges) in
  let is_tree_edge i e = flag tree_edge ((i * m) + e) in
  let tree_dead = Array.make tcount false in
  let tree_of_msg = Array.init total (fun _ -> Random.State.int rng tcount) in
  let d = delivery n total in
  (* relay queues: queue [v * tcount + i] holds the ids node v is to
     rebroadcast on tree i; queue [n * tcount + v] the ids v injects
     into a tree it is not a member of *)
  let fifo = Fifo.create ((n * tcount) + n) in
  let inject v = (n * tcount) + v in
  (* (membership slot, message) -> already adopted *)
  let relayed = flags (!slots * total) in
  (* member v, at membership slot s of live tree i, relays message id
     exactly once *)
  let adopt_at v i s id =
    let k = (s * total) + id in
    if not (flag relayed k) then begin
      set_flag relayed k;
      Fifo.push fifo ((v * tcount) + i) id
    end
  in
  let adopt v i id =
    let s = slot.((i * n) + v) in
    if s >= 0 && not tree_dead.(i) then adopt_at v i s id
  in
  List.iter
    (fun (id, origin) ->
      ignore (hear d origin id);
      let i = tree_of_msg.(id) in
      if member i origin then adopt origin i id
      else Fifo.push fifo (inject origin) id)
    msgs;
  (* A uniform draw over the surviving trees (v < 0) or over those v
     belongs to, ascending: one RNG draw when there is one, else none
     and -1. *)
  let eligible v i = (not tree_dead.(i)) && (v < 0 || member i v) in
  let draw_surviving v =
    let c = ref 0 in
    for i = 0 to tcount - 1 do
      if eligible v i then incr c
    done;
    if !c = 0 then -1
    else begin
      let k = ref (Random.State.int rng !c) and i = ref 0 in
      while !k > 0 || not (eligible v !i) do
        if eligible v !i then decr k;
        incr i
      done;
      !i
    end
  in
  (* where v queues a message it must send again: a surviving tree it
     belongs to; else, while any tree survives, its injection queue
     (after a draw among them all); else nowhere (-1) *)
  let requeue v =
    let j = draw_surviving v in
    if j >= 0 then (v * tcount) + j
    else if draw_surviving (-1) >= 0 then inject v
    else -1
  in
  let dead_trees = ref 0 in
  let kill_tree i =
    if not tree_dead.(i) then begin
      tree_dead.(i) <- true;
      incr dead_trees;
      (* reroute its pending relays *)
      for v = 0 to n - 1 do
        if not d.node_dead.(v) then begin
          let q = (v * tcount) + i in
          while not (Fifo.is_empty fifo q) do
            let id = Fifo.pop fifo q in
            let q' = requeue v in
            Fifo.push fifo (if q' >= 0 then q' else inject v) id
          done
        end
      done
    end
  in
  let sync =
    fault_sync d faults
      ~on_crash:(fun _ ->
        for i = 0 to tcount - 1 do
          if
            (not tree_dead.(i))
            && Array.exists
                 (fun v -> d.node_dead.(v))
                 trees.(i).Domtree.Packing.vertices
          then kill_tree i
        done)
      ~on_kill:
        (List.iter (fun (u, v) ->
             (* a killed pair that is no edge is on no tree *)
             match Graph.edge_index g u v with
             | exception Not_found -> ()
             | e ->
               for i = 0 to tcount - 1 do
                 if (not tree_dead.(i)) && is_tree_edge i e then kill_tree i
               done))
  in
  let resend v id =
    let q = requeue v in
    if q >= 0 then Fifo.push fifo q id
  in
  (* round robin over v's trees from [rr.(v)]: the first with a pending
     relay, or -1 *)
  let rr = Array.make n 0 in
  let next_pending v =
    let found = ref (-1) and tried = ref 0 in
    while !found < 0 && !tried < tcount do
      let i = (rr.(v) + !tried) mod tcount in
      if Fifo.is_empty fifo ((v * tcount) + i) then incr tried
      else begin
        rr.(v) <- (i + 1) mod tcount;
        found := i
      end
    done;
    !found
  in
  let pick v (buf : Net.msg) =
    if not (Fifo.is_empty fifo (inject v)) then begin
      let id = Fifo.pop fifo (inject v) in
      let i0 = tree_of_msg.(id) in
      let i =
        if not tree_dead.(i0) then i0
        else
          let j = draw_surviving (-1) in
          if j >= 0 then begin
            tree_of_msg.(id) <- j;
            j
          end
          else i0
      in
      buf.(0) <- i;
      buf.(1) <- id;
      true
    end
    else
      let i = next_pending v in
      i >= 0
      && begin
           buf.(0) <- i;
           buf.(1) <- Fifo.pop fifo ((v * tcount) + i);
           true
         end
  in
  (* [u] broadcast message [id] on tree [i]. A live receiver [v] hears
     it, and a member of [i] adopts it for relaying if [u]-[v] is an
     edge of [i] or if [u] is a non-member injecting it. *)
  let fan_out u (msg : Net.msg) =
    let i = msg.(0) and id = msg.(1) in
    let row = i * n and erow = i * m in
    let injected = slot.(row + u) < 0 and live = not tree_dead.(i) in
    for s = off.(u) to off.(u + 1) - 1 do
      let v = adj.(s) in
      if Net.delivered net u s && not d.node_dead.(v) then begin
        ignore (hear d v id);
        let sv = slot.(row + v) in
        if sv >= 0 && live && (injected || flag tree_edge (erow + ids.(s)))
        then adopt_at v i sv id
      end
    done
  in
  let run =
    run_rounds ?repair_every net d ~sync ~rng ~cap ~width:2 ~resend ~pick
      ~fan_out
  in
  (run, !dead_trees)

let via_dominating_trees ?(seed = 42) net packing ~sources =
  let who = "Broadcast.via_dominating_trees" in
  let trees = packing_trees ~who packing in
  let n = Net.n net in
  let rng = Random.State.make [| seed; n; Array.length trees |] in
  let msgs, total = expand_sources ~who ~n sources in
  let run, _ =
    packing_rounds ~rng ~cap:(100 * (total + n)) net trees ~msgs ~total
  in
  fault_free net run ~failure:(who ^ ": did not converge (bad packing?)")

let via_dominating_trees_ft ?(seed = 42) ?(repair_every = 8) net faults packing
    ~sources =
  let who = "Broadcast.via_dominating_trees_ft" in
  let trees = packing_trees ~who packing in
  let n = Net.n net in
  let rng = Random.State.make [| seed; n; Array.length trees; 17 |] in
  let msgs, total = expand_sources ~who ~n sources in
  let run, dead_trees =
    packing_rounds ~faults ~repair_every ~rng ~cap:(default_cap ~total ~n) net
      trees ~msgs ~total
  in
  with_faults net run ~dead_trees

(* ------------------------------------------------------------------ *)
(* Baseline: single BFS tree *)

(* Pipeline every message over the tree given by [parent]. Under an
   adversary the tree itself is never routed around: returns the run
   and 1 if a crash or an edge kill hit it, else 0. *)
let single_tree_rounds ?faults ?repair_every ~cap net ~parent ~msgs ~total =
  let n = Net.n net in
  (* u-v is a tree edge iff one is the other's parent; a root is its
     own parent or has none *)
  let tree_edge u v = u <> v && (parent.(u) = v || parent.(v) = u) in
  let in_tree = Array.make n false in
  Array.iteri
    (fun v p ->
      if p >= 0 && p <> v then begin
        in_tree.(v) <- true;
        in_tree.(p) <- true
      end)
    parent;
  let g = Net.graph net in
  let off = Graph.csr_offsets g and adj = Graph.csr_neighbors g in
  let d = delivery n total in
  let fifo = Fifo.create n in
  let learn v id = if hear d v id then Fifo.push fifo v id in
  List.iter (fun (id, origin) -> learn origin id) msgs;
  let tree_hit = ref false in
  let sync =
    fault_sync d faults
      ~on_crash:(fun crashed ->
        if List.exists (fun v -> in_tree.(v)) crashed then tree_hit := true)
      ~on_kill:(fun killed ->
        if List.exists (fun (u, v) -> tree_edge u v) killed then
          tree_hit := true)
  in
  let pick v (buf : Net.msg) =
    (not (Fifo.is_empty fifo v))
    && begin
         buf.(0) <- Fifo.pop fifo v;
         true
       end
  in
  (* a live receiver learns [u]'s message over a tree edge only *)
  let fan_out u (msg : Net.msg) =
    for s = off.(u) to off.(u + 1) - 1 do
      let v = adj.(s) in
      if Net.delivered net u s && (not d.node_dead.(v)) && tree_edge v u then
        learn v msg.(0)
    done
  in
  let run =
    run_rounds ?repair_every net d ~sync
      ~rng:(Random.State.make [| 42; n; total; 19 |])
      ~cap ~width:1
      ~resend:(fun v id -> Fifo.push fifo v id)
      ~pick ~fan_out
  in
  (run, if !tree_hit then 1 else 0)

let naive_single_tree net ~sources =
  let who = "Broadcast.naive_single_tree" in
  let msgs, total = expand_sources ~who ~n:(Net.n net) sources in
  let tree = Congest.Primitives.bfs_tree net ~root:0 in
  let run, _ =
    single_tree_rounds
      ~cap:(100 * (total + Net.n net))
      net ~parent:tree.Congest.Primitives.parent ~msgs ~total
  in
  fault_free net run ~failure:(who ^ ": did not converge")

let naive_single_tree_ft ?(repair_every = 8) net faults ~sources =
  let msgs, total =
    expand_sources ~who:"Broadcast.naive_single_tree_ft" ~n:(Net.n net) sources
  in
  let cap = default_cap ~total ~n:(Net.n net) in
  (* the tree predates the faults: build it on a fault-free scratch net
     over the same graph and charge those rounds to the real clock *)
  let scratch = Net.create (Net.model net) (Net.graph net) in
  let tree = Congest.Primitives.bfs_tree scratch ~root:0 in
  Net.silent_rounds net (Net.rounds scratch);
  let run, dead_trees =
    single_tree_rounds ~faults ~repair_every ~cap net
      ~parent:tree.Congest.Primitives.parent ~msgs ~total
  in
  with_faults net run ~dead_trees
