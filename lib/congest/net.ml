module Graph = Graphs.Graph

type msg = int array

type violation = {
  v_round : int;
  v_node : int option;
  v_edge : (int * int) option;
  v_budget : int option;
  v_detail : string;
}

exception Protocol_violation of violation

let pp_violation ppf v =
  Format.fprintf ppf "round %d" v.v_round;
  (match v.v_node with
  | Some u -> Format.fprintf ppf ", node %d" u
  | None -> ());
  (match v.v_edge with
  | Some (u, w) -> Format.fprintf ppf ", edge (%d,%d)" u w
  | None -> ());
  (match v.v_budget with
  | Some b -> Format.fprintf ppf ", budget %d" b
  | None -> ());
  Format.fprintf ppf ": %s" v.v_detail

let () =
  Printexc.register_printer (function
    | Protocol_violation v ->
      Some (Format.asprintf "Congest.Net.Protocol_violation (%a)" pp_violation v)
    | _ -> None)

type fault_hook = {
  on_round_start : int -> unit;
  node_alive : int -> bool;
  deliver : src:int -> dst:int -> edge:int -> msg -> bool;
  reset : unit -> unit;
  save : unit -> unit -> unit;
      (* snapshot adversary state; the returned thunk restores it *)
}

(* Pre-registered instrument bundle: lookups (which take the registry
   mutex) happen once in [make_obs]; the per-round path only touches
   atomics. Metrics feed from the same counters the replay digests
   certify but are written out-of-band — attaching or detaching obs
   cannot change a round digest or any telemetry field, so
   [replay_check] is oblivious to it by construction. *)
type obs = {
  o_rounds : Obs.Metrics.counter;
  o_messages : Obs.Metrics.counter;
  o_words : Obs.Metrics.counter;
  o_words_lost : Obs.Metrics.counter;
  o_budget_words : Obs.Metrics.counter;
      (* capacity actually offered to the traffic sent: messages ×
         words_budget, so words/budget_words is budget utilization *)
  o_spans : Obs.Span.t;
}

(* Sender-slot arenas, sized 2m on the first round that needs them (any
   edge round, or a broadcast round under a fault hook). Sender u's
   traffic to v lives at u's CSR slot for v; the inbox view reads
   direction (u -> v) from v's own slice through [mirror]. *)
type arenas = {
  mirror : int array;  (* slot (u lists v) -> slot (v lists u) *)
  out_msg : msg array;  (* sender slot -> its edge-round message *)
  fate : int array;
      (* sender slot -> [tag] if its message was delivered in round
         [tag], [-tag] if the fault hook destroyed it; any other value
         means no message on that slot this round *)
}

(* What the last round left in the buffers: nothing (no round yet, or
   it raised), [sent] of every sender, [sent] where [fate] holds the
   round's stamp, or [out_msg] at the stamped slots. *)
type last_round =
  | No_round
  | Broadcast
  | Faulty_broadcast of arenas
  | Edge of arenas

(* Digests per trace chunk: the trace costs about a word per round,
   where a list cell costs three. A chunk is larger than the minor
   heap's largest block (256 words), so it is allocated straight in the
   major heap: a minor collection never copies the trace, which a run
   keeps live to its end. *)
let trace_chunk = 1024

type t = {
  graph : Graph.t;
  (* CSR views of [graph], captured once: the round walks and the
     inbox view walk adjacency slots directly *)
  csr_off : int array;
  csr_adj : int array;
  csr_ids : int array;
  model : Model.t;
  words_budget : int;
  max_word : int;
  mutable rounds : int;
  mutable messages : int;
  mutable words : int;
  mutable messages_lost : int;
  mutable words_lost : int;
  mutable last : last_round;
      (* the kind of the last round, hence where its inbox view reads *)
  (* broadcast round, per sender: its message and, in a fault-free
     round, that message's length (-1 = silent this round) *)
  sent : msg array;
  sent_len : int array;
  (* per receiver, during a round: the hash of its in-traffic so far,
     seeded with its id; [end_round] reads and resets it *)
  rh : int array;
  mutable arenas : arenas option;
  mutable tag : int;  (* one fresh stamp per round *)
  mutable boundary : (int -> bool) option;
      (* Alice/Bob side predicate for two-party simulation accounting *)
  mutable boundary_words : int;
  mutable faults : fault_hook option;
  (* the digest trace, one digest per message round: full chunks of
     [trace_chunk] digests, newest first and never written again, then
     [trace_len] digests in the chunk being filled *)
  mutable trace_full : int array list;
  mutable trace_cur : int array;
  mutable trace_len : int;
  mutable obs : obs option;
  (* counter values as of the previous end_round, so obs counters get
     per-round deltas and survive [reset_stats] without double-counting *)
  mutable obs_prev_messages : int;
  mutable obs_prev_words : int;
  mutable obs_prev_words_lost : int;
  mutable obs_round_tok : Obs.Span.token option;
}

let create model g =
  let n = Graph.n g in
  {
    graph = g;
    csr_off = Graph.csr_offsets g;
    csr_adj = Graph.csr_neighbors g;
    csr_ids = Graph.csr_edge_ids g;
    model;
    words_budget = Model.words_budget ~n;
    max_word = Model.max_word ~n;
    rounds = 0;
    messages = 0;
    words = 0;
    messages_lost = 0;
    words_lost = 0;
    last = No_round;
    sent = Array.make n [||];
    sent_len = Array.make n (-1);
    rh = Array.init n Fun.id;
    arenas = None;
    tag = 0;
    boundary = None;
    boundary_words = 0;
    faults = None;
    trace_full = [];
    trace_cur = Array.make trace_chunk 0;
    trace_len = 0;
    obs = None;
    obs_prev_messages = 0;
    obs_prev_words = 0;
    obs_prev_words_lost = 0;
    obs_round_tok = None;
  }

let make_obs ?(spans = Obs.Span.disabled) metrics =
  {
    o_rounds = Obs.Metrics.counter metrics "congest_rounds_total";
    o_messages = Obs.Metrics.counter metrics "congest_messages_total";
    o_words = Obs.Metrics.counter metrics "congest_words_total";
    o_words_lost = Obs.Metrics.counter metrics "congest_words_lost_total";
    o_budget_words = Obs.Metrics.counter metrics "congest_budget_words_total";
    o_spans = spans;
  }

let attach_obs net o =
  net.obs <- Some o;
  net.obs_prev_messages <- net.messages;
  net.obs_prev_words <- net.words;
  net.obs_prev_words_lost <- net.words_lost

let detach_obs net =
  net.obs <- None;
  net.obs_round_tok <- None

let graph net = net.graph
let model net = net.model
let n net = Graph.n net.graph

let violate ?node ?edge ?budget net detail =
  raise
    (Protocol_violation
       {
         v_round = net.rounds;
         v_node = node;
         v_edge = edge;
         v_budget = budget;
         v_detail = detail;
       })

(* FNV-style mix. The round digest is built per receiver: each
   receiver's in-traffic — for each message, senders descending, the tag
   (1 delivered, 2 destroyed), the sender and the payload hash — is
   folded into a hash seeded with the receiver's id ([rh]), and those
   hashes are folded into the round digest in receiver order. Two
   executions agree on a round's digest iff they moved bit-identical
   traffic with an identical fault outcome (DESIGN.md §7). *)
let mix h x = ((h lxor x) * 0x01000193) land 0x3FFFFFFFFFFFFFF

let digest_in h ~tag ~src hm = mix (mix (mix h tag) src) hm

(* [validate net ~node m] checks [m] against the word budget and width
   bound and returns its payload hash, the FNV fold of its words: each
   payload is read once, and each of its copies hashes only ints. *)
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

let install_faults net hook = net.faults <- Some hook
let clear_faults net = net.faults <- None
let has_faults net = Option.is_some net.faults

let arenas net =
  match net.arenas with
  | Some a -> a
  | None ->
    let ids = Graph.csr_edge_ids net.graph in
    let slots = Array.length ids in
    let mirror = Array.make slots 0 in
    (* the two slots of each undirected edge point at each other *)
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
        fate = Array.make slots 0;
      }
    in
    net.arenas <- Some a;
    a

let begin_round net =
  net.tag <- net.tag + 1;
  (* a round that raised left its partial per-receiver hashes behind
     (and no view): start from clean ones *)
  (match net.last with
  | No_round ->
    for v = 0 to Array.length net.rh - 1 do
      net.rh.(v) <- v
    done
  | Broadcast | Faulty_broadcast _ | Edge _ -> ());
  (* the previous round's view ends here; a round that raises leaves
     none *)
  net.last <- No_round;
  (match net.obs with
  | None -> ()
  | Some o ->
    if Obs.Span.is_enabled o.o_spans then
      net.obs_round_tok <- Some (Obs.Span.start o.o_spans "congest.round"));
  match net.faults with
  | Some h -> h.on_round_start net.rounds
  | None -> ()

(* Close the round: one pass over the receivers, ascending, folds each
   receiver's hash into the round digest and resets it for the next
   round; then the walk's tallies go into the net's counters. *)
let end_round net ~msgs ~words ~lost ~wlost ~cross =
  let rh = net.rh in
  let digest = ref 0 in
  for v = 0 to Array.length rh - 1 do
    digest := mix !digest rh.(v);
    rh.(v) <- v
  done;
  net.messages <- net.messages + msgs;
  net.words <- net.words + words;
  net.messages_lost <- net.messages_lost + lost;
  net.words_lost <- net.words_lost + wlost;
  net.boundary_words <- net.boundary_words + cross;
  net.rounds <- net.rounds + 1;
  if net.trace_len = trace_chunk then begin
    net.trace_full <- net.trace_cur :: net.trace_full;
    net.trace_cur <- Array.make trace_chunk 0;
    net.trace_len <- 0
  end;
  net.trace_cur.(net.trace_len) <- !digest;
  net.trace_len <- net.trace_len + 1;
  match net.obs with
  | None -> ()
  | Some o ->
    let dm = net.messages - net.obs_prev_messages in
    Obs.Metrics.incr o.o_rounds;
    Obs.Metrics.add o.o_messages dm;
    Obs.Metrics.add o.o_words (net.words - net.obs_prev_words);
    Obs.Metrics.add o.o_words_lost (net.words_lost - net.obs_prev_words_lost);
    Obs.Metrics.add o.o_budget_words (dm * net.words_budget);
    net.obs_prev_messages <- net.messages;
    net.obs_prev_words <- net.words;
    net.obs_prev_words_lost <- net.words_lost;
    (match net.obs_round_tok with
    | Some tok ->
      net.obs_round_tok <- None;
      Obs.Span.finish o.o_spans tok
    | None -> ())

(* One V-CONGEST round, in one walk over the senders, descending, and
   the receiver pass of [end_round] (DESIGN.md §10):

   Each sender is asked for its message, which is validated and stored
   in [sent]; the first violation, the highest offending sender's,
   raises before anything reaches the net's counters. The sender then
   walks its own out-slots only: each copy is folded into its
   receiver's [rh]. Words are counted at the sender: [len] times its
   degree when every copy is delivered, [len] per delivered copy under
   a fault hook. There a crashed sender is not asked, and [deliver] (a
   pure function of the copy, DESIGN.md §6) decides each copy, its fate
   recorded in the sender's slot. Silent senders cost nothing but their
   [send] call.

   A receiver's slice is ascending, so the senders reaching it in this
   walk come in the order a descending walk of its slice would meet
   them: [rh] gets the same folds as a receiver-major walk would make.

   The inbox view ({!iter_inbox}) then reads [sent] (and [fate]) in
   place: nothing is copied per delivery. *)
let broadcast_round net send =
  let hook = net.faults in
  let fate = match hook with None -> [||] | Some _ -> (arenas net).fate in
  begin_round net;
  let tag = net.tag in
  let bounded, side =
    match net.boundary with Some f -> (true, f) | None -> (false, fun _ -> false)
  in
  let off = net.csr_off and adj = net.csr_adj and ids = net.csr_ids in
  let sent = net.sent and sent_len = net.sent_len in
  let rh = net.rh in
  let n = Array.length sent in
  let msgs = ref 0 and words = ref 0 and lost = ref 0 and wlost = ref 0 in
  let cross = ref 0 in
  (match hook with
  | None ->
    for u = n - 1 downto 0 do
      match send u with
      | None -> sent_len.(u) <- -1
      | Some m ->
        let hm = validate net ~node:u m and len = Array.length m in
        sent.(u) <- m;
        sent_len.(u) <- len;
        let lo = off.(u) and hi = off.(u + 1) in
        msgs := !msgs + (hi - lo);
        words := !words + (len * (hi - lo));
        for s = lo to hi - 1 do
          let v = adj.(s) in
          rh.(v) <- digest_in rh.(v) ~tag:1 ~src:u hm
        done;
        if bounded then
          for s = lo to hi - 1 do
            if side u <> side adj.(s) then cross := !cross + len
          done
    done
  | Some h ->
    for u = n - 1 downto 0 do
      match if h.node_alive u then send u else None with
      | None -> ()
      | Some m ->
        let hm = validate net ~node:u m and len = Array.length m in
        sent.(u) <- m;
        for s = off.(u) to off.(u + 1) - 1 do
          let v = adj.(s) in
          if h.deliver ~src:u ~dst:v ~edge:ids.(s) m then begin
            fate.(s) <- tag;
            rh.(v) <- digest_in rh.(v) ~tag:1 ~src:u hm;
            incr msgs;
            words := !words + len;
            if bounded && side u <> side v then cross := !cross + len
          end
          else begin
            fate.(s) <- -tag;
            rh.(v) <- digest_in rh.(v) ~tag:2 ~src:u hm;
            incr lost;
            wlost := !wlost + len
          end
        done
    done);
  end_round net ~msgs:!msgs ~words:!words ~lost:!lost ~wlost:!wlost
    ~cross:!cross;
  net.last <-
    (match hook with
    | None -> Broadcast
    | Some _ -> Faulty_broadcast (arenas net))

(* binary search for [v] in [u]'s sorted CSR slice; -1 when absent *)
let slot_in off adj u v =
  let lo = ref off.(u) and hi = ref off.(u + 1) in
  let found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let w = adj.(mid) in
    if w = v then found := mid else if w < v then lo := mid + 1 else hi := mid
  done;
  !found

(* One E-CONGEST round; the same walk as [broadcast_round], each
   sender's list staged message by message at its sender slot: the
   slot's [fate] stamp doubles as the duplicate-direction check, and
   under a fault hook [deliver] is consulted right after each message
   validates. The list is walked by a loop, not a closure, so the
   tallies stay unboxed locals. *)
let edge_round net send =
  if net.model = Model.V_congest then
    violate net "edge_round: per-edge messages illegal in V-CONGEST";
  let hook = net.faults in
  let { out_msg; fate; _ } = arenas net in
  begin_round net;
  let tag = net.tag in
  let bounded, side =
    match net.boundary with Some f -> (true, f) | None -> (false, fun _ -> false)
  in
  let off = net.csr_off and adj = net.csr_adj and ids = net.csr_ids in
  let rh = net.rh in
  let msgs = ref 0 and words = ref 0 and lost = ref 0 and wlost = ref 0 in
  let cross = ref 0 in
  for u = Array.length rh - 1 downto 0 do
    let alive = match hook with Some h -> h.node_alive u | None -> true in
    let out = ref (if alive then send u else []) in
    (* [next] is the slot after the previous target's: protocols list
       targets in neighbour order, so it is usually the slot sought and
       the binary search is skipped *)
    let next = ref off.(u) and more = ref true in
    while !more do
      match !out with
      | [] -> more := false
      | (v, m) :: rest ->
        out := rest;
        let s =
          if !next < off.(u + 1) && adj.(!next) = v then !next
          else slot_in off adj u v
        in
        if s < 0 then
          violate net ~node:u ~edge:(u, v)
            "edge_round: message along a non-edge";
        if abs fate.(s) = tag then
          violate net ~node:u ~edge:(u, v)
            "edge_round: two messages on one edge direction";
        fate.(s) <- tag;
        let hm = validate net ~node:u m and len = Array.length m in
        out_msg.(s) <- m;
        (match hook with
        | Some h when not (h.deliver ~src:u ~dst:v ~edge:ids.(s) m) ->
          fate.(s) <- -tag;
          rh.(v) <- digest_in rh.(v) ~tag:2 ~src:u hm;
          incr lost;
          wlost := !wlost + len
        | _ ->
          rh.(v) <- digest_in rh.(v) ~tag:1 ~src:u hm;
          incr msgs;
          words := !words + len;
          if bounded && side u <> side v then cross := !cross + len);
        next := s + 1
    done
  done;
  end_round net ~msgs:!msgs ~words:!words ~lost:!lost ~wlost:!wlost
    ~cross:!cross;
  net.last <- Edge (arenas net)

(* The inbox view: [v]'s CSR slice walked forward (senders ascending),
   each slot delivering what the last round's buffers hold for it. *)
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
    (* only a sender that sent stamps its slots this round *)
    for s = off.(v) to off.(v + 1) - 1 do
      if fate.(mirror.(s)) = tag then f v adj.(s) ids.(s) sent.(adj.(s))
    done
  | Edge { mirror; fate; out_msg; _ } ->
    for s = off.(v) to off.(v + 1) - 1 do
      let s_out = mirror.(s) in
      if fate.(s_out) = tag then f v adj.(s) ids.(s) out_msg.(s_out)
    done

(* The sender-side reading of the same buffers: whether the copy [u]
   put on its own slot [s] in the last round reached [adj.(s)]. *)
let delivered net u s =
  match net.last with
  | No_round -> false
  | Broadcast -> net.sent_len.(u) >= 0
  | Faulty_broadcast { fate; _ } | Edge { fate; _ } -> fate.(s) = net.tag

let iter_deliveries net f =
  for v = 0 to n net - 1 do
    iter_inbox net v f
  done

let silent_rounds net k =
  if k < 0 then invalid_arg "Congest.silent_rounds: negative";
  net.rounds <- net.rounds + k

let rounds net = net.rounds
let messages_sent net = net.messages
let words_sent net = net.words
let messages_lost net = net.messages_lost
let words_lost net = net.words_lost

let reset_stats net =
  net.rounds <- 0;
  net.messages <- 0;
  net.words <- 0;
  net.messages_lost <- 0;
  net.words_lost <- 0;
  net.boundary_words <- 0;
  net.trace_full <- [];
  net.trace_len <- 0;
  (* obs counters are cumulative across resets: re-base the deltas *)
  net.obs_prev_messages <- 0;
  net.obs_prev_words <- 0;
  net.obs_prev_words_lost <- 0

let set_boundary net side = net.boundary <- Some side
let clear_boundary net = net.boundary <- None
let boundary_words net = net.boundary_words

let node_alive net u =
  match net.faults with None -> true | Some h -> h.node_alive u

(* ------------------------------------------------------------------ *)
(* Barriers: full-state snapshots for deterministic rollback *)

type barrier = {
  b_rounds : int;
  b_messages : int;
  b_words : int;
  b_messages_lost : int;
  b_words_lost : int;
  b_boundary_words : int;
  b_trace_full : int array list;
  b_trace_cur : int array;  (* a copy of the partial chunk *)
  b_restore_faults : (unit -> unit) option;
}

let barrier net =
  {
    b_rounds = net.rounds;
    b_messages = net.messages;
    b_words = net.words;
    b_messages_lost = net.messages_lost;
    b_words_lost = net.words_lost;
    b_boundary_words = net.boundary_words;
    b_trace_full = net.trace_full;
    b_trace_cur = Array.sub net.trace_cur 0 net.trace_len;
    b_restore_faults = Option.map (fun h -> h.save ()) net.faults;
  }

let rollback net b =
  net.rounds <- b.b_rounds;
  net.messages <- b.b_messages;
  net.words <- b.b_words;
  net.messages_lost <- b.b_messages_lost;
  net.words_lost <- b.b_words_lost;
  net.boundary_words <- b.b_boundary_words;
  net.trace_full <- b.b_trace_full;
  net.trace_cur <- Array.make trace_chunk 0;
  net.trace_len <- Array.length b.b_trace_cur;
  Array.blit b.b_trace_cur 0 net.trace_cur 0 net.trace_len;
  match b.b_restore_faults with Some restore -> restore () | None -> ()

let discarded_since net b = net.rounds - b.b_rounds

(* ------------------------------------------------------------------ *)
(* Determinism sanitizer *)

(* The digest trace, chronological. *)
let trace net =
  let full = List.length net.trace_full in
  let a = Array.make ((full * trace_chunk) + net.trace_len) 0 in
  List.iteri
    (fun i chunk -> Array.blit chunk 0 a ((full - 1 - i) * trace_chunk) trace_chunk)
    net.trace_full;
  Array.blit net.trace_cur 0 a (full * trace_chunk) net.trace_len;
  a

type telemetry = {
  t_rounds : int;
  t_messages : int;
  t_words : int;
  t_messages_lost : int;
  t_words_lost : int;
  t_boundary_words : int;
  t_digests : int array; (* per message round, chronological *)
}

let telemetry net =
  {
    t_rounds = net.rounds;
    t_messages = net.messages;
    t_words = net.words;
    t_messages_lost = net.messages_lost;
    t_words_lost = net.words_lost;
    t_boundary_words = net.boundary_words;
    t_digests = trace net;
  }

let run_digest t = Array.fold_left mix (mix 0 t.t_rounds) t.t_digests

let pp_telemetry ppf t =
  Format.fprintf ppf
    "%d rounds (%d message rounds), %d messages, %d words, %d/%d lost, \
     digest %x"
    t.t_rounds (Array.length t.t_digests) t.t_messages t.t_words
    t.t_messages_lost t.t_words_lost (run_digest t)

let diff_telemetry a b =
  let d = ref [] in
  let cmp name proj =
    if proj a <> proj b then
      d := Printf.sprintf "%s: %d vs %d" name (proj a) (proj b) :: !d
  in
  cmp "rounds" (fun t -> t.t_rounds);
  cmp "messages" (fun t -> t.t_messages);
  cmp "words" (fun t -> t.t_words);
  cmp "messages_lost" (fun t -> t.t_messages_lost);
  cmp "words_lost" (fun t -> t.t_words_lost);
  cmp "boundary_words" (fun t -> t.t_boundary_words);
  (if Array.length a.t_digests <> Array.length b.t_digests then
     d :=
       Printf.sprintf "message rounds: %d vs %d" (Array.length a.t_digests)
         (Array.length b.t_digests)
       :: !d
   else
     match
       Array.to_seq a.t_digests
       |> Seq.zip (Array.to_seq b.t_digests)
       |> Seq.mapi (fun i (x, y) -> (i, x, y))
       |> Seq.find (fun (_, x, y) -> x <> y)
     with
     | Some (i, y, x) ->
       d := Printf.sprintf "round %d digest: %x vs %x" i x y :: !d
     | None -> ());
  List.rev !d

let replay_reset net =
  reset_stats net;
  match net.faults with Some h -> h.reset () | None -> ()

type replay_report = {
  r_first : telemetry;
  r_second : telemetry;
  r_divergence : string option;
}

let deterministic r = r.r_divergence = None

let replay_check net protocol =
  replay_reset net;
  protocol net;
  let first = telemetry net in
  replay_reset net;
  protocol net;
  let second = telemetry net in
  let divergence =
    match diff_telemetry first second with
    | [] -> None
    | ds -> Some (String.concat "; " ds)
  in
  { r_first = first; r_second = second; r_divergence = divergence }
