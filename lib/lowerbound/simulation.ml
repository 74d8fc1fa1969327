module Net = Congest.Net

type report = {
  h : int;
  n : int;
  bandwidth_bits : int;
  implied_round_lower_bound : float;
  measured_rounds : int;
  boundary_bits : int;
  estimate : int;
  truth_small_cut : bool;
}

let bits_per_word ~n =
  4 * int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.))

let bits_per_message ~n = Congest.Model.words_budget ~n * bits_per_word ~n

let two_party_cost ~rounds ~n = 2 * bits_per_message ~n * rounds

let implied_round_lower_bound ~h ~n =
  float_of_int h /. float_of_int (4 * bits_per_message ~n)

let distinguish_via_packing ?(seed = 42) (c : Construction.t) =
  let g = c.Construction.graph in
  let n = Graphs.Graph.n g in
  let net = Net.create Congest.Model.V_congest g in
  Net.set_boundary net (Construction.midline c);
  let result = Domtree.Vc_approx.distributed ~seed net in
  let rounds = Net.rounds net in
  let h = c.Construction.instance.Disjointness.h in
  {
    h;
    n;
    bandwidth_bits = bits_per_message ~n;
    implied_round_lower_bound = implied_round_lower_bound ~h ~n;
    measured_rounds = rounds;
    boundary_bits = Net.boundary_words net * bits_per_word ~n;
    estimate = result.Domtree.Vc_approx.estimate;
    truth_small_cut = Disjointness.intersection c.Construction.instance <> [];
  }

type 'state protocol = {
  init : int -> 'state;
  emit : int -> 'state -> Congest.Net.msg option;
  absorb : int -> 'state -> int -> Congest.Net.msg -> 'state;
}

type replay = {
  rounds_simulated : int;
  bits_exchanged : int;
  lemma_bound_bits : int;
  states_match : bool;
}

let flood_min_protocol =
  {
    init = (fun v -> v);
    emit = (fun _ state -> Some [| state |]);
    absorb = (fun _ state _ m -> min state m.(0));
  }

(* [v]'s state after folding in its neighbours' broadcasts [out],
   senders ascending *)
let absorb_inbox g proto out v state =
  Array.fold_left
    (fun acc u ->
      match out.(u) with Some m -> proto.absorb v acc u m | None -> acc)
    state
    (Graphs.Graph.neighbors g v)

(* Per round, every node first broadcasts from its current state, then
   absorbs its inbox. The global run records every broadcast so the split
   run can splice in exactly the hub messages the other player ships. *)
let two_party_replay (c : Construction.t) proto ~rounds ~equal =
  let g = c.Construction.graph in
  let n = Graphs.Graph.n g in
  if rounds > c.Construction.ell then
    invalid_arg "Simulation.two_party_replay: rounds must be <= ell";
  let hubs =
    let a = ref (-1) and b = ref (-1) in
    Array.iteri
      (fun v role ->
        match role with
        | Construction.Hub_a -> a := v
        | Construction.Hub_b -> b := v
        | _ -> ())
      c.Construction.roles;
    (!a, !b)
  in
  let hub_a, hub_b = hubs in
  (* ------- global run (ground truth), recording every broadcast ------- *)
  let state = Array.init n proto.init in
  let broadcasts = Array.make_matrix rounds n None in
  for r = 0 to rounds - 1 do
    for v = 0 to n - 1 do
      broadcasts.(r).(v) <- proto.emit v state.(v)
    done;
    let new_state = Array.copy state in
    for v = 0 to n - 1 do
      new_state.(v) <- absorb_inbox g proto broadcasts.(r) v state.(v)
    done;
    Array.blit new_state 0 state 0 n
  done;
  let global_final = state in
  (* ------- split run: Alice & Bob, exchanging only hub messages ------- *)
  let run_side ~mine ~other_hub =
    (* [mine r v]: does this player simulate v at round r entry?
       The player's knowledge: states of its nodes; each round it needs
       the broadcasts of all neighbors of its (next-round) set — all of
       which it simulates itself, except the other player's hub. *)
    let st = Array.init n proto.init in
    let bits = ref 0 in
    for r = 0 to rounds - 1 do
      let outgoing =
        Array.init n (fun v ->
            if mine r v then proto.emit v st.(v) else None)
      in
      (* splice in the other hub's broadcast, shipped across the table *)
      (match broadcasts.(r).(other_hub) with
      | Some m ->
        bits := !bits + (Array.length m * bits_per_word ~n);
        outgoing.(other_hub) <- Some m
      | None -> ());
      for v = 0 to n - 1 do
        if mine (r + 1) v then st.(v) <- absorb_inbox g proto outgoing v st.(v)
      done
    done;
    (st, !bits)
  in
  let alice_final, alice_bits =
    run_side ~mine:(fun r v -> Construction.alice_side c r v) ~other_hub:hub_b
  in
  let bob_final, bob_bits =
    run_side ~mine:(fun r v -> Construction.bob_side c r v) ~other_hub:hub_a
  in
  (* every node still simulated at round T by one of the players must
     match the global run *)
  let states_match = ref true in
  for v = 0 to n - 1 do
    let r = rounds in
    if Construction.alice_side c r v then begin
      if not (equal alice_final.(v) global_final.(v)) then states_match := false
    end
    else if Construction.bob_side c r v then
      if not (equal bob_final.(v) global_final.(v)) then states_match := false
  done;
  {
    rounds_simulated = rounds;
    bits_exchanged = alice_bits + bob_bits;
    lemma_bound_bits = two_party_cost ~rounds ~n;
    states_match = !states_match;
  }
