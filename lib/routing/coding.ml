module Net = Congest.Net

type result = {
  rounds : int;
  messages : int;
  throughput : float;
  transmissions : int;
  decoded_all : bool;
}

(* GF(2) vectors as limb arrays; 16-bit limbs so each fits comfortably
   within the runtime's O(log n) word-width bound. *)
let limb_bits = 16

let limbs_for bits = (bits + limb_bits - 1) / limb_bits

let coefficient_words ~n ~messages =
  ignore n;
  limbs_for messages

(* Row space with incremental Gaussian elimination: rows kept in reduced
   form, indexed by pivot position. *)
type span = {
  mutable rows : int array list;
  mutable rank : int;
  nbits : int;
}

let make_span nbits = { rows = []; rank = 0; nbits }

let get_bit v i = (v.(i / limb_bits) lsr (i mod limb_bits)) land 1

let xor_into dst src = Array.iteri (fun i x -> dst.(i) <- dst.(i) lxor x) src

let top_bit v nbits =
  let rec go i = if i < 0 then -1 else if get_bit v i = 1 then i else go (i - 1) in
  go (nbits - 1)

(* Returns true if the vector increased the rank. *)
let insert span v =
  let v = Array.copy v in
  let continue = ref true in
  let added = ref false in
  while !continue do
    let t = top_bit v span.nbits in
    if t < 0 then continue := false
    else begin
      match
        List.find_opt (fun row -> top_bit row span.nbits = t) span.rows
      with
      | Some row -> xor_into v row
      | None ->
        span.rows <- v :: span.rows;
        span.rank <- span.rank + 1;
        added := true;
        continue := false
    end
  done;
  !added

let random_of_span rng span =
  match span.rows with
  | [] -> None
  | rows ->
    let nlimbs = limbs_for span.nbits in
    let acc = Array.make nlimbs 0 in
    let nonzero = ref false in
    List.iter
      (fun row ->
        if Random.State.bool rng then begin
          xor_into acc row;
          nonzero := true
        end)
      rows;
    if (not !nonzero) || Array.for_all (fun x -> x = 0) acc then
      (* fall back to a basis row so every slot carries information *)
      Some (Array.copy (List.hd rows))
    else Some acc

(* the data part of a packet, in words *)
let payload_words = 1

let rlnc_broadcast ?(seed = 42) ?(coeff_words_per_round = 6) net ~sources =
  let n = Net.n net in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 sources in
  if total = 0 then invalid_arg "Coding.rlnc_broadcast: no messages";
  let rng = Random.State.make [| seed; n; total |] in
  let nlimbs = limbs_for total in
  let spans = Array.init n (fun _ -> make_span total) in
  (* sources hold unit vectors *)
  let next = ref 0 in
  List.iter
    (fun (origin, count) ->
      for _ = 1 to count do
        let v = Array.make nlimbs 0 in
        v.(!next / limb_bits) <- 1 lsl (!next mod limb_bits);
        incr next;
        ignore (insert spans.(origin) v)
      done)
    sources;
  let max_rounds = 200 * (total + n) * (limbs_for total + payload_words) in
  (* one packet = nlimbs coefficient words + payload_words, chunked into
     broadcast rounds of at most the per-round coefficient budget (the
     model's O(log n) bits, scaled by the caller's constant) *)
  let budget = max 1 (min 6 coeff_words_per_round) in
  let words_per_packet = nlimbs + payload_words in
  let chunks = (words_per_packet + budget - 1) / budget in
  let start = Net.rounds net in
  let transmissions = ref 0 in
  let all_decoded () = Array.for_all (fun s -> s.rank = total) spans in
  let rounds_used () = Net.rounds net - start in
  while (not (all_decoded ())) && rounds_used () < max_rounds do
    (* each node draws one random packet of its span for this slot *)
    let packet = Array.map (fun s -> random_of_span rng s) spans in
    Array.iter (fun p -> if p <> None then incr transmissions) packet;
    (* ship it chunk by chunk; receivers apply on the last chunk *)
    for chunk = 0 to chunks - 1 do
      Net.broadcast_round net (fun v ->
          match packet.(v) with
          | None -> None
          | Some vec ->
            let from = chunk * budget in
            let upto = min nlimbs (from + budget) in
            let coeff_part =
              if from >= nlimbs then []
              (* lint: allow msg-budget — [upto - from <= budget <= 6] by
                 construction: this is the fixed-width chunking that keeps
                 each packet under Model.words_budget *)
              else Array.to_list (Array.sub vec from (upto - from))
            in
            (* pad the final chunk with payload filler words *)
            let filler =
              if chunk = chunks - 1 then
                List.init
                  (min payload_words (budget - List.length coeff_part))
                  (fun _ -> 0)
              else []
            in
            (* lint: allow msg-budget — 1 + |coeff_part| + |filler| <=
               1 + budget <= 7 words, inside Model.words_budget: the
               chunk loop exists precisely to bound this encoding *)
            Some (Array.of_list ((chunk :: coeff_part) @ filler)));
      if chunk = chunks - 1 then
        Net.iter_deliveries net (fun v sender _ _ ->
            match packet.(sender) with
            | Some vec -> ignore (insert spans.(v) vec)
            | None -> ())
    done
  done;
  let rounds = max 1 (rounds_used ()) in
  {
    rounds;
    messages = total;
    throughput = float_of_int total /. float_of_int rounds;
    transmissions = !transmissions;
    decoded_all = all_decoded ();
  }
