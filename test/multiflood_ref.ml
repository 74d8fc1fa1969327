(* Reference copies of the scan-based virtual-graph floods
   ([Multiflood.flood_min], [Multiflood.flood_min_on_change] and
   [Multiflood.find] before the per-receiver class->slot row and before
   floods sent one value), kept as the oracles of differential
   properties. They flood (value, tiebreak) pairs and send every pair,
   whatever it is. Fed pairs whose tiebreak is a function of the value,
   the one-value floods of [Domtree.Multiflood] must reach the same
   state in the same rounds, with no more messages and words. *)

module Net = Congest.Net
module Multiflood = Domtree.Multiflood

let find (sl : Multiflood.slots) r i =
  let hi = sl.Multiflood.off.(r + 1) in
  let rec go s =
    if s >= hi then -1 else if sl.Multiflood.cls.(s) = i then s else go (s + 1)
  in
  go sl.Multiflood.off.(r)

let max_slots (sl : Multiflood.slots) =
  let best = ref 0 in
  for r = 0 to Array.length sl.Multiflood.off - 2 do
    best := max !best (sl.Multiflood.off.(r + 1) - sl.Multiflood.off.(r))
  done;
  !best

let init_pairs net (sl : Multiflood.slots) ~init =
  let n = Net.n net in
  let off = sl.Multiflood.off and cls = sl.Multiflood.cls in
  let first = Array.make (Array.length cls) 0 in
  let value = Array.make (Array.length cls) 0 in
  let tiebreak = Array.make (Array.length cls) 0 in
  for r = 0 to n - 1 do
    for s = off.(r) to off.(r + 1) - 1 do
      let f = find sl r cls.(s) in
      first.(s) <- f;
      if f = s then begin
        let v, t = init r s in
        value.(s) <- v;
        tiebreak.(s) <- t
      end
    done
  done;
  (first, value, tiebreak)

(* [adopt sl value tiebreak r m] lowers r's pair of m's class to m's
   pair if that is smaller, and returns the first slot it lowered or
   -1 *)
let adopt sl value tiebreak r (m : Net.msg) =
  let f = find sl r m.(0) in
  if f < 0 then -1
  else begin
    let v = m.(1) and t = m.(2) in
    if v < value.(f) || (v = value.(f) && t < tiebreak.(f)) then begin
      value.(f) <- v;
      tiebreak.(f) <- t;
      f
    end
    else -1
  end

let result first value tiebreak =
  Array.iteri
    (fun s f ->
      value.(s) <- value.(f);
      tiebreak.(s) <- tiebreak.(f))
    first;
  (value, tiebreak)

let flood_min net (sl : Multiflood.slots) ~init =
  let off = sl.Multiflood.off and cls = sl.Multiflood.cls in
  let first, value, tiebreak = init_pairs net sl ~init in
  let changed = ref true in
  let adopt r _ _ m =
    if adopt sl value tiebreak r m >= 0 then changed := true
  in
  while !changed do
    changed := false;
    for k = 0 to max_slots sl - 1 do
      Net.broadcast_round net (fun r ->
          let s = off.(r) + k in
          if s < off.(r + 1) then begin
            let f = first.(s) in
            Some [| cls.(s); value.(f); tiebreak.(f) |]
          end
          else None);
      Net.iter_deliveries net adopt
    done
  done;
  result first value tiebreak

let flood_min_on_change net (sl : Multiflood.slots) ~init =
  let off = sl.Multiflood.off and cls = sl.Multiflood.cls in
  let first, value, tiebreak = init_pairs net sl ~init in
  let pending = Array.mapi (fun s f -> f = s) first in
  let adopt r _ _ m =
    let f = adopt sl value tiebreak r m in
    if f >= 0 then pending.(f) <- true
  in
  let sent = ref (Array.exists Fun.id pending) in
  while !sent do
    sent := false;
    Net.broadcast_round net (fun r ->
        let rec first_pending s =
          if s >= off.(r + 1) then None
          else if pending.(s) then begin
            pending.(s) <- false;
            sent := true;
            Some [| cls.(s); value.(s); tiebreak.(s) |]
          end
          else first_pending (s + 1)
        in
        first_pending off.(r));
    Net.iter_deliveries net adopt
  done;
  result first value tiebreak
