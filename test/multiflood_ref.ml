(* Reference copy of the scan-based virtual-graph flood
   ([Multiflood.flood_min] and [Multiflood.find] before the per-receiver
   class->slot row), kept as the oracle of a differential property. It
   must send the same messages in the same rounds and reach the same
   fixed point as [Domtree.Multiflood.flood_min]. *)

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

let flood_min net (sl : Multiflood.slots) ~init =
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
  let changed = ref true in
  let adopt r _ _ (m : Net.msg) =
    let f = find sl r m.(0) in
    if f >= 0 then begin
      let v = m.(1) and t = m.(2) in
      if v < value.(f) || (v = value.(f) && t < tiebreak.(f)) then begin
        value.(f) <- v;
        tiebreak.(f) <- t;
        changed := true
      end
    end
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
  Array.iteri
    (fun s f ->
      value.(s) <- value.(f);
      tiebreak.(s) <- tiebreak.(f))
    first;
  (value, tiebreak)
