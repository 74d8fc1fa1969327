module Net = Congest.Net

type slots = { off : int array; cls : int array }

let layout ~n memberships =
  let lists = Array.init n memberships in
  let off = Array.make (n + 1) 0 in
  for r = 0 to n - 1 do
    off.(r + 1) <- off.(r) + List.length lists.(r)
  done;
  let cls = Array.make off.(n) 0 in
  Array.iteri
    (fun r l -> List.iteri (fun j i -> cls.(off.(r) + j) <- i) l)
    lists;
  { off; cls }

let find sl r i =
  let hi = sl.off.(r + 1) in
  let rec go s =
    if s >= hi then -1 else if sl.cls.(s) = i then s else go (s + 1)
  in
  go sl.off.(r)

let max_slots sl =
  let best = ref 0 in
  for r = 0 to Array.length sl.off - 2 do
    best := max !best (sl.off.(r + 1) - sl.off.(r))
  done;
  !best

let flood_min net sl ~init =
  let n = Net.n net in
  let off = sl.off and cls = sl.cls in
  (* [first.(s)]: the slot holding slot [s]'s state *)
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
  (* same-real virtual adjacency: the repeats of a class share its first
     slot's state *)
  Array.iteri
    (fun s f ->
      value.(s) <- value.(f);
      tiebreak.(s) <- tiebreak.(f))
    first;
  (value, tiebreak)

let membership_sweep net sl ~payload ~recv =
  let off = sl.off and cls = sl.cls in
  let deliver r sender _ (m : Net.msg) = recv r sender m.(0) m in
  for k = 0 to max_slots sl - 1 do
    Net.broadcast_round net (fun r ->
        let s = off.(r) + k in
        if s < off.(r + 1) then begin
          let p = payload r s in
          let len = Array.length p in
          (* lint: allow msg-budget — one membership id plus the caller's
             per-membership payload (dist_packing/tester send <= 3 words);
             Model.words_budget is enforced per message by Net at runtime,
             so an over-budget payload fails loudly, not silently *)
          let m = Array.make (len + 1) cls.(s) in
          Array.blit p 0 m 1 len;
          Some m
        end
        else None);
    Net.iter_deliveries net deliver
  done
