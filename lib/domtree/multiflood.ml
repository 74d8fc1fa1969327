module Net = Congest.Net

type slots = { off : int array; cls : int array; universe : int }

let layout ~n memberships =
  let lists = Array.init n memberships in
  let off = Array.make (n + 1) 0 in
  for r = 0 to n - 1 do
    off.(r + 1) <- off.(r) + List.length lists.(r)
  done;
  let cls = Array.make off.(n) 0 in
  let universe = ref 0 in
  Array.iteri
    (fun r l ->
      List.iteri
        (fun j i ->
          if i < 0 then invalid_arg "Multiflood.layout: negative class";
          if i >= !universe then universe := i + 1;
          cls.(off.(r) + j) <- i)
        l)
    lists;
  { off; cls; universe = !universe }

let find sl r i =
  let cls = sl.cls and hi = sl.off.(r + 1) in
  let s = ref sl.off.(r) in
  while !s < hi && cls.(!s) <> i do
    incr s
  done;
  if !s < hi then !s else -1

let max_slots sl =
  let best = ref 0 in
  for r = 0 to Array.length sl.off - 2 do
    best := max !best (sl.off.(r + 1) - sl.off.(r))
  done;
  !best

let row ?(classes = 0) sl = Array.make (max classes sl.universe) (-1)

(* descending, so that a repeated class ends at its first slot *)
let fill_row sl row r =
  let cls = sl.cls in
  for s = sl.off.(r + 1) - 1 downto sl.off.(r) do
    row.(cls.(s)) <- s
  done

let clear_row sl row r =
  let cls = sl.cls in
  for s = sl.off.(r) to sl.off.(r + 1) - 1 do
    row.(cls.(s)) <- -1
  done

let iter_deliveries net sl row f =
  for r = 0 to Net.n net - 1 do
    fill_row sl row r;
    Net.iter_inbox net r f;
    clear_row sl row r
  done

let flood_min net sl ~init =
  let n = Net.n net in
  let off = sl.off and cls = sl.cls in
  let row = row sl in
  (* [first.(s)]: the slot holding slot [s]'s state *)
  let first = Array.make (Array.length cls) 0 in
  let value = Array.make (Array.length cls) 0 in
  let tiebreak = Array.make (Array.length cls) 0 in
  for r = 0 to n - 1 do
    for s = off.(r) to off.(r + 1) - 1 do
      let i = cls.(s) in
      if row.(i) < 0 then begin
        row.(i) <- s;
        let v, t = init r s in
        value.(s) <- v;
        tiebreak.(s) <- t
      end;
      first.(s) <- row.(i)
    done;
    clear_row sl row r
  done;
  let changed = ref true in
  let adopt _ _ _ (m : Net.msg) =
    let f = row.(m.(0)) in
    if f >= 0 then begin
      let v = m.(1) and t = m.(2) in
      if v < value.(f) || (v = value.(f) && t < tiebreak.(f)) then begin
        value.(f) <- v;
        tiebreak.(f) <- t;
        changed := true
      end
    end
  in
  let max_slots = max_slots sl in
  while !changed do
    changed := false;
    for k = 0 to max_slots - 1 do
      Net.broadcast_round net (fun r ->
          let s = off.(r) + k in
          if s < off.(r + 1) then begin
            let f = first.(s) in
            Some [| cls.(s); value.(f); tiebreak.(f) |]
          end
          else None);
      iter_deliveries net sl row adopt
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

let membership_sweep ?row net sl ~payload ~recv =
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
    match row with
    | None -> Net.iter_deliveries net deliver
    | Some row -> iter_deliveries net sl row deliver
  done
