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

(* Per-slot flood state: [first.(s)] is the slot that holds slot [s]'s
   pair, [row] the receiver's class->slot row. A caller that floods
   often passes one set of its own. *)
type buffers = {
  first : int array;
  value : int array;
  tiebreak : int array;
  row : int array;
}

let buffers ~slots ~classes =
  {
    first = Array.make slots 0;
    value = Array.make slots 0;
    tiebreak = Array.make slots 0;
    row = Array.make classes (-1);
  }

(* The state both flood schedules start from: every first slot holds
   its [init] pair. *)
let init_pairs ?buffers:st net sl ~init =
  let off = sl.off and cls = sl.cls in
  let nslots = Array.length cls in
  let st =
    match st with
    | None -> buffers ~slots:nslots ~classes:sl.universe
    | Some st ->
      if Array.length st.first < nslots || Array.length st.row < sl.universe
      then invalid_arg "Multiflood.flood_min: buffers too small";
      st
  in
  let { first; value; tiebreak; row } = st in
  for r = 0 to Net.n net - 1 do
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
  st

(* [improve st f v t] lowers first slot [f]'s pair to [(v, t)] if that is
   smaller, and says whether it did *)
let improve st f v t =
  let value = st.value and tiebreak = st.tiebreak in
  if v < value.(f) || (v = value.(f) && t < tiebreak.(f)) then begin
    value.(f) <- v;
    tiebreak.(f) <- t;
    true
  end
  else false

(* same-real virtual adjacency: the repeats of a class share its first
   slot's state *)
let result st sl =
  let { first; value; tiebreak; _ } = st in
  for s = 0 to Array.length sl.cls - 1 do
    let f = first.(s) in
    value.(s) <- value.(f);
    tiebreak.(s) <- tiebreak.(f)
  done;
  (value, tiebreak)

let flood_min ?buffers net sl ~init =
  let off = sl.off and cls = sl.cls in
  let st = init_pairs ?buffers net sl ~init in
  let changed = ref true in
  let adopt _ _ _ (m : Net.msg) =
    let f = st.row.(m.(0)) in
    if f >= 0 && improve st f m.(1) m.(2) then changed := true
  in
  let max_slots = max_slots sl in
  while !changed do
    changed := false;
    for k = 0 to max_slots - 1 do
      Net.broadcast_round net (fun r ->
          let s = off.(r) + k in
          if s < off.(r + 1) then begin
            let f = st.first.(s) in
            Some [| cls.(s); st.value.(f); st.tiebreak.(f) |]
          end
          else None);
      iter_deliveries net sl st.row adopt
    done
  done;
  result st sl

let flood_min_on_change net sl ~init =
  let off = sl.off and cls = sl.cls in
  let st = init_pairs net sl ~init in
  (* [pending.(f)]: first slot [f]'s pair changed since its node last
     sent it; repeats are never pending *)
  let pending = Array.mapi (fun s f -> f = s) st.first in
  let adopt _ _ _ (m : Net.msg) =
    let f = st.row.(m.(0)) in
    if f >= 0 && improve st f m.(1) m.(2) then pending.(f) <- true
  in
  let sent = ref (Array.exists Fun.id pending) in
  while !sent do
    sent := false;
    Net.broadcast_round net (fun r ->
        let hi = off.(r + 1) in
        let s = ref off.(r) in
        while !s < hi && not pending.(!s) do
          incr s
        done;
        if !s = hi then None
        else begin
          let s = !s in
          pending.(s) <- false;
          sent := true;
          Some [| cls.(s); st.value.(s); st.tiebreak.(s) |]
        end);
    iter_deliveries net sl st.row adopt
  done;
  result st sl

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
