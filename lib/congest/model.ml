type t =
  | V_congest
  | E_congest

let words_budget ~n:_ = 8

let max_word ~n =
  let n = max n 2 in
  if n >= 1 lsl 15 then max_int
  else max 65536 (n * n * n * n)
