module Graph = Graphs.Graph

type result = {
  estimate : int;
  accepted_guess : int;
  attempts : int;
  packing : Packing.t;
}

let guesses n =
  (* n/2, n/4, ..., down to 1 *)
  let rec go acc g = if g < 1 then List.rev acc else go (g :: acc) (g / 2) in
  go [] (max 1 (n / 2))

let finish ~attempts ~guess res =
  let packing = Tree_extract.of_cds_packing res in
  {
    estimate = max 1 (Packing.count packing);
    accepted_guess = guess;
    attempts;
    packing;
  }

(* The one guess ladder: pack at guess n/2^j, accept the first packing
   the tester passes, or the last guess. *)
let run ~seed (side : Side.t) =
  let n = Graph.n (Comm.graph side.side) in
  let rec try_guess attempts = function
    | [] -> assert false (* guess 1 always yields classes = 1 *)
    | guess :: rest ->
      let seed = seed + attempts in
      let layers = Cds_packing.default_layers ~n in
      let res =
        Cds_packing.run_on side.side ~seed ~jumpstart:(layers / 2)
          ~classes:(Cds_packing.default_classes ~k:guess)
          ~layers
      in
      let t =
        Tester.run_on side.side ~seed ~live:side.live
          ~memberships:(Array.get (Cds_packing.real_classes res))
          ~classes:res.Cds_packing.classes
          ~detection_rounds:(Tester.default_detection_rounds ~n)
      in
      if t.Tester.pass || rest = [] then finish ~attempts:(attempts + 1) ~guess res
      else try_guess (attempts + 1) rest
  in
  try_guess 0 (guesses n)

let centralized ?(seed = 42) g =
  if Graph.n g < 2 then invalid_arg "Vc_approx.centralized: trivial graph";
  run ~seed (Side.central g)

let distributed ?(seed = 42) net =
  if Congest.Net.n net < 2 then
    invalid_arg "Vc_approx.distributed: trivial graph";
  run ~seed (Side.distributed net)

let approximation_ratio ~truth result =
  let k = float_of_int (max 1 truth) in
  let kh = float_of_int (max 1 result.estimate) in
  Float.max (k /. kh) (kh /. k)
