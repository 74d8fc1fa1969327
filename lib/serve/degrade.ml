type entry = { cert : Domtree.Certificate.t; fresh : bool }
type t = (string, entry) Hashtbl.t

let create () = Hashtbl.create 64
let lookup t ~digest = Hashtbl.find_opt t digest

(* "Last-good" is monotone: a verified-but-degraded certificate (say,
   0 classes survived a storm) must never clobber a better one already
   held for the graph — degrading to it later would under-serve. Equal
   strength re-records, refreshing [fresh]. *)
let strength cert = Domtree.Certificate.retained_count cert

let record ?(fresh = true) t ~digest cert =
  let keep =
    match lookup t ~digest with
    | Some e -> strength cert >= strength e.cert
    | None -> true
  in
  if keep then Hashtbl.replace t digest { cert; fresh };
  keep

let count t = Hashtbl.length t

let fold t f init =
  (* canonical order for journal snapshots: sorted digests (lint:
     Hashtbl iteration order is nondeterministic) *)
  Hashtbl.fold (fun digest e acc -> (digest, e) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.fold_left (fun acc (digest, e) -> f acc digest e) init
