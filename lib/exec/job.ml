type payload = {
  out : string;
  rows : string list;
  meta : (string * string) list;
}

type t = { label : string; run : unit -> payload }

let default_label ~algo ~params ~seed =
  let ps =
    match params with
    | [] -> ""
    | l ->
      "("
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l)
      ^ ")"
  in
  Printf.sprintf "%s%s#%d" algo ps seed

let make ~algo ?(params = []) ?(seed = 0) ?label run =
  let params = List.sort compare params in
  let label =
    match label with Some l -> l | None -> default_label ~algo ~params ~seed
  in
  { label; run }

let label t = t.label
let run t = t.run ()
let payload ?(rows = []) ?(meta = []) out = { out; rows; meta }
let meta p k = List.assoc_opt k p.meta
