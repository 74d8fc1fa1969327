let parse_kv spec =
  (* "name:k=8,n=64" -> (name, assoc) *)
  match String.split_on_char ':' spec with
  | [ name ] -> (name, [])
  | [ name; args ] ->
    let kvs =
      String.split_on_char ',' args
      |> List.map (fun kv ->
             match String.split_on_char '=' kv with
             | [ k; v ] -> (
               let k = String.trim k and v = String.trim v in
               match int_of_string_opt v with
               | Some i -> (k, i)
               | None ->
                 failwith
                   (Printf.sprintf "generator argument %s=%s: expected an integer"
                      k v))
             | _ -> failwith ("bad generator argument: " ^ kv))
    in
    (name, kvs)
  | _ -> failwith ("bad generator spec: " ^ spec)

let gen_graph spec =
  let name, kvs = parse_kv spec in
  let get key ~default =
    match List.assoc_opt key kvs with Some v -> v | None -> default
  in
  let rng = Random.State.make [| get "seed" ~default:42 |] in
  match name with
  | "harary" -> Gen.harary ~k:(get "k" ~default:4) ~n:(get "n" ~default:32)
  | "hypercube" -> Gen.hypercube (get "d" ~default:4)
  | "clique" -> Gen.clique (get "n" ~default:8)
  | "cycle" -> Gen.cycle (get "n" ~default:16)
  | "grid" -> Gen.grid (get "rows" ~default:6) (get "cols" ~default:6)
  | "torus" -> Gen.torus (get "rows" ~default:6) (get "cols" ~default:6)
  | "clique_path" ->
    Gen.clique_path ~k:(get "k" ~default:4) ~len:(get "len" ~default:8)
  | "lollipop" ->
    Gen.lollipop ~clique:(get "m" ~default:8) ~tail:(get "tail" ~default:8)
  | "random" ->
    Gen.random_k_connected rng ~n:(get "n" ~default:32)
      ~k:(get "k" ~default:4)
      ~extra:(get "extra" ~default:32)
  | "er" ->
    (* G(n, p) with p = deg/n — arguments are integers throughout, so
       the expected average degree is the knob, not p itself *)
    let n = get "n" ~default:64 in
    Gen.erdos_renyi rng ~n
      ~p:(float_of_int (get "deg" ~default:8) /. float_of_int (max 1 n))
  | other -> failwith ("unknown generator: " ^ other)

let load ?(on_load = fun () -> ()) ~gen ~file () =
  let g =
    match (gen, file) with
    | Some spec, None -> gen_graph spec
    | None, Some path -> Io.load path
    | _ -> failwith "exactly one of --gen or --file is required"
  in
  on_load ();
  g
