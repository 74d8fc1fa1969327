(* Typedtree half of congest-lint: rules that fire on what code *means*.

   The parsetree rules in Lint_core see spellings — [Random.int] is
   caught, [module R = Random let _ = R.int] is not. This module loads
   the compiler's typed AST (from the .cmt files dune already emits
   under -bin-annot) and resolves every identifier through [Path.t], so
   aliasing, [open], and module re-exports cannot hide a banned
   effect. On that foundation it adds the two rule families a parsetree
   cannot express at all:

   [domain-race] — cross-domain shared-mutable-state analysis. A
   closure passed to [Domain.spawn], [Exec.Pool.run] or [Exec.Job.make]
   runs on another domain while the spawning domain retains every value
   it captures. The detector walks such closures (following let-bound
   local functions they call, e.g. a [worker] loop defined beside the
   spawn), classifies each mutation's target against a three-point
   lattice

       local          allocated inside the walked region: domain-private
       captured       bound outside the region: visible to >= 2 domains
       module-state   resolved to a module-level value ([Path.Pdot])

   and flags every captured/module-state write that is not covered by
   the two sanctioned disciplines: [Atomic.*] operations, and
   index-slot stores ([a.(i) <- e] where the index involves a variable
   — the Pool's "distinct indices, distinct slots" contract; a
   *constant* index is a guaranteed collision and is flagged). A second,
   interprocedural pass builds a call graph over every top-level
   definition in the loaded units and re-applies the same write
   classification to each definition reachable from a spawn closure, so
   a module-state write hidden three calls deep is still caught.
   Known limitation (documented in DESIGN.md §12): a captured mutable
   value that is only *passed onward* as an argument is not tracked
   through the callee's parameter — state threading through parameters
   is the repository's sanctioned single-domain idiom, and flagging it
   would drown the signal.

   [msg-budget] — the model's O(log n)-word message bound, statically.
   [Net.broadcast_round]/[Net.edge_round] enforce
   [Model.words_budget] at runtime; this rule rejects at lint time the
   constructions that can only be caught at runtime on an unlucky
   input: inside a send closure, building a message via
   [Array.of_list]/[of_seq]/[append]/[concat] (width = data-dependent),
   [Array.make]/[init]/[sub] with a non-constant width, or an [[| .. |]]
   literal wider than the budget. A bounded encoding (fixed-size
   chunking à la [Routing.Coding]) earns a "lint: allow msg-budget"
   whose justification must cite the Model bound (audited by
   [Lint_core.apply_allows]).

   The typed ports of the L1/L3/L4/L5 rules (nondet-random/clock/hash,
   hashtbl-order, obj-magic, physical-eq, domain-spawn,
   polymorphic-compare) subsume their parsetree twins on any file with
   .cmt coverage; the driver keeps only [silenced-warning],
   [global-mutable-state] and [parse-error] from the parsetree pass
   there. *)

type finding = Lint_core.finding

(* compiler-libs keeps [Ident.t] abstract; [Ident.unique_name] ("name_stamp")
   is the stable per-binding-occurrence key we hash on. *)
let stamp (id : Ident.t) = Ident.unique_name id

(* Must track Model.words_budget (lib/congest/model.ml): the static
   bound a message literal may not exceed. *)
let words_budget = 8

(* ------------------------------------------------------------------ *)
(* Canonical names: Path.t -> dotted segments, resolved through local
   module aliases, with dune's Lib__Module mangling flattened and the
   [Stdlib] root dropped. Local *value* identifiers never produce a
   global name — [Some ["compare"]] is always [Stdlib.compare], never a
   parameter that happens to share the spelling. *)

module SMap = Map.Make (String)

let split_unit name =
  (* "Congest__Net" -> ["Congest"; "Net"]; "Congest__" -> ["Congest"] *)
  let rec go acc i j =
    if j + 1 >= String.length name then
      List.rev (String.sub name i (String.length name - i) :: acc)
    else if name.[j] = '_' && name.[j + 1] = '_' then
      go (String.sub name i (j - i) :: acc) (j + 2) (j + 2)
    else go acc i (j + 1)
  in
  go [] 0 0 |> List.filter (fun s -> s <> "")

let rec path_segs = function
  | Path.Pident id -> Some [ Ident.name id ]
  | Path.Pdot (p, s) -> (
    match path_segs p with Some l -> Some (l @ [ s ]) | None -> None)
  | Path.Papply _ -> None
  | Path.Pextra_ty (p, _) -> path_segs p

let is_module_name s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'

(* [global_name aliases p] is the canonical dotted name of [p] when [p]
   is rooted in a compilation unit or module — [None] for local value
   identifiers (parameters, lets), whose meaning is positional, not
   nominal. *)
let global_name aliases p =
  match path_segs p with
  | None | Some [] -> None
  | Some (head :: rest) ->
    if (not (is_module_name head)) && rest = [] then None
    else
      let rec resolve seen head rest =
        match SMap.find_opt head aliases with
        | Some target when not (List.mem head seen) -> (
          match target with
          | th :: tr -> resolve (head :: seen) th (tr @ rest)
          | [] -> split_unit head @ rest)
        | _ -> split_unit head @ rest
      in
      let segs = resolve [] head rest in
      Some (match segs with "Stdlib" :: (_ :: _ as r) -> r | r -> r)

let dotted = String.concat "."

(* ------------------------------------------------------------------ *)
(* Shared helpers over typedtree expressions *)

let pos_of_loc (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let pos_of (e : Typedtree.expression) = pos_of_loc e.exp_loc

let positional args =
  List.filter_map (function _, Some e -> Some e | _ -> None) args

let head_name aliases (f : Typedtree.expression) =
  match f.Typedtree.exp_desc with
  | Texp_ident (p, _, _) -> global_name aliases p
  | _ -> None

(* The mutable root an lvalue-ish expression reaches through field and
   element projections: [state.arr.(i) <- v] mutates [state]. *)
let rec root_ident aliases (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some p
  | Texp_field (e, _, _) -> root_ident aliases e
  | Texp_apply (f, args) -> (
    match (head_name aliases f, positional args) with
    | Some [ ("Array" | "Bytes"); ("get" | "unsafe_get") ], base :: _ ->
      root_ident aliases base
    | _ -> None)
  | _ -> None

let rec expr_mentions_ident (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident _ -> true
  | Texp_field (e, _, _) -> expr_mentions_ident e
  | Texp_apply (f, args) ->
    expr_mentions_ident f
    || List.exists expr_mentions_ident (positional args)
  | Texp_constant _ -> false
  | _ ->
    (* anything structured: assume a variable is involved (conservative
       toward *not* flagging; only all-constant indices are collisions
       we can prove) *)
    true

let int_constant (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_constant (Const_int k) -> Some k
  | _ -> None

(* msg-typed: [int array], or a nominal type spelled [..Net.msg] *)
let rec is_msg_type (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Tconstr (p, args, _) -> (
    match (path_segs p, args) with
    | Some [ "array" ], [ elt ] -> (
      match Types.get_desc elt with
      | Tconstr (pi, [], _) -> path_segs pi = Some [ "int" ]
      | _ -> false)
    | Some segs, _ -> (
      match List.rev segs with
      | "msg" :: "Net" :: _ -> true
      | _ -> false)
    | None, _ -> false)
  | Tlink ty | Tsubst (ty, _) -> is_msg_type ty
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Binder collection: every Ident bound *inside* a region. Ident stamps
   are globally unique per binding occurrence, so a grow-only set over
   the whole region is exact — an identifier bound anywhere in the
   region is region-local, everything else is captured from outside. *)

let region_binders (root : Typedtree.expression) =
  let stamps = Hashtbl.create 64 in
  let add id = Hashtbl.replace stamps (stamp id) () in
  let add_case :
      type k. k Typedtree.case -> unit =
   fun c -> List.iter add (Typedtree.pat_bound_idents c.Typedtree.c_lhs)
  in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_let (_, vbs, _) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          List.iter add (Typedtree.pat_bound_idents vb.vb_pat))
        vbs
    | Texp_function { cases; _ } -> List.iter add_case cases
    | Texp_match (_, cases, _) -> List.iter add_case cases
    | Texp_try (_, cases) -> List.iter add_case cases
    | Texp_for (id, _, _, _, _, _) -> add id
    | Texp_letop { body; _ } -> add_case body
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it root;
  fun id -> Hashtbl.mem stamps (stamp id)

(* Let-bound local functions of a region, so a spawn closure's call to
   a sibling [worker] loop is followed onto the spawned domain. *)
let local_lambdas (root : Typedtree.expression) =
  let tbl = Hashtbl.create 16 in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_let (_, vbs, _) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
          | Tpat_var (id, _), Texp_function _ ->
            Hashtbl.replace tbl (stamp id) vb.vb_expr
          | _ -> ())
        vbs
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it root;
  tbl

(* ------------------------------------------------------------------ *)
(* Mutation events *)

type mutation = {
  m_loc : Location.t;
  m_what : string;  (** human description: "(:=) on hits", ... *)
  m_target : Path.t;
  m_slotted : bool;  (** Array/Bytes store whose index involves a var *)
}

let container_mutators =
  [
    ("Hashtbl", [ "add"; "replace"; "remove"; "reset"; "clear";
                  "filter_map_inplace" ]);
    ("Buffer", [ "add_char"; "add_string"; "add_bytes"; "add_subbytes";
                 "add_substring"; "add_buffer"; "add_channel"; "clear";
                 "reset"; "truncate" ]);
    ("Queue", [ "add"; "push"; "pop"; "take"; "clear" ]);
  ]

(* [mutation_of aliases e] classifies expression [e] as a mutation
   event, [None] otherwise. Atomic.* operations are the sanctioned
   cross-domain primitive and are never events. *)
let mutation_of aliases (e : Typedtree.expression) =
  let mk ?(slotted = false) what target =
    Some { m_loc = e.exp_loc; m_what = what; m_target = target; m_slotted = slotted }
  in
  let target_of what args k =
    match List.nth_opt (positional args) k with
    | Some t -> (
      match root_ident aliases t with
      | Some p -> mk what p
      | None -> None)
    | None -> None
  in
  match e.exp_desc with
  | Texp_setfield (lhs, _, lbl, _) -> (
    match root_ident aliases lhs with
    | Some p -> mk (Printf.sprintf "mutable-field write (%s)" lbl.lbl_name) p
    | None -> None)
  | Texp_apply (f, args) -> (
    match head_name aliases f with
    | Some [ ":=" ] -> target_of "(:=)" args 0
    | Some [ ("incr" | "decr") as op ] -> target_of (Printf.sprintf "(%s)" op) args 0
    | Some [ ("Array" | "Bytes"); ("set" | "unsafe_set") ] -> (
      match positional args with
      | base :: idx :: _ -> (
        match root_ident aliases base with
        | Some p ->
          mk ~slotted:(expr_mentions_ident idx) "element store" p
        | None -> None)
      | _ -> None)
    | Some [ ("Array" | "Bytes"); "fill" ] -> target_of "fill" args 0
    | Some [ ("Array" | "Bytes"); "blit" ] -> target_of "blit" args 2
    | Some [ "Bytes"; "blit_string" ] -> target_of "blit" args 2
    | Some [ "Stack"; ("push") ] -> target_of "Stack.push" args 1
    | Some [ "Stack"; ("pop" | "clear") ] -> target_of "Stack mutation" args 0
    | Some [ "Queue"; "transfer" ] -> target_of "Queue.transfer" args 1
    | Some [ m; f ] -> (
      match List.assoc_opt m container_mutators with
      | Some fns when List.mem f fns ->
        target_of (Printf.sprintf "%s.%s" m f) args 0
      | _ -> None)
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Per-unit analysis *)

type def = {
  d_name : string;  (** canonical, e.g. "Congest.Net.broadcast_round" *)
  d_refs : string list;  (** canonical names referenced in the body *)
  d_candidates : finding list;
      (** non-local writes, pre-built as findings; emitted only when the
          def turns out to be reachable from a spawn closure *)
}

type unit_info = {
  u_file : string;
  u_findings : finding list;  (** typed-rule findings local to the unit *)
  u_defs : def list;
  u_roots : string list;  (** names referenced from spawn closures *)
}

let spawn_heads = [ [ "Domain"; "spawn" ] ]

(* entry points whose closure argument executes on pool domains; the
   int is the positional index of that argument (-1 = last) *)
let pool_entries =
  [ ([ "Pool"; "run" ], 0); ([ "Exec"; "Pool"; "run" ], 0);
    ([ "Job"; "make" ], -1); ([ "Exec"; "Job"; "make" ], -1) ]

let order_normalizer = function
  | [ "List"; ("sort" | "sort_uniq" | "stable_sort" | "fast_sort" | "length") ]
    -> true
  | _ -> false

type ctx = {
  file : string;
  aliases : string list SMap.t;
  (* stamp of a unit-toplevel value -> its canonical name *)
  toplevel : (string, string) Hashtbl.t;
  mutable findings : finding list;
  mutable roots : string list;
}

let report ctx loc rule message =
  let line, col = pos_of_loc loc in
  ctx.findings <-
    { Lint_core.file = ctx.file; line; col; rule; message } :: ctx.findings

(* --- the race walk over one region ------------------------------- *)

(* Walks [region] as code running on a spawned domain: classifies every
   mutation event against the local/captured/module-state lattice,
   follows let-bound local functions from [lambdas], and feeds every
   global reference to [on_ref] (the cross-unit reachability roots). *)
let race_walk ctx ~lambdas ~on_ref region =
  let visited = Hashtbl.create 8 in
  (* [outer] accumulates binders across followed local lambdas: a let
     from the enclosing region is still region-local inside a sibling
     [worker] body — both run on the same spawned domain. *)
  let rec walk ~outer region =
    let own = region_binders region in
    let bound id = own id || outer id in
    let classify p =
      match p with
      | Path.Pident id ->
        if bound id then `Local
        else if Hashtbl.mem ctx.toplevel (stamp id) then
          `Module (Hashtbl.find ctx.toplevel (stamp id))
        else `Captured (Ident.name id)
      | _ -> (
        match global_name ctx.aliases p with
        | Some segs -> `Module (dotted segs)
        | None -> `Captured (Path.name p))
    in
    let expr it (e : Typedtree.expression) =
      (match mutation_of ctx.aliases e with
      | Some m when not m.m_slotted -> (
        match classify m.m_target with
        | `Local -> ()
        | `Captured name ->
          report ctx m.m_loc "domain-race"
            (Printf.sprintf
               "%s on [%s], captured from outside this Domain.spawn/pool \
                closure: the spawning domain still sees it. Use an \
                Atomic, give each domain its own slot (a.(i) <- with a \
                per-domain index), or allocate the state inside the \
                closure"
               m.m_what name)
        | `Module name ->
          report ctx m.m_loc "domain-race"
            (Printf.sprintf
               "%s on module-level state [%s] from code running on a \
                spawned domain; every domain of the pool shares this \
                binding" m.m_what name))
      | _ -> ());
      (match e.exp_desc with
      | Texp_ident (p, _, _) -> (
        match global_name ctx.aliases p with
        | Some segs -> on_ref (dotted segs)
        | None -> (
          match p with
          | Path.Pident id -> (
            if Hashtbl.mem ctx.toplevel (stamp id) then
              on_ref (Hashtbl.find ctx.toplevel (stamp id))
            else
              match Hashtbl.find_opt lambdas (stamp id) with
              | Some body when not (Hashtbl.mem visited (stamp id)) ->
                Hashtbl.replace visited (stamp id) ();
                walk ~outer:bound body
              | _ -> ())
          | _ -> ()))
      | _ -> ());
      Tast_iterator.default_iterator.expr it e
    in
    let it = { Tast_iterator.default_iterator with expr } in
    it.expr it region
  in
  walk ~outer:(fun _ -> false) region

(* --- message-budget walk over a send closure ---------------------- *)

let budget_walk ctx region =
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_array es
      when List.length es > words_budget && is_msg_type e.exp_type ->
      report ctx e.exp_loc "msg-budget"
        (Printf.sprintf
           "message literal of %d words exceeds Model.words_budget (%d): \
            messages are O(log n) bits total" (List.length es) words_budget)
    | Texp_apply (f, args) when is_msg_type e.exp_type -> (
      match head_name ctx.aliases f with
      | Some [ "Array"; (("of_list" | "of_seq" | "append" | "concat") as fn) ]
        ->
        report ctx e.exp_loc "msg-budget"
          (Printf.sprintf
             "Array.%s builds a message whose width is data-dependent — \
              nothing bounds it by Model.words_budget. Chunk the payload \
              into fixed-width words (see Routing.Coding) or justify the \
              bound with a lint: allow msg-budget citing the Model" fn)
      | Some [ "Array"; (("make" | "init") as fn) ] -> (
        match positional args with
        | len :: _ -> (
          match int_constant len with
          | Some k when k <= words_budget -> ()
          | Some k ->
            report ctx e.exp_loc "msg-budget"
              (Printf.sprintf
                 "Array.%s %d builds a message wider than \
                  Model.words_budget (%d)" fn k words_budget)
          | None ->
            report ctx e.exp_loc "msg-budget"
              (Printf.sprintf
                 "Array.%s with a non-constant width builds a message \
                  with no static bound against Model.words_budget" fn))
        | [] -> ())
      | Some [ "Array"; "sub" ] -> (
        match positional args with
        | [ _; _; len ] -> (
          match int_constant len with
          | Some k when k <= words_budget -> ()
          | _ ->
            report ctx e.exp_loc "msg-budget"
              "Array.sub with a non-constant (or over-budget) width \
               builds a message with no static bound against \
               Model.words_budget")
        | _ -> ())
      | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it region

(* --- typed ports of the parsetree rules ---------------------------- *)

(* An operand whose type is a tuple once abbreviations are expanded
   ([let pair = (a, b) in pair < best.(v)], or a [type edge = int * int]
   value): comparing it is caml_compare over boxed fields, whatever its
   spelling. A .cmt keeps only the summary of each environment, so it is
   rebuilt from the unit's load path; if that fails the type is read
   unexpanded. *)
let tuple_typed (e : Typedtree.expression) =
  let env = try Envaux.env_of_only_summary e.exp_env with _ -> e.exp_env in
  let ty = try Ctype.expand_head env e.exp_type with _ -> e.exp_type in
  match Types.get_desc ty with Ttuple _ -> true | _ -> false

let typed_rules_walk ctx root =
  (* Hashtbl.fold/iter already wrapped in an order normalizer, keyed by
     source position (mirrors the parsetree sanctioning). *)
  let sanctioned = Hashtbl.create 16 in
  let is_hashtbl_iteration (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply (f, _) -> (
      match head_name ctx.aliases f with
      | Some [ "Hashtbl"; ("fold" | "iter") ] -> true
      | _ -> false)
    | _ -> false
  in
  let sanction arg =
    if is_hashtbl_iteration arg then Hashtbl.replace sanctioned (pos_of arg) ()
  in
  let structured_operand (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_tuple _ | Texp_array _ | Texp_record _ -> true
    | Texp_construct (_, cd, args) -> cd.cstr_arity > 0 && args <> []
    | Texp_variant (_, Some _) -> true
    | _ -> tuple_typed e
  in
  let ident_rule loc = function
    | [ "Obj"; _ ] ->
      report ctx loc "obj-magic" "Obj.* breaks abstraction and type soundness"
    | [ ("==" | "!=") as op ] ->
      report ctx loc "physical-eq"
        (Printf.sprintf
           "(%s) is physical equality; use structural (=)/(<>) or annotate \
            why identity is intended" op)
    | [ "Random"; sub ] when sub <> "State" ->
      report ctx loc "nondet-random"
        (Printf.sprintf
           "Random.%s draws from the global PRNG; thread an explicit seeded \
            Random.State.t instead" sub)
    | [ "Sys"; ("time" | "getenv" | "getenv_opt") ] | "Unix" :: _ ->
      report ctx loc "nondet-clock"
        "wall-clock/environment reads make runs irreproducible"
    | [ "Hashtbl"; ("hash" | "seeded_hash") ] ->
      report ctx loc "nondet-hash"
        "polymorphic Hashtbl.hash is not canonical across representations; \
         hash an explicit canonical key"
    | [ "Domain"; "spawn" ] ->
      report ctx loc "domain-spawn"
        "Domain.spawn here breaks the single-domain determinism of the \
         simulator; dispatch whole jobs through the lib/exec pool instead"
    | [ "compare" ] ->
      report ctx loc "polymorphic-compare"
        "bare [compare] dispatches to caml_compare per element; use a \
         monomorphic comparator (Int.compare, Float.compare, List.compare \
         Int.compare, ...)"
    | _ -> ()
  in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
      match global_name ctx.aliases p with
      | Some segs -> ident_rule e.exp_loc segs
      | None -> ())
    | Texp_apply (f, args) -> (
      (* The typechecker rewrites [x |> f a] into [(f a) x] — the pipe
         never survives into the typedtree — so the sanctioning only
         needs the application-spine head: [List.sort cmp (fold ...)] and
         [fold ... |> List.sort cmp] both put an order normalizer at the
         spine root with the iteration as last argument. *)
      let rec spine_head (f : Typedtree.expression) =
        match f.exp_desc with
        | Texp_apply (g, _) -> spine_head g
        | _ -> head_name ctx.aliases f
      in
      (match spine_head f with
      | Some p when order_normalizer p -> (
        match List.rev (positional args) with
        | last :: _ -> sanction last
        | [] -> ())
      | _ -> ());
      match head_name ctx.aliases f with
      | Some [ "Hashtbl"; (("fold" | "iter") as fn) ]
        when not (Hashtbl.mem sanctioned (pos_of e)) ->
        report ctx e.exp_loc "hashtbl-order"
          (Printf.sprintf
             "Hashtbl.%s iteration order can leak into messages or \
              results; sort the output (List.sort) or justify with a \
              lint: allow" fn)
      | Some [ (("=" | "<>" | "<" | ">" | "<=" | ">=") as op) ]
        when List.exists structured_operand (positional args) ->
        report ctx e.exp_loc "polymorphic-compare"
          (Printf.sprintf
             "(%s) on a structured operand is polymorphic comparison; \
              compare the fields monomorphically instead" op)
      | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it root

(* --- spawn-site discovery ------------------------------------------ *)

let spawn_sites_walk ctx ~lambdas root =
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_apply (f, args) -> (
      match head_name ctx.aliases f with
      | Some segs ->
        let last2 = match List.rev segs with b :: a :: _ -> [ a; b ] | l -> List.rev l in
        (* entry indices count unlabelled arguments only: labelled
           extras (~jobs:2) must not shift the closure's position *)
        let unlabelled =
          List.filter_map
            (function Asttypes.Nolabel, Some e -> Some e | _ -> None)
            args
        in
        let closure_arg =
          if List.mem segs spawn_heads || last2 = [ "Domain"; "spawn" ] then
            List.nth_opt unlabelled 0
          else
            List.find_map
              (fun (entry, k) ->
                if segs = entry || last2 = entry then
                  if k = -1 then List.nth_opt (List.rev unlabelled) 0
                  else List.nth_opt unlabelled k
                else None)
              pool_entries
        in
        (match closure_arg with
        | Some arg ->
          race_walk ctx ~lambdas
            ~on_ref:(fun name -> ctx.roots <- name :: ctx.roots)
            arg
        | None -> ())
      | None -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it root

(* --- send-closure discovery for the budget rule -------------------- *)

let round_entries = [ [ "Net"; "broadcast_round" ]; [ "Net"; "edge_round" ] ]

let budget_sites_walk ctx ~lambdas root =
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_apply (f, args) -> (
      match head_name ctx.aliases f with
      | Some segs ->
        let last2 =
          match List.rev segs with b :: a :: _ -> [ a; b ] | l -> List.rev l
        in
        if List.mem last2 round_entries then
          let send =
            match List.rev (positional args) with s :: _ -> Some s | [] -> None
          in
          (match send with
          | Some ({ exp_desc = Texp_function _; _ } as s) -> budget_walk ctx s
          | Some { exp_desc = Texp_ident (Path.Pident id, _, _); _ } -> (
            match Hashtbl.find_opt lambdas (stamp id) with
            | Some body -> budget_walk ctx body
            | None -> ())
          | _ -> ())
      | None -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it root

(* --- structure traversal ------------------------------------------- *)

let rec collect_aliases prefix aliases (str : Typedtree.structure) =
  List.fold_left
    (fun aliases (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_module mb -> (
        let rec target (me : Typedtree.module_expr) =
          match me.mod_desc with
          | Tmod_ident (p, _) -> path_segs p
          | Tmod_constraint (me, _, _, _) -> target me
          | _ -> None
        in
        match (mb.mb_id, target mb.mb_expr) with
        | Some id, Some segs -> SMap.add (Ident.name id) segs aliases
        | Some _, None -> (
          match mb.mb_expr.mod_desc with
          | Tmod_structure s ->
            collect_aliases (prefix @ [ Ident.name (Option.get mb.mb_id) ])
              aliases s
          | _ -> aliases)
        | None, _ -> aliases)
      | _ -> aliases)
    aliases str.str_items

(* Top-level value definitions (recursing into plain nested modules):
   [(canonical name, ident option, body)] in source order. *)
let rec collect_defs prefix (str : Typedtree.structure) =
  List.concat_map
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.map
          (fun (vb : Typedtree.value_binding) ->
            let name, id =
              match vb.vb_pat.pat_desc with
              | Tpat_var (id, _) -> (Ident.name id, Some id)
              | _ -> ("$pattern", None)
            in
            (dotted (prefix @ [ name ]), id, vb.vb_expr))
          vbs
      | Tstr_eval (e, _) -> [ (dotted (prefix @ [ "$init" ]), None, e) ]
      | Tstr_module
          { mb_id = Some id; mb_expr = { mod_desc = Tmod_structure s; _ }; _ }
        ->
        collect_defs (prefix @ [ Ident.name id ]) s
      | _ -> [])
    str.str_items

(* all global references in an expression, for call-graph edges *)
let collect_refs ctx root =
  let refs = Hashtbl.create 32 in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
      match global_name ctx.aliases p with
      | Some segs -> Hashtbl.replace refs (dotted segs) ()
      | None -> (
        match p with
        | Path.Pident id -> (
          match Hashtbl.find_opt ctx.toplevel (stamp id) with
          | Some name -> Hashtbl.replace refs name ()
          | None -> ())
        | _ -> ()))
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it root;
  Hashtbl.fold (fun k () acc -> k :: acc) refs [] |> List.sort String.compare

let analyze_unit ~file ~modname (str : Typedtree.structure) =
  let prefix = split_unit modname in
  let aliases = collect_aliases prefix SMap.empty str in
  let defs_raw = collect_defs prefix str in
  let toplevel = Hashtbl.create 32 in
  List.iter
    (fun (name, id, _) ->
      match id with
      | Some id -> Hashtbl.replace toplevel (stamp id) name
      | None -> ())
    defs_raw;
  let ctx = { file; aliases; toplevel; findings = []; roots = [] } in
  (* unit-wide typed ports + spawn/budget sites *)
  let defs =
    List.map
      (fun (name, _, body) ->
        typed_rules_walk ctx body;
        let lambdas = local_lambdas body in
        spawn_sites_walk ctx ~lambdas body;
        budget_sites_walk ctx ~lambdas body;
        (* candidate non-local writes, kept aside for reachability *)
        let saved = ctx.findings in
        ctx.findings <- [];
        race_walk ctx ~lambdas ~on_ref:(fun _ -> ()) body;
        let candidates =
          List.map
            (fun (f : finding) ->
              { f with
                Lint_core.message =
                  f.Lint_core.message
                  ^ Printf.sprintf " [in %s, reachable from a spawn closure]"
                      name })
            ctx.findings
        in
        ctx.findings <- saved;
        { d_name = name; d_refs = collect_refs ctx body; d_candidates = candidates })
      defs_raw
  in
  {
    u_file = file;
    u_findings = List.rev ctx.findings;
    u_defs = defs;
    u_roots = List.sort_uniq String.compare ctx.roots;
  }

(* ------------------------------------------------------------------ *)
(* Cross-unit reachability: emit the candidate non-local writes of every
   definition reachable from some spawn closure. *)

let cross_findings units =
  let defs = Hashtbl.create 256 in
  List.iter
    (fun u -> List.iter (fun d -> Hashtbl.replace defs d.d_name d) u.u_defs)
    units;
  let reachable = Hashtbl.create 64 in
  let rec visit name =
    if not (Hashtbl.mem reachable name) then begin
      Hashtbl.replace reachable name ();
      match Hashtbl.find_opt defs name with
      | Some d -> List.iter visit d.d_refs
      | None -> ()
    end
  in
  List.iter (fun u -> List.iter visit u.u_roots) units;
  let out = ref [] in
  List.iter
    (fun u ->
      List.iter
        (fun d ->
          if Hashtbl.mem reachable d.d_name then
            out := List.rev_append d.d_candidates !out)
        u.u_defs)
    units;
  List.sort Lint_core.compare_findings !out

(* ------------------------------------------------------------------ *)
(* Loading .cmt files *)

(* Every directory a loaded unit was compiled against joins the load
   path [tuple_typed] rebuilds environments in. Dune records a
   placeholder build directory, so a relative entry that does not exist
   under it is taken relative to the working directory, the build
   context the lint runs in. *)
let load_dirs = Hashtbl.create 16

let add_load_path (cmt : Cmt_format.cmt_infos) =
  if Hashtbl.length load_dirs = 0 then Compmisc.init_path ();
  List.iter
    (fun d ->
      let d =
        if Filename.is_relative d then
          let under_builddir = Filename.concat cmt.cmt_builddir d in
          if Sys.file_exists under_builddir then under_builddir else d
        else d
      in
      if not (Hashtbl.mem load_dirs d) then begin
        Hashtbl.replace load_dirs d ();
        Load_path.add_dir d
      end)
    cmt.cmt_loadpath

let read_cmt path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | cmt -> (
    add_load_path cmt;
    match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
    | Cmt_format.Implementation str, Some source ->
      Some (source, cmt.Cmt_format.cmt_modname, str)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* In-process typechecking for test fixtures: parse + type a source
   string against the stdlib, then run the typed rules exactly as the
   driver would on a .cmt. *)

let fixture_env =
  lazy
    (Compmisc.init_path ();
     Compmisc.initial_env ())

let fixture_findings ?(file = "fixture.ml") source =
  let env = Lazy.force fixture_env in
  match
    let lexbuf = Lexing.from_string source in
    Lexing.set_filename lexbuf file;
    let pstr = Parse.implementation lexbuf in
    let tstr, _, _, _, _ = Typemod.type_structure env pstr in
    tstr
  with
  | exception exn ->
    let line, col =
      match Location.error_of_exn exn with
      | Some (`Ok err) -> pos_of_loc err.Location.main.loc
      | _ -> (1, 0)
    in
    [ { Lint_core.file; line; col; rule = "typecheck-error";
        message = Printexc.to_string exn } ]
  | tstr ->
    let u = analyze_unit ~file ~modname:"Fixture" tstr in
    List.sort Lint_core.compare_findings (u.u_findings @ cross_findings [ u ])
