(* congest-lint: static model-compliance analysis over the repository's
   own OCaml sources.

   The CONGEST simulator enforces bandwidth, but it cannot enforce the
   locality discipline or seed-determinism of protocol code (see
   lib/congest/net.mli). These rules close that gap mechanically by
   rejecting the source-level patterns through which nondeterminism and
   non-local state leak into algorithm behaviour:

   L1 — nondeterminism sinks:
     [nondet-random]   global Random state (Random.int, Random.self_init,
                       ...) instead of a threaded Random.State.t
     [nondet-clock]    wall-clock / environment reads (Sys.time, Unix)
     [nondet-hash]     polymorphic Hashtbl.hash on non-canonical data
     [hashtbl-order]   Hashtbl.fold/iter whose iteration order can leak
                       into messages or results (exempt when the result
                       is immediately order-normalized by List.sort /
                       List.sort_uniq / List.length)
   L2 — locality hazards:
     [global-mutable-state]  ref / Array.make / Hashtbl.create / ... bound
                       at module toplevel: shared mutable state that node
                       closures can read without a message
   L3 — soundness hazards:
     [obj-magic]       any Obj.* use
     [physical-eq]     == / != on values that are not known to be
                       physically canonical
     [silenced-warning] [@warning "-..."] / [@@@warning "-..."] attributes
   L4 — parallelism containment:
     [domain-spawn]    Domain.spawn anywhere but the lib/exec pool: every
                       protocol layer stays single-domain; multicore runs
                       one whole simulation per pool domain
   L5 — hot-path hygiene (enforced in lib/graph and lib/congest only,
        via the driver's scope restriction):
     [polymorphic-compare]  bare [compare] passed as a comparator, or a
                       comparison operator applied to a syntactically
                       structured operand (tuple/array/record/construct
                       literal): each lands in [caml_compare], which
                       boxes the hot path the CSR core exists to
                       flatten. Use Int.compare, Float.compare,
                       List.compare, or field-wise monomorphic
                       comparisons.

   Escape hatch: a comment of the form "lint: allow <rule> — reason" on
   the finding's line or up to three lines above suppresses it. The
   suppression auditor holds every allow to account: an allow that
   suppresses nothing is reported ([unused-allow]) so stale annotations
   cannot accumulate, an allow with no justification text after the rule
   name is reported ([bare-allow]), and a [msg-budget] allow must anchor
   its justification in the model ("Model" must appear in the reason —
   the bound being claimed is Model.words_budget, so say why the
   encoding meets it). Subsystems whose whole purpose is an
   otherwise-forbidden effect (lib/exec: domains and the wall clock) get
   a scoped exemption via [check_file]'s [?exempt] instead of per-line
   allows — the scope, not each line, is what is justified.

   This module is the parsetree half of the analyzer; Typed_lint is the
   typedtree half (identifier resolution through Path.t, the
   cross-domain race detector and the message-budget checker). The
   driver (congest_lint.ml) runs both and applies allows to the merged
   finding set. *)

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

let rules =
  [
    ("nondet-random", "global Random state instead of a threaded Random.State.t");
    ("nondet-clock", "wall clock / environment read (Sys.time, Unix.*)");
    ("nondet-hash", "polymorphic Hashtbl.hash on non-canonical data");
    ("hashtbl-order", "Hashtbl.fold/iter order can leak into messages");
    ("global-mutable-state", "mutable state bound at module toplevel");
    ("obj-magic", "Obj.* breaks type soundness");
    ("physical-eq", "physical equality on structural data");
    ("silenced-warning", "warning silenced by attribute");
    ("domain-spawn", "Domain.spawn outside the lib/exec pool");
    ("polymorphic-compare", "polymorphic compare on non-immediate data");
    ("domain-race", "shared mutable state written across domains");
    ("msg-budget", "message construction exceeds the O(log n)-word budget");
    ("unused-allow", "lint: allow annotation suppresses no finding");
    ("bare-allow", "lint: allow annotation carries no justification");
    ("parse-error", "source file does not parse");
    ("typecheck-error", "source file does not typecheck");
  ]

let compare_findings a b =
  compare (a.file, a.line, a.col, a.rule) (b.file, b.line, b.col, b.rule)

let contains_substring ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.message

(* ------------------------------------------------------------------ *)
(* Allow-comment scanning (comments are invisible to the parsetree) *)

let is_rule_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-'

type allow = {
  a_line : int;
  a_rule : string;
  a_reason : string;
      (** justification text on the allow's own line, with the usual
          "— " / "-- " separator stripped; [""] = bare allow *)
}

(* Every "lint: allow <rule> [— reason]" occurrence. The reason is
   whatever follows the rule name on the same line (multi-line
   justifications count through their first line), minus separator
   dashes and a trailing comment close. *)
let scan_allows source =
  let marker = "lint: allow" in
  let allows = ref [] in
  let line = ref 1 in
  let n = String.length source in
  let mlen = String.length marker in
  for i = 0 to n - 1 do
    if source.[i] = '\n' then incr line
    else if i + mlen <= n && String.sub source i mlen = marker then begin
      let j = ref (i + mlen) in
      while !j < n && source.[!j] = ' ' do incr j done;
      let start = !j in
      while !j < n && is_rule_char source.[!j] do incr j done;
      if !j > start then begin
        let rule = String.sub source start (!j - start) in
        (* the justification runs to the close of the enclosing comment
           (allows live in (* .. *) blocks, which may span lines); fall
           back to end-of-line if no close is found *)
        let stop = ref !j in
        while
          !stop < n
          && not (source.[!stop] = '*' && !stop + 1 < n && source.[!stop + 1] = ')')
        do
          incr stop
        done;
        let stop = if !stop < n then !stop else min n !j in
        let stop =
          if stop > !j then stop
          else begin
            let eol = ref !j in
            while !eol < n && source.[!eol] <> '\n' do incr eol done;
            !eol
          end
        in
        let rest = String.sub source !j (stop - !j) in
        (* strip separator dashes (ASCII and em-dash) and whitespace,
           then judge emptiness *)
        let reason =
          String.to_seq rest
          |> Seq.filter (fun c ->
                 not
                   (c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '-'
                   (* em-dash bytes *)
                   || c = '\xe2' || c = '\x80' || c = '\x94' || c = '\x93'))
          |> String.of_seq
        in
        let reason = if reason = "" then "" else String.trim rest in
        (* anchor suppression on the line the comment closes: the
           finding must sit within three lines of the comment's end, not
           of the marker buried at its top *)
        let close_line =
          !line
          + String.fold_left
              (fun acc c -> if c = '\n' then acc + 1 else acc)
              0 rest
        in
        allows := { a_line = close_line; a_rule = rule; a_reason = reason } :: !allows
      end
    end
  done;
  List.rev !allows

(* ------------------------------------------------------------------ *)
(* Parsetree rules *)

let rec longident_path = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> longident_path l @ [ s ]
  | Longident.Lapply _ -> []

let ident_path (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (longident_path txt)
  | _ -> None

let pos_of (e : Parsetree.expression) =
  let p = e.pexp_loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

(* Modules whose [create]-style results are mutable containers: binding
   one at module toplevel is shared mutable state across node closures. *)
let mutable_maker = function
  | [ "ref" ] -> true
  | [ ("Array" | "Stdlib.Array"); ("make" | "create_float" | "init") ] -> true
  | [ ("Bytes" | "Stdlib.Bytes"); ("make" | "create") ] -> true
  | [ ("Hashtbl" | "Stdlib.Hashtbl"); "create" ] -> true
  | [ ("Buffer" | "Stdlib.Buffer"); "create" ] -> true
  | [ ("Queue" | "Stdlib.Queue"); "create" ] -> true
  | [ ("Stack" | "Stdlib.Stack"); "create" ] -> true
  | [ ("Atomic" | "Stdlib.Atomic"); "make" ] -> true
  | _ -> false

(* Operands whose comparison via (=)/(<)/... is certain to dispatch to
   [caml_compare] over a block: literal tuples, arrays, records, and
   payload-carrying constructors/variants. Constant constructors ([None],
   [V_congest]) and scalar literals are deliberately not flagged — the
   compiler specializes comparisons whose operand type it knows, and a
   typed literal pins the type — and plain identifiers are not flagged
   because their type is invisible to a parsetree pass. *)
let rec structured_operand (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_tuple _ | Pexp_array _ | Pexp_record _ -> true
  | Pexp_construct (_, Some _) | Pexp_variant (_, Some _) -> true
  | Pexp_constraint (e, _) -> structured_operand e
  | _ -> false

let check_structure ~file source =
  let findings = ref [] in
  let report (line, col) rule message =
    findings := { file; line; col; rule; message } :: !findings
  in
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  match Parse.implementation lexbuf with
  | exception exn ->
    let line, col =
      match Location.error_of_exn exn with
      | Some (`Ok err) ->
        let p = err.Location.main.loc.Location.loc_start in
        (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)
      | _ -> (1, 0)
    in
    [ { file; line; col; rule = "parse-error"; message = Printexc.to_string exn } ]
  | structure ->
    (* Hashtbl.fold/iter applications already wrapped in an order
       normalizer, keyed by their start position. *)
    let sanctioned = Hashtbl.create 16 in
    let order_normalizer = function
      | [ ("List" | "Stdlib.List"); ("sort" | "sort_uniq" | "stable_sort"
        | "fast_sort" | "length") ] -> true
      | _ -> false
    in
    let is_hashtbl_iteration e =
      match e.Parsetree.pexp_desc with
      | Pexp_apply (f, _) -> (
        match ident_path f with
        | Some [ ("Hashtbl" | "Stdlib.Hashtbl"); ("fold" | "iter") ] -> true
        | _ -> false)
      | _ -> false
    in
    let expr_rule (e : Parsetree.expression) =
      match e.pexp_desc with
      | Pexp_ident { txt; _ } -> (
        match longident_path txt with
        | "Obj" :: _ | "Stdlib" :: "Obj" :: _ ->
          report (pos_of e) "obj-magic"
            "Obj.* breaks abstraction and type soundness"
        | [ ("==" | "!=") as op ] ->
          report (pos_of e) "physical-eq"
            (Printf.sprintf
               "(%s) is physical equality; use structural (=)/(<>) or \
                annotate why identity is intended" op)
        | [ "Random"; sub ] when sub <> "State" ->
          report (pos_of e) "nondet-random"
            (Printf.sprintf
               "Random.%s draws from the global PRNG; thread an explicit \
                seeded Random.State.t instead" sub)
        | [ "Sys"; ("time" | "getenv" | "getenv_opt") ]
        | "Unix" :: _ ->
          report (pos_of e) "nondet-clock"
            "wall-clock/environment reads make runs irreproducible"
        | [ ("Hashtbl" | "Stdlib.Hashtbl"); ("hash" | "seeded_hash") ] ->
          report (pos_of e) "nondet-hash"
            "polymorphic Hashtbl.hash is not canonical across \
             representations; hash an explicit canonical key"
        | [ "Domain"; "spawn" ] | [ "Stdlib"; "Domain"; "spawn" ] ->
          report (pos_of e) "domain-spawn"
            "Domain.spawn here breaks the single-domain determinism of \
             the simulator; dispatch whole jobs through the lib/exec \
             pool instead"
        | [ "compare" ] | [ ("Stdlib" | "Pervasives"); "compare" ] ->
          report (pos_of e) "polymorphic-compare"
            "bare [compare] dispatches to caml_compare per element; use \
             a monomorphic comparator (Int.compare, Float.compare, \
             List.compare Int.compare, ...)"
        | _ -> ())
      | Pexp_apply (f, args) -> (
        (* Sanction `List.sort cmp (Hashtbl.fold ...)` and
           `Hashtbl.fold ... |> List.sort cmp` (and the List.length
           cardinality idiom) before the inner application is visited. *)
        let sanction arg =
          if is_hashtbl_iteration arg then
            Hashtbl.replace sanctioned (pos_of arg) ()
        in
        (match ident_path f with
        | Some [ "|>" ] -> (
          match args with
          | [ (_, lhs); (_, rhs) ] -> (
            let head =
              match rhs.pexp_desc with
              | Pexp_apply (g, _) -> ident_path g
              | Pexp_ident _ -> ident_path rhs
              | _ -> None
            in
            match head with
            | Some p when order_normalizer p -> sanction lhs
            | _ -> ())
          | _ -> ())
        | Some p when order_normalizer p -> (
          match List.rev args with
          | (_, last) :: _ -> sanction last
          | [] -> ())
        | _ -> ());
        match ident_path f with
        | Some [ ("Hashtbl" | "Stdlib.Hashtbl"); (("fold" | "iter") as fn) ]
          when not (Hashtbl.mem sanctioned (pos_of e)) ->
          report (pos_of e) "hashtbl-order"
            (Printf.sprintf
               "Hashtbl.%s iteration order can leak into messages or \
                results; sort the output (List.sort) or justify with a \
                lint: allow" fn)
        | Some [ (("=" | "<>" | "<" | ">" | "<=" | ">=") as op) ]
          when List.exists (fun (_, a) -> structured_operand a) args ->
          report (pos_of e) "polymorphic-compare"
            (Printf.sprintf
               "(%s) on a structured operand is polymorphic comparison; \
                compare the fields monomorphically instead" op)
        | _ -> ())
      | _ -> ()
    in
    let attribute_rule (a : Parsetree.attribute) =
      match a.attr_name.txt with
      | "warning" | "ocaml.warning" | "warnerror" | "ocaml.warnerror" -> (
        match a.attr_payload with
        | PStr
            [ { pstr_desc =
                  Pstr_eval
                    ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                      _ );
                _ } ]
          when String.contains s '-' ->
          let p = a.attr_name.loc.Location.loc_start in
          report
            (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)
            "silenced-warning"
            (Printf.sprintf
               "attribute silences warnings (%S); fix the code or justify \
                with a lint: allow" s)
        | _ -> ())
      | _ -> ()
    in
    (* Toplevel mutable bindings, recursing through nested modules but
       not into expressions (function-local state is fine). *)
    let rec structure_rule (str : Parsetree.structure) =
      List.iter
        (fun (item : Parsetree.structure_item) ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
            List.iter
              (fun (vb : Parsetree.value_binding) ->
                match vb.pvb_expr.pexp_desc with
                | Pexp_apply (f, _) -> (
                  match ident_path f with
                  | Some p when mutable_maker p ->
                    report (pos_of vb.pvb_expr) "global-mutable-state"
                      (Printf.sprintf
                         "%s at module toplevel is shared mutable state; \
                          allocate it inside the function or protocol \
                          closure that owns it"
                         (String.concat "." p))
                  | _ -> ())
                | _ -> ())
              vbs
          | Pstr_module
              { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
            structure_rule s
          | Pstr_recmodule mbs ->
            List.iter
              (fun (mb : Parsetree.module_binding) ->
                match mb.pmb_expr.pmod_desc with
                | Pmod_structure s -> structure_rule s
                | _ -> ())
              mbs
          | _ -> ())
        str
    in
    structure_rule structure;
    let iter =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            expr_rule e;
            Ast_iterator.default_iterator.expr it e);
        attribute =
          (fun it a ->
            attribute_rule a;
            Ast_iterator.default_iterator.attribute it a);
      }
    in
    iter.structure iter structure;
    List.rev !findings

(* ------------------------------------------------------------------ *)
(* Allow application *)

let apply_allows ~file ~allows findings =
  let used = Hashtbl.create 8 in
  (* the nearest allow at or above the finding (within three lines) wins,
     so stacked allow/finding pairs resolve one-to-one *)
  let suppressed_by f =
    List.filter
      (fun a -> a.a_rule = f.rule && f.line - a.a_line >= 0 && f.line - a.a_line <= 3)
      allows
    |> List.fold_left
         (fun best a ->
           match best with
           | Some b when b.a_line >= a.a_line -> best
           | _ -> Some a)
         None
  in
  let kept =
    List.filter
      (fun f ->
        match suppressed_by f with
        | Some a ->
          Hashtbl.replace used (a.a_line, a.a_rule) ();
          false
        | None -> true)
      findings
  in
  let audit =
    List.concat_map
      (fun a ->
        let unused =
          if Hashtbl.mem used (a.a_line, a.a_rule) then []
          else
            [ {
                file;
                line = a.a_line;
                col = 0;
                rule = "unused-allow";
                message =
                  Printf.sprintf
                    "allow for rule %S suppresses no finding within three \
                     lines below; remove it" a.a_rule;
              } ]
        in
        let bare =
          if a.a_reason = "" then
            [ {
                file;
                line = a.a_line;
                col = 0;
                rule = "bare-allow";
                message =
                  Printf.sprintf
                    "allow for rule %S carries no justification; say why \
                     the finding is safe (\"lint: allow %s — reason\")"
                    a.a_rule a.a_rule;
              } ]
          else if
            a.a_rule = "msg-budget"
            && not (contains_substring ~sub:"Model" a.a_reason)
          then
            [ {
                file;
                line = a.a_line;
                col = 0;
                rule = "bare-allow";
                message =
                  "a msg-budget allow must anchor its bound in the model: \
                   cite Model.words_budget (mention \"Model\") and say why \
                   the encoding stays within it";
              } ]
          else if
            a.a_rule = "nondet-clock"
            && contains_substring ~sub:"lib/obs/" file
            && not (contains_substring ~sub:"metrics" a.a_reason)
          then
            [ {
                file;
                line = a.a_line;
                col = 0;
                rule = "bare-allow";
                message =
                  "a nondet-clock allow inside lib/obs must cite the \
                   metrics determinism boundary: say the timestamps are \
                   observability metrics only (mention \"metrics\") and \
                   never enter payloads or replay digests (DESIGN.md §14)";
              } ]
          else []
        in
        unused @ bare)
      allows
  in
  (kept @ audit, Hashtbl.length used)

(* [check_source ~file ?exempt source] is [(findings, suppressed_count)].
   [exempt] names rules scope-exempted for this file (e.g. lib/exec's
   domain-spawn / nondet-clock): their findings are dropped before
   allow-matching, so a scoped exemption never needs per-line allows. *)
let check_source ~file ?(exempt = []) source =
  let allows = scan_allows source in
  let raw =
    check_structure ~file source
    |> List.filter (fun f -> not (List.mem f.rule exempt))
  in
  let kept, suppressed = apply_allows ~file ~allows raw in
  (List.sort compare_findings kept, suppressed)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_file ?exempt path = check_source ~file:path ?exempt (read_file path)
