(* congest-lint rule tests: every rule must fire on a known-bad inline
   fixture and stay silent on the known-good twin, the "lint: allow"
   escape hatch must suppress exactly one finding, and a dangling allow
   must itself be reported. These run the analyzer as a library
   (Lint_core.check_source) on source strings — no files involved. *)

let rules_of src =
  let findings, _ = Lint_core.check_source ~file:"fixture.ml" src in
  List.map (fun f -> f.Lint_core.rule) findings

let suppressed_of src = snd (Lint_core.check_source ~file:"fixture.ml" src)

let check_fires rule src () =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires" rule)
    true
    (List.mem rule (rules_of src))

let check_silent src () =
  Alcotest.(check (list string)) "no findings" [] (rules_of src)

(* --- nondet-random ------------------------------------------------- *)

let bad_random = "let roll () = Random.int 6\n"
let good_random = "let roll st = Random.State.int st 6\n"
let bad_self_init = "let () = Random.self_init ()\n"

(* --- nondet-clock -------------------------------------------------- *)

let bad_clock = "let stamp () = Sys.time ()\n"
let bad_unix = "let stamp () = Unix.gettimeofday ()\n"
let good_clock = "let stamp counter = incr counter; !counter\n"

(* --- nondet-hash --------------------------------------------------- *)

let bad_hash = "let key x = Hashtbl.hash x\n"
let good_hash = "let key (a, b) = (a * 65599) + b\n"

(* --- hashtbl-order ------------------------------------------------- *)

let bad_fold = "let keys h = Hashtbl.fold (fun k _ acc -> k :: acc) h []\n"
let bad_iter = "let send h f = Hashtbl.iter (fun k v -> f k v) h\n"

let good_fold_piped =
  "let keys h = Hashtbl.fold (fun k _ acc -> k :: acc) h [] |> List.sort \
   Int.compare\n"

let good_fold_direct =
  "let keys h = List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) \
   h [])\n"

(* cardinality via List.length is order-blind and sanctioned *)
let good_fold_length =
  "let size h = List.length (Hashtbl.fold (fun k _ acc -> k :: acc) h [])\n"

(* --- global-mutable-state ------------------------------------------ *)

let bad_global_ref = "let counter = ref 0\nlet bump () = incr counter\n"
let bad_global_table = "let cache = Hashtbl.create 16\n"
let bad_global_in_module = "module M = struct\n  let buf = Buffer.create 64\nend\n"
let good_local_ref = "let count xs =\n  let c = ref 0 in\n  List.iter (fun _ -> incr c) xs;\n  !c\n"
let good_immutable = "let limit = 64\nlet name = \"net\"\n"

(* --- obj-magic ----------------------------------------------------- *)

let bad_obj = "let coerce (x : int) : string = Obj.magic x\n"

(* --- physical-eq --------------------------------------------------- *)

let bad_phys_eq = "let same a b = a == b\n"
let bad_phys_neq = "let differ a b = a != b\n"
let good_struct_eq = "let same a b = a = b\n"

(* --- polymorphic-compare ------------------------------------------- *)

let bad_bare_compare = "let order xs = List.sort compare xs\n"
let bad_stdlib_compare = "let order xs = List.sort Stdlib.compare xs\n"
let bad_tuple_cmp = "let better w a b best = (w, a, b) < best\n"
let bad_some_cmp = "let won tbl k v = Hashtbl.find_opt tbl k = Some v\n"
let good_mono_compare = "let order xs = List.sort Int.compare xs\n"
let good_ident_cmp = "let better a b = a < b\n"

(* constant constructors compare immediately: must not fire *)
let good_none_cmp = "let missing o = o = None\n"

let allowed_compare =
  "(* lint: allow polymorphic-compare — cold path, keys are int pairs *)\n\
   let order xs = List.sort compare xs\n"

let test_allow_works_on_polymorphic_compare () =
  Alcotest.(check (list string)) "allow suppresses polymorphic-compare" []
    (rules_of allowed_compare);
  Alcotest.(check int) "one suppression" 1 (suppressed_of allowed_compare)

let test_exempt_drops_polymorphic_compare () =
  (* the driver scope-restricts this rule to lib/graph + lib/congest by
     exempting every other file; the exemption must drop the finding *)
  let findings, _ =
    Lint_core.check_source ~file:"lib/routing/broadcast.ml"
      ~exempt:[ "polymorphic-compare" ] bad_bare_compare
  in
  Alcotest.(check (list string)) "out-of-scope file is clean" []
    (List.map (fun f -> f.Lint_core.rule) findings)

(* --- silenced-warning ---------------------------------------------- *)

let bad_floating_attr = "[@@@warning \"-27\"]\nlet f x = 0\n"
let bad_expr_attr = "let f x = (ignore x [@warning \"-27\"])\n"

(* --- domain-spawn -------------------------------------------------- *)

let bad_spawn = "let fork f = Domain.spawn f\n"

let good_domain_query =
  "let width () = Domain.recommended_domain_count () - 1\n"

(* --- scoped exemption (lib/exec) ----------------------------------- *)

let exec_like =
  "let time_it f =\n\
  \  let t0 = Unix.gettimeofday () in\n\
  \  let d = Domain.spawn f in\n\
  \  let r = Domain.join d in\n\
  \  (r, Unix.gettimeofday () -. t0)\n"

let test_exempt_drops_scoped_rules () =
  let findings, _ =
    Lint_core.check_source ~file:"lib/exec/pool.ml"
      ~exempt:[ "domain-spawn"; "nondet-clock" ]
      exec_like
  in
  Alcotest.(check (list string)) "scope-exempt rules dropped" []
    (List.map (fun f -> f.Lint_core.rule) findings)

let test_exempt_is_rule_specific () =
  (* the exemption must not blanket-silence the file: a different rule
     in an exempted file still fires *)
  let findings, _ =
    Lint_core.check_source ~file:"lib/exec/pool.ml"
      ~exempt:[ "domain-spawn"; "nondet-clock" ]
      (exec_like ^ "let roll () = Random.int 6\n")
  in
  Alcotest.(check (list string)) "other rules still fire" [ "nondet-random" ]
    (List.map (fun f -> f.Lint_core.rule) findings)

let test_allow_works_on_domain_spawn () =
  let src =
    "(* lint: allow domain-spawn — test fixture *)\nlet fork f = Domain.spawn \
     f\n"
  in
  Alcotest.(check (list string)) "allow suppresses domain-spawn" []
    (rules_of src);
  Alcotest.(check int) "one suppression" 1 (suppressed_of src)

(* --- escape hatch -------------------------------------------------- *)

let allowed_fold =
  "(* lint: allow hashtbl-order — commutative min over entries *)\n\
   let best h = Hashtbl.fold (fun _ v acc -> min v acc) h max_int\n"

let allow_suppresses_only_its_rule =
  "(* lint: allow hashtbl-order — wrong rule for this finding *)\n\
   let roll () = Random.int 6\n"

let unused_allow = "(* lint: allow nondet-random — nothing here *)\nlet x = 1\n"

let stacked_allows =
  "(* lint: allow hashtbl-order — first *)\n\
   let a h = Hashtbl.fold (fun k _ acc -> k :: acc) h []\n\
   (* lint: allow hashtbl-order — second *)\n\
   let b h = Hashtbl.fold (fun k _ acc -> k :: acc) h []\n"

let test_allow_suppresses () =
  Alcotest.(check (list string)) "no findings" [] (rules_of allowed_fold);
  Alcotest.(check int) "one suppression" 1 (suppressed_of allowed_fold)

let test_allow_rule_specific () =
  Alcotest.(check bool) "nondet-random still fires" true
    (List.mem "nondet-random" (rules_of allow_suppresses_only_its_rule));
  Alcotest.(check bool) "dangling allow reported" true
    (List.mem "unused-allow" (rules_of allow_suppresses_only_its_rule))

let test_unused_allow () =
  Alcotest.(check (list string)) "reported" [ "unused-allow" ]
    (rules_of unused_allow)

let test_stacked_allows () =
  (* nearest-match binding: each allow claims the finding directly below
     it, so two stacked pairs leave nothing unsuppressed and no unused *)
  Alcotest.(check (list string)) "all suppressed" [] (rules_of stacked_allows);
  Alcotest.(check int) "two suppressions" 2 (suppressed_of stacked_allows)

(* --- parse-error --------------------------------------------------- *)

let test_parse_error () =
  Alcotest.(check bool) "unparsable source reported" true
    (List.mem "parse-error" (rules_of "let let let = = ="))

(* ------------------------------------------------------------------- *)
(* Typedtree rules (Typed_lint.fixture_findings typechecks the fixture
   in-process and runs the same walks the driver runs on a .cmt). *)

let typed_rules_of src =
  List.map (fun f -> f.Lint_core.rule) (Typed_lint.fixture_findings src)

let typed_fires rule src name =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check bool)
        (Printf.sprintf "%s fires" rule)
        true
        (List.mem rule (typed_rules_of src)))

let typed_silent_on rule src name =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check bool)
        (Printf.sprintf "%s does not fire" rule)
        false
        (List.mem rule (typed_rules_of src)))

(* --- domain-race --------------------------------------------------- *)

let race_captured_ref =
  "let f () =\n\
  \  let hits = ref 0 in\n\
  \  let d = Domain.spawn (fun () -> hits := !hits + 1) in\n\
  \  ignore (Domain.join d);\n\
  \  !hits\n"

(* the acceptance fixture: a module alias hides the spawn from any
   spelling-based (parsetree) analysis, but not from the typedtree *)
let race_aliased_spawn =
  "module D = Domain\n\
   let f () =\n\
  \  let hits = ref 0 in\n\
  \  let d = D.spawn (fun () -> hits := !hits + 1) in\n\
  \  ignore (D.join d);\n\
  \  !hits\n"

let race_constant_slot =
  "let f () =\n\
  \  let slots = Array.make 2 0 in\n\
  \  let d = Domain.spawn (fun () -> slots.(0) <- 1) in\n\
  \  ignore (Domain.join d);\n\
  \  slots\n"

let race_hashtbl =
  "let f tbl =\n\
  \  let d = Domain.spawn (fun () -> Hashtbl.replace tbl 0 1) in\n\
  \  ignore (Domain.join d)\n"

(* a spawn closure calling a let-bound sibling loop is followed onto the
   spawned domain *)
let race_via_worker =
  "let f () =\n\
  \  let total = ref 0 in\n\
  \  let rec worker k =\n\
  \    if k > 0 then begin total := !total + k; worker (k - 1) end\n\
  \  in\n\
  \  let d = Domain.spawn (fun () -> worker 3) in\n\
  \  ignore (Domain.join d);\n\
  \  !total\n"

(* module-level state mutated by a function merely *reachable* from a
   spawn closure (interprocedural pass) *)
let race_module_state =
  "let tally = ref 0\n\
   let bump () = tally := !tally + 1\n\
   let go () = Domain.spawn bump\n"

(* a pool-style entry point (suffix-matched like Exec.Pool.run) also
   counts as a domain boundary *)
let race_pool_entry =
  "module Pool = struct\n\
  \  let run ~jobs f = ignore jobs; f 0\n\
   end\n\
   let f () =\n\
  \  let acc = ref [] in\n\
  \  Pool.run ~jobs:2 (fun i -> acc := i :: !acc)\n"

(* index-owned slots are the sanctioned discipline inside a pool
   entry point, and the caller's merge after it returns runs on the
   calling domain *)
let pool_prelude =
  "module Pool = struct\n\
  \  let run ~jobs f = for i = 0 to jobs - 1 do f i done\n\
   end\n"

let good_pool_slotted =
  pool_prelude
  ^ "let f n =\n\
    \  let slots = Array.make n 0 in\n\
    \  Pool.run ~jobs:n (fun k -> slots.(k) <- k);\n\
    \  slots\n"

let good_pool_caller_merge =
  pool_prelude
  ^ "let f () =\n\
    \  let slots = Array.make 2 0 and total = ref 0 in\n\
    \  Pool.run ~jobs:2 (fun k -> slots.(k) <- k);\n\
    \  Array.iter (fun x -> total := !total + x) slots;\n\
    \  !total\n"

let good_atomic =
  "let f () =\n\
  \  let hits = Atomic.make 0 in\n\
  \  let d = Domain.spawn (fun () -> Atomic.incr hits) in\n\
  \  ignore (Domain.join d);\n\
  \  Atomic.get hits\n"

let good_index_slot =
  "let f n =\n\
  \  let slots = Array.make n 0 in\n\
  \  let ds = List.init n (fun i -> Domain.spawn (fun () -> slots.(i) <- 1)) in\n\
  \  List.iter (fun d -> ignore (Domain.join d)) ds;\n\
  \  slots\n"

let good_closure_local =
  "let f () =\n\
  \  let d = Domain.spawn (fun () -> let c = ref 0 in incr c; !c) in\n\
  \  Domain.join d\n"

(* mutation outside any spawn closure is single-domain and fine *)
let good_no_spawn =
  "let f xs =\n\
  \  let c = ref 0 in\n\
  \  List.iter (fun _ -> incr c) xs;\n\
  \  !c\n"

(* --- msg-budget ---------------------------------------------------- *)

(* a local module named Net satisfies the suffix match exactly like
   Congest.Net does in the tree *)
let net_prelude =
  "module Net = struct\n\
  \  let broadcast_round (n : int) (send : int -> int array option) =\n\
  \    ignore n; ignore send\n\
   end\n"

let budget_of_list =
  net_prelude
  ^ "let f n xs = Net.broadcast_round n (fun _ -> Some (Array.of_list xs))\n"

let budget_wide_literal =
  net_prelude
  ^ "let f n = Net.broadcast_round n (fun _ -> Some [| 0; 1; 2; 3; 4; 5; 6; \
     7; 8 |])\n"

let budget_make_nonconst =
  net_prelude
  ^ "let f n w = Net.broadcast_round n (fun _ -> Some (Array.make w 0))\n"

(* the send closure bound beside the call site is still walked *)
let budget_local_send =
  net_prelude
  ^ "let f n xs =\n\
    \  let send _ = Some (Array.of_list xs) in\n\
    \  Net.broadcast_round n send\n"

let good_budget_literal =
  net_prelude ^ "let f n = Net.broadcast_round n (fun v -> Some [| v; 1 |])\n"

let good_budget_const_make =
  net_prelude
  ^ "let f n = Net.broadcast_round n (fun _ -> Some (Array.make 4 0))\n"

(* of_list far from any send closure is not a message *)
let good_of_list_elsewhere = "let f xs = Array.of_list xs\n"

(* --- typed ports see through aliases -------------------------------- *)

let aliased_random = "module R = Random\nlet roll () = R.int 6\n"
let aliased_obj = "module O = Obj\nlet c (x : int) : string = O.magic x\n"

let typed_good_sorted_fold =
  "let keys h =\n\
  \  Hashtbl.fold (fun k _ acc -> k :: acc) h [] |> List.sort Int.compare\n"

let typed_bad_fold = "let keys h = Hashtbl.fold (fun k _ acc -> k :: acc) h []\n"

(* polymorphic-compare by operand type: no literal in sight *)
let typed_tuple_operand = "let f (p : int * int) q = p < q\n"

let typed_tuple_abbrev =
  "type edge = int * int\nlet same (a : edge) b = a = b\n"

let typed_tuple_array_cell =
  "let better best v (pair : int * int) = pair < best.(v)\n"

let typed_int_operand = "let f (x : int) y = x < y\n"

(* --- typecheck-error ----------------------------------------------- *)

let test_typecheck_error () =
  Alcotest.(check (list string)) "ill-typed fixture reported"
    [ "typecheck-error" ]
    (typed_rules_of "let x : int = \"s\"\n")

(* --- the acceptance comparison: parsetree misses, typedtree catches - *)

let test_aliased_spawn_beats_parsetree () =
  let parse_rules = rules_of race_aliased_spawn in
  Alcotest.(check bool) "parsetree misses the aliased spawn" false
    (List.mem "domain-spawn" parse_rules);
  Alcotest.(check bool) "parsetree misses the race" false
    (List.mem "domain-race" parse_rules);
  let typed_rules = typed_rules_of race_aliased_spawn in
  Alcotest.(check bool) "typedtree catches the spawn" true
    (List.mem "domain-spawn" typed_rules);
  Alcotest.(check bool) "typedtree catches the race" true
    (List.mem "domain-race" typed_rules)

(* ------------------------------------------------------------------- *)
(* Suppression auditor *)

let test_bare_allow_reported () =
  let src =
    "(* lint: allow hashtbl-order *)\n\
     let keys h = Hashtbl.fold (fun k _ acc -> k :: acc) h []\n"
  in
  let rules = rules_of src in
  Alcotest.(check bool) "finding suppressed" false
    (List.mem "hashtbl-order" rules);
  Alcotest.(check bool) "bare allow reported" true
    (List.mem "bare-allow" rules)

let test_msg_budget_allow_needs_model () =
  let src = "(* lint: allow msg-budget — it is tiny *)\nlet x = 1\n" in
  let allows = Lint_core.scan_allows src in
  let finding =
    { Lint_core.file = "f.ml"; line = 2; col = 0; rule = "msg-budget";
      message = "m" }
  in
  let kept, suppressed = Lint_core.apply_allows ~file:"f.ml" ~allows [ finding ] in
  Alcotest.(check int) "finding suppressed" 1 suppressed;
  Alcotest.(check (list string)) "but flagged for missing Model anchor"
    [ "bare-allow" ]
    (List.map (fun f -> f.Lint_core.rule) kept)

let test_msg_budget_allow_with_model () =
  let src =
    "(* lint: allow msg-budget — 2 words, within Model.words_budget *)\n\
     let x = 1\n"
  in
  let allows = Lint_core.scan_allows src in
  let finding =
    { Lint_core.file = "f.ml"; line = 2; col = 0; rule = "msg-budget";
      message = "m" }
  in
  let kept, suppressed = Lint_core.apply_allows ~file:"f.ml" ~allows [ finding ] in
  Alcotest.(check int) "finding suppressed" 1 suppressed;
  Alcotest.(check (list string)) "no audit findings" []
    (List.map (fun f -> f.Lint_core.rule) kept)

let test_obs_clock_allow_needs_metrics () =
  (* inside lib/obs a nondet-clock allow must cite the metrics
     determinism boundary, same shape as the msg-budget Model anchor *)
  let src = "(* lint: allow nondet-clock — timing stuff *)\nlet x = 1\n" in
  let allows = Lint_core.scan_allows src in
  let finding =
    { Lint_core.file = "lib/obs/span.ml"; line = 2; col = 0;
      rule = "nondet-clock"; message = "m" }
  in
  let kept, suppressed =
    Lint_core.apply_allows ~file:"lib/obs/span.ml" ~allows [ finding ]
  in
  Alcotest.(check int) "finding suppressed" 1 suppressed;
  Alcotest.(check (list string)) "but flagged for missing metrics anchor"
    [ "bare-allow" ]
    (List.map (fun f -> f.Lint_core.rule) kept)

let test_obs_clock_allow_with_metrics () =
  let src =
    "(* lint: allow nondet-clock — span timestamps are observability \
     metrics only; never in payloads or digests *)\n\
     let x = 1\n"
  in
  let allows = Lint_core.scan_allows src in
  let finding =
    { Lint_core.file = "lib/obs/span.ml"; line = 2; col = 0;
      rule = "nondet-clock"; message = "m" }
  in
  let kept, suppressed =
    Lint_core.apply_allows ~file:"lib/obs/span.ml" ~allows [ finding ]
  in
  Alcotest.(check int) "finding suppressed" 1 suppressed;
  Alcotest.(check (list string)) "no audit findings" []
    (List.map (fun f -> f.Lint_core.rule) kept);
  (* the same reason outside lib/obs is also fine — the rule is scoped *)
  let src' = "(* lint: allow nondet-clock — wall-clock deadline *)\nlet x = 1\n" in
  let allows' = Lint_core.scan_allows src' in
  let finding' =
    { Lint_core.file = "lib/serve/worker.ml"; line = 2; col = 0;
      rule = "nondet-clock"; message = "m" }
  in
  let kept', _ =
    Lint_core.apply_allows ~file:"lib/serve/worker.ml" ~allows:allows'
      [ finding' ]
  in
  Alcotest.(check (list string)) "unscoped file not audited" []
    (List.map (fun f -> f.Lint_core.rule) kept')

let test_multiline_allow () =
  (* the justification may span lines; suppression anchors on the line
     the comment closes, and the Model anchor may sit on any of them *)
  let src =
    "(* lint: allow msg-budget — chunked to a fixed width,\n\
    \   each packet stays within Model.words_budget *)\n\
     let x = 1\n"
  in
  match Lint_core.scan_allows src with
  | [ a ] ->
    Alcotest.(check int) "anchored on the closing line" 2 a.Lint_core.a_line;
    Alcotest.(check bool) "reason crosses the line break" true
      (String.length a.Lint_core.a_reason > 20)
  | l -> Alcotest.failf "expected one allow, got %d" (List.length l)

(* ------------------------------------------------------------------- *)
(* SARIF *)

let sample_findings =
  [
    { Lint_core.file = "lib/a.ml"; line = 3; col = 4; rule = "domain-race";
      message = "r1" };
    { Lint_core.file = "lib/b.ml"; line = 7; col = 0; rule = "msg-budget";
      message = "r2" };
  ]

let test_sarif_well_formed () =
  let doc =
    Sarif.report ~rules:Lint_core.rules
      ~baseline_state:(fun f ->
        if f.Lint_core.rule = "msg-budget" then Some "new" else Some "unchanged")
      sample_findings
  in
  let json = Sarif.Json.parse (Sarif.Json.to_string doc) in
  let str_member k j =
    Option.bind (Sarif.Json.member k j) Sarif.Json.as_string
  in
  Alcotest.(check (option string)) "schema"
    (Some "https://json.schemastore.org/sarif-2.1.0.json")
    (str_member "$schema" json);
  Alcotest.(check (option string)) "version" (Some "2.1.0")
    (str_member "version" json);
  let run =
    match Option.bind (Sarif.Json.member "runs" json) Sarif.Json.as_list with
    | Some [ r ] -> r
    | _ -> Alcotest.fail "expected exactly one run"
  in
  let driver =
    match Option.bind (Sarif.Json.member "tool" run) (Sarif.Json.member "driver") with
    | Some d -> d
    | None -> Alcotest.fail "missing tool.driver"
  in
  Alcotest.(check (option string)) "driver name" (Some "congest-lint")
    (str_member "name" driver);
  (match Option.bind (Sarif.Json.member "rules" driver) Sarif.Json.as_list with
  | Some rules ->
    Alcotest.(check int) "one descriptor per rule"
      (List.length Lint_core.rules) (List.length rules);
    Alcotest.(check bool) "every descriptor has an id" true
      (List.for_all (fun r -> str_member "id" r <> None) rules)
  | None -> Alcotest.fail "missing driver.rules");
  match Option.bind (Sarif.Json.member "results" run) Sarif.Json.as_list with
  | Some [ r1; r2 ] ->
    Alcotest.(check (option string)) "ruleId" (Some "domain-race")
      (str_member "ruleId" r1);
    Alcotest.(check (option string)) "level" (Some "error")
      (str_member "level" r1);
    Alcotest.(check (option string)) "baselineState carries the diff"
      (Some "new")
      (str_member "baselineState" r2);
    let start_line =
      Option.bind (Sarif.Json.member "locations" r1) Sarif.Json.as_list
      |> Fun.flip Option.bind (function l :: _ -> Some l | [] -> None)
      |> Fun.flip Option.bind (Sarif.Json.member "physicalLocation")
      |> Fun.flip Option.bind (Sarif.Json.member "region")
      |> Fun.flip Option.bind (Sarif.Json.member "startLine")
      |> Fun.flip Option.bind Sarif.Json.as_int
    in
    Alcotest.(check (option int)) "startLine" (Some 3) start_line
  | _ -> Alcotest.fail "expected two results"

(* ------------------------------------------------------------------- *)
(* Baseline diff *)

let test_baseline_diff () =
  let base = Baseline.of_findings sample_findings in
  (* identical findings: everything tracked, nothing new *)
  let d = Baseline.diff base sample_findings in
  Alcotest.(check int) "no new findings" 0 d.Baseline.new_count;
  Alcotest.(check int) "both tracked" 2 d.Baseline.tracked_count;
  Alcotest.(check int) "nothing resolved" 0 (List.length d.Baseline.resolved);
  (* one extra finding in a tracked bucket: exactly one is new *)
  let extra =
    { Lint_core.file = "lib/a.ml"; line = 9; col = 0; rule = "domain-race";
      message = "r3" }
  in
  let d = Baseline.diff base (sample_findings @ [ extra ]) in
  Alcotest.(check int) "surplus finding is new" 1 d.Baseline.new_count;
  Alcotest.(check string) "the surplus one is the new one" "new"
    (d.Baseline.state extra);
  (* a bucket that emptied out is surfaced as resolved *)
  let d = Baseline.diff base [ List.hd sample_findings ] in
  Alcotest.(check int) "resolved bucket surfaced" 1
    (List.length d.Baseline.resolved)

let test_baseline_roundtrip () =
  let path = Filename.temp_file "lint_baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Baseline.save path (Baseline.of_findings sample_findings);
      match Baseline.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok t ->
        let d = Baseline.diff t sample_findings in
        Alcotest.(check int) "roundtrip tracks everything" 0
          d.Baseline.new_count)

let test_baseline_rejects_garbage () =
  let path = Filename.temp_file "lint_baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"not\": \"an array\"}";
      close_out oc;
      match Baseline.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage baseline accepted")

(* --- self-check: the shipped tree is clean ------------------------- *)

let test_multiple_findings_counted () =
  let src = "let a () = Random.int 2\nlet b () = Random.bool ()\n" in
  Alcotest.(check int) "both sites reported" 2 (List.length (rules_of src))

let fires rule src name = Alcotest.test_case name `Quick (check_fires rule src)
let silent src name = Alcotest.test_case name `Quick (check_silent src)

let () =
  Alcotest.run "lint"
    [
      ( "fires-on-bad",
        [
          fires "nondet-random" bad_random "Random.int";
          fires "nondet-random" bad_self_init "Random.self_init";
          fires "nondet-clock" bad_clock "Sys.time";
          fires "nondet-clock" bad_unix "Unix.gettimeofday";
          fires "nondet-hash" bad_hash "Hashtbl.hash";
          fires "hashtbl-order" bad_fold "bare fold";
          fires "hashtbl-order" bad_iter "bare iter";
          fires "global-mutable-state" bad_global_ref "toplevel ref";
          fires "global-mutable-state" bad_global_table "toplevel Hashtbl";
          fires "global-mutable-state" bad_global_in_module "ref inside module";
          fires "obj-magic" bad_obj "Obj.magic";
          fires "physical-eq" bad_phys_eq "(==)";
          fires "physical-eq" bad_phys_neq "(!=)";
          fires "silenced-warning" bad_floating_attr "floating attribute";
          fires "silenced-warning" bad_expr_attr "expression attribute";
          fires "domain-spawn" bad_spawn "Domain.spawn";
          fires "polymorphic-compare" bad_bare_compare "bare compare";
          fires "polymorphic-compare" bad_stdlib_compare "Stdlib.compare";
          fires "polymorphic-compare" bad_tuple_cmp "tuple operand";
          fires "polymorphic-compare" bad_some_cmp "Some payload operand";
        ] );
      ( "silent-on-good",
        [
          silent good_random "Random.State";
          silent good_clock "logical clock";
          silent good_hash "explicit hash";
          silent good_fold_piped "fold |> sort";
          silent good_fold_direct "sort (fold ...)";
          silent good_fold_length "List.length (fold ...)";
          silent good_local_ref "function-local ref";
          silent good_immutable "immutable toplevel";
          silent good_struct_eq "structural equality";
          silent good_domain_query "Domain.recommended_domain_count";
          silent good_mono_compare "Int.compare comparator";
          silent good_ident_cmp "(<) on identifiers";
          silent good_none_cmp "(=) against None";
        ] );
      ( "escape-hatch",
        [
          Alcotest.test_case "allow suppresses" `Quick test_allow_suppresses;
          Alcotest.test_case "allow is rule-specific" `Quick
            test_allow_rule_specific;
          Alcotest.test_case "unused allow reported" `Quick test_unused_allow;
          Alcotest.test_case "stacked allows bind nearest" `Quick
            test_stacked_allows;
          Alcotest.test_case "allow works on domain-spawn" `Quick
            test_allow_works_on_domain_spawn;
          Alcotest.test_case "allow works on polymorphic-compare" `Quick
            test_allow_works_on_polymorphic_compare;
        ] );
      ( "scoped-exemption",
        [
          Alcotest.test_case "exempt drops scoped rules" `Quick
            test_exempt_drops_scoped_rules;
          Alcotest.test_case "exempt is rule-specific" `Quick
            test_exempt_is_rule_specific;
          Alcotest.test_case "exempt drops polymorphic-compare" `Quick
            test_exempt_drops_polymorphic_compare;
        ] );
      ( "parse",
        [
          Alcotest.test_case "parse error reported" `Quick test_parse_error;
          Alcotest.test_case "multiple findings counted" `Quick
            test_multiple_findings_counted;
        ] );
      ( "typed-domain-race",
        [
          typed_fires "domain-race" race_captured_ref "captured ref";
          typed_fires "domain-race" race_constant_slot "constant index slot";
          typed_fires "domain-race" race_hashtbl "captured Hashtbl";
          typed_fires "domain-race" race_via_worker "via let-bound worker";
          typed_fires "domain-race" race_module_state
            "module state, interprocedural";
          typed_fires "domain-race" race_pool_entry "pool-style entry point";
          typed_silent_on "domain-race" good_pool_slotted
            "index-owned slots in Pool.run";
          typed_silent_on "domain-race" good_pool_caller_merge
            "caller merge after Pool.run";
          typed_silent_on "domain-race" good_atomic "Atomic discipline";
          typed_silent_on "domain-race" good_index_slot "per-domain slot";
          typed_silent_on "domain-race" good_closure_local "closure-local ref";
          typed_silent_on "domain-race" good_no_spawn "no spawn, no race";
          Alcotest.test_case "aliased spawn: typed catches, parsetree misses"
            `Quick test_aliased_spawn_beats_parsetree;
        ] );
      ( "typed-msg-budget",
        [
          typed_fires "msg-budget" budget_of_list "Array.of_list in send";
          typed_fires "msg-budget" budget_wide_literal "9-word literal";
          typed_fires "msg-budget" budget_make_nonconst "non-constant make";
          typed_fires "msg-budget" budget_local_send "let-bound send closure";
          typed_silent_on "msg-budget" good_budget_literal "2-word literal";
          typed_silent_on "msg-budget" good_budget_const_make "Array.make 4";
          typed_silent_on "msg-budget" good_of_list_elsewhere
            "of_list outside any send";
        ] );
      ( "typed-ports",
        [
          typed_fires "nondet-random" aliased_random "aliased Random";
          typed_fires "obj-magic" aliased_obj "aliased Obj";
          typed_fires "hashtbl-order" typed_bad_fold "bare fold (typed)";
          typed_silent_on "hashtbl-order" typed_good_sorted_fold
            "piped sort sanctions (typed)";
          typed_fires "polymorphic-compare" typed_tuple_operand
            "(<) on a tuple-typed operand";
          typed_fires "polymorphic-compare" typed_tuple_abbrev
            "(=) on a tuple abbreviation";
          typed_fires "polymorphic-compare" typed_tuple_array_cell
            "(<) against a tuple array cell";
          typed_silent_on "polymorphic-compare" typed_int_operand
            "(<) on int operands";
          Alcotest.test_case "ill-typed fixture reported" `Quick
            test_typecheck_error;
        ] );
      ( "suppression-audit",
        [
          Alcotest.test_case "bare allow reported" `Quick
            test_bare_allow_reported;
          Alcotest.test_case "msg-budget allow needs Model anchor" `Quick
            test_msg_budget_allow_needs_model;
          Alcotest.test_case "msg-budget allow with Model passes" `Quick
            test_msg_budget_allow_with_model;
          Alcotest.test_case "lib/obs clock allow needs metrics anchor" `Quick
            test_obs_clock_allow_needs_metrics;
          Alcotest.test_case "lib/obs clock allow with metrics passes" `Quick
            test_obs_clock_allow_with_metrics;
          Alcotest.test_case "multi-line allow" `Quick test_multiline_allow;
        ] );
      ( "sarif",
        [ Alcotest.test_case "well-formed report" `Quick test_sarif_well_formed ] );
      ( "baseline",
        [
          Alcotest.test_case "diff classifies new vs tracked" `Quick
            test_baseline_diff;
          Alcotest.test_case "save/load roundtrip" `Quick
            test_baseline_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick
            test_baseline_rejects_garbage;
        ] );
    ]
