(* Self-healing decomposition: break an already-built CDS packing with
   targeted crashes, then race the two recovery policies of
   Domtree.Reliable — [`Retry] re-decomposes from scratch, [`Repair]
   splices the surviving fragments locally and re-verifies. Both return
   a machine-checkable Certificate for whatever survived.

   Everything is deterministic for the fixed seeds below. *)

module F = Congest.Faults
module Reliable = Domtree.Reliable
module Certificate = Domtree.Certificate

let () =
  let k = 8 and n = 48 and seed = 11 in
  let g = Graphs.Gen.harary ~k ~n in
  let classes = max 2 (2 * k / 3) and layers = 2 in

  (* calibrate: how long does the packing take unmolested? A crash storm
     scheduled after that point hits the verification window — the
     packing is already built, and the storm punches holes in it. *)
  let after =
    let net = Congest.Net.create Congest.Model.V_congest g in
    ignore (Domtree.Dist_packing.run ~seed net ~classes ~layers);
    Congest.Net.rounds net + 2
  in
  Format.printf "harary k=%d n=%d: packing takes %d rounds; storm at %d@." k n
    (after - 2) after;

  let race policy =
    let net = Congest.Net.create Congest.Model.V_congest g in
    let faults =
      F.create ~seed
        [
          F.Crash_storm
            { from_round = after; per_round = 4; storm_rounds = 3; universe = n };
        ]
    in
    F.install net faults;
    let r = Reliable.run_verified_distributed ~seed ~policy ~k net ~classes ~layers in
    Format.printf
      "%-8s verified=%b in %d rounds, %d attempt(s), %d/%d classes, %d crashed@."
      (match policy with `Retry -> "retry:" | `Repair -> "repair:")
      r.Reliable.verified r.Reliable.rounds_charged
      (List.length r.Reliable.attempts)
      r.Reliable.classes_retained classes
      (List.length (F.crashed_nodes faults));
    (match r.Reliable.repair with
    | Some rep -> Format.printf "  %a@." Domtree.Repair.pp rep
    | None -> ());
    (* the certificate is a claim anyone can re-check against the live
       subgraph — here we do, with an independent seed *)
    (match
       Certificate.check ~seed:(seed + 100) ~live:(F.alive faults) g
         ~memberships:(fun v -> r.Reliable.memberships.(v))
         r.Reliable.certificate
     with
    | Ok () -> Format.printf "  %a — checks@." Certificate.pp r.Reliable.certificate
    | Error es -> List.iter (Format.printf "  certificate REJECTED: %s@.") es);
    r
  in

  let retry = race `Retry in
  let repair = race `Repair in
  assert repair.Reliable.verified;
  assert (repair.Reliable.classes_retained = classes);
  (* the point of incremental repair: where both policies cope, repair
     is never slower — here retry packs and tests a second time, repair
     heals the first packing in place *)
  assert ((not retry.Reliable.verified)
         || repair.Reliable.rounds_charged <= retry.Reliable.rounds_charged);
  Format.printf "repair healed in %d rounds; full retry charged %d@."
    repair.Reliable.rounds_charged retry.Reliable.rounds_charged
