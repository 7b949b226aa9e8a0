(* Reproduction of every table and figure in the paper's evaluation
   (§5). Each experiment prints the measured values next to the
   paper's, so shape comparisons are direct. See DESIGN.md (experiment
   index) and EXPERIMENTS.md (recorded results). *)

module Pipeline = Zodiac.Pipeline
module Report = Zodiac.Report
module Registry = Zodiac.Registry
module Generator = Zodiac_corpus.Generator
module Kb = Zodiac_kb.Kb
module Miner = Zodiac_mining.Miner
module Filter = Zodiac_mining.Filter
module Candidate = Zodiac_mining.Candidate
module Templates = Zodiac_mining.Templates
module Llm = Zodiac_oracle.Llm
module Scheduler = Zodiac_validation.Scheduler
module Testcase = Zodiac_validation.Testcase
module Mutation = Zodiac_validation.Mutation
module Mdc = Zodiac_validation.Mdc
module Rules = Zodiac_cloud.Rules
module Arm = Zodiac_cloud.Arm
module Checker = Zodiac_checkers.Checker
module Baselines = Zodiac_checkers.Baselines
module Check = Zodiac_spec.Check
module Spec_printer = Zodiac_spec.Spec_printer
module Eval = Zodiac_spec.Eval
module Graph = Zodiac_iac.Graph
module Program = Zodiac_iac.Program
module Resource = Zodiac_iac.Resource
module Tablefmt = Zodiac_util.Tablefmt
module Prng = Zodiac_util.Prng

let provider = Zodiac_azure.Azure.provider

open Harness

(* Negative test cases for the validated checks, reused by E2 and E4;
   several positive test cases per check widen the sample the way the
   paper's ~500 randomly generated cases do. *)
let negative_cases :
    (Check.t * Mutation.result) list Lazy.t =
  lazy
    (let a = Lazy.force artifacts in
     let kb = a.Pipeline.kb in
     let corpus = a.Pipeline.corpus in
     List.concat_map
       (fun check ->
         List.filter_map
           (fun tp ->
             Option.map
               (fun res -> (check, res))
               (Mutation.negative ~provider ~kb ~donors:corpus ~target:check
                  ~hard:
                    (List.filter
                       (fun (c : Check.t) -> c.Check.cid <> check.Check.cid)
                       a.Pipeline.final_checks)
                  ~soft:[] tp))
           (Testcase.find ~provider ~limit:3 ~corpus check))
       a.Pipeline.final_checks)

(* Whole-program variants of the same negative cases, used by E4 so the
   baseline checkers see full repositories (the paper samples programs,
   not MDCs; their security findings mostly come from resources
   Zodiac's pruning would have removed). The mutated MDC resources are
   grafted back into the original program. *)
let negative_cases_unpruned :
    (Check.t * Mutation.result) list Lazy.t =
  lazy
    (let a = Lazy.force artifacts in
     let kb = a.Pipeline.kb in
     let corpus = a.Pipeline.corpus in
     List.filter_map
       (fun check ->
         match Testcase.find ~provider ~limit:1 ~corpus check with
         | [] -> None
         | tp :: _ ->
             Option.map
               (fun (res : Mutation.result) ->
                 let grafted =
                   List.fold_left Program.add tp.Testcase.original
                     (Program.resources res.Mutation.program)
                 in
                 (check, { res with Mutation.program = grafted }))
               (Mutation.negative ~provider ~kb ~donors:corpus ~target:check
                  ~hard:
                    (List.filter
                       (fun (c : Check.t) -> c.Check.cid <> check.Check.cid)
                       a.Pipeline.final_checks)
                  ~soft:[] tp))
       a.Pipeline.final_checks)

(* ------------------------------------------------------------------ *)
(* E1 — §5.1 headline: the mining/validation funnel and Table 2        *)
(* ------------------------------------------------------------------ *)

let e1 () =
  print_endline (section "E1  Discovered semantic checks (§5.1, Table 2)");
  let a = Lazy.force artifacts in
  print_endline (Report.mining_summary a);
  print_endline "";
  print_endline (Report.validation_summary a);
  paper_note
    "~9,800 hypothesized; ~5,600 filtered out; 510 validated; template library of 84 shapes";
  Printf.printf "this run: %d template shapes in the catalogue (paper: 84)\n"
    (Templates.count ());
  print_endline "";
  print_table ~header:[ "category"; "validated" ]
    (List.map
       (fun (cat, n) -> [ cat; string_of_int n ])
       (Report.category_breakdown a.Pipeline.final_checks));
  print_endline "\nRepresentative validated checks per template family:";
  let shown = Hashtbl.create 8 in
  List.iter
    (fun check ->
      let cat = Check.category check in
      if not (Hashtbl.mem shown cat) && Hashtbl.length shown < 8 then begin
        Hashtbl.replace shown cat ();
        Printf.printf "  %s\n" (Spec_printer.describe check)
      end)
    a.Pipeline.final_checks

(* ------------------------------------------------------------------ *)
(* E2 — Table 3: deployment-failure phases                              *)
(* ------------------------------------------------------------------ *)

let e2 () =
  print_endline (section "E2  Deployment failure phases (Table 3)");
  let cases = Lazy.force negative_cases in
  let counts = Hashtbl.create 8 in
  let total = ref 0 in
  List.iter
    (fun ((_ : Check.t), res) ->
      let outcome = Arm.deploy ~provider res.Mutation.program in
      match Arm.first_error outcome with
      | Some f ->
          incr total;
          let key = Rules.phase_to_string f.Arm.phase in
          Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
      | None -> ())
    cases;
  let phases =
    [
      ("plugin", "Plugin checks", "9.00%");
      ("pre-sync", "Pre-deploy sync", "5.84%");
      ("create", "Sending request", "74.94%");
      ("polling", "Polling request", "7.79%");
      ("post-sync", "Post-deploy sync", "2.43%");
    ]
  in
  print_table
    ~header:[ "error phase"; "failures"; "share (measured)"; "share (paper)" ]
    (List.map
       (fun (key, label, paper) ->
         let n = Option.value ~default:0 (Hashtbl.find_opt counts key) in
         [ label; string_of_int n; pct n !total; paper ])
       phases);
  Printf.printf "(%d negative test cases deployed)\n" !total

(* ------------------------------------------------------------------ *)
(* E3 — Figure 6: blast radius                                          *)
(* ------------------------------------------------------------------ *)

let e3 () =
  print_endline (section "E3  Blast radius of check violations (Figure 6)");
  (* deploy violating whole programs (not MDCs) so the damage is
     realistic, then aggregate radius per check category *)
  let projects = Generator.generate ~provider ~violation_rate:1.0 ~seed:4242 ~count:500 () in
  let agg : (string, int * int * int * int * int) Hashtbl.t = Hashtbl.create 8 in
  (* category -> (count, halted sum, rollback sum, halted max, rollback max) *)
  List.iter
    (fun p ->
      let outcome = Arm.deploy ~provider p.Generator.program in
      match outcome.Arm.failure with
      | None -> ()
      | Some f -> (
          match Rules.find (provider.Zodiac_provider.Provider.ground_truth ()) f.Arm.rule_id with
          | None -> () (* engine-level failure, not a semantic check *)
          | Some rule ->
              let interpolation_family =
                (* rules generated from the sku documentation tables are
                   the ground truth behind interpolation checks *)
                List.exists
                  (fun prefix ->
                    String.length rule.Rules.rule_id >= String.length prefix
                    && String.equal
                         (String.sub rule.Rules.rule_id 0 (String.length prefix))
                         prefix)
                  [ "VM-NICS-"; "VM-DISKS-"; "GW-TUNNELS-" ]
              in
              let category =
                if interpolation_family then "interpolation"
                else
                  match Check.category rule.Rules.check with
                  | Check.Intra -> "intra-resource"
                  | Check.Inter_no_agg -> "inter w/o agg"
                  | Check.Inter_agg -> "inter w/ agg"
                  | Check.Interpolated -> "interpolation"
              in
              let radius = Arm.blast_radius p.Generator.program outcome in
              let h = List.length radius.Arm.halted_types in
              let r = List.length radius.Arm.rollback_types in
              let c, hs, rs, hm, rm =
                Option.value ~default:(0, 0, 0, 0, 0) (Hashtbl.find_opt agg category)
              in
              Hashtbl.replace agg category (c + 1, hs + h, rs + r, max hm h, max rm r)))
    projects;
  print_table
    ~header:
      [ "check category"; "violations"; "avg halted types"; "avg rollback types";
        "max halted"; "max rollback" ]
    (List.filter_map
       (fun category ->
         match Hashtbl.find_opt agg category with
         | None -> None
         | Some (c, hs, rs, hm, rm) ->
             Some
               [
                 category; string_of_int c;
                 f2 (float_of_int hs /. float_of_int c);
                 f2 (float_of_int rs /. float_of_int c);
                 string_of_int hm; string_of_int rm;
               ])
       [ "intra-resource"; "inter w/o agg"; "inter w/ agg"; "interpolation" ]);
  paper_note
    "worst-case ~7 types in the rollback radius, ~6 halted; inter-resource checks have the largest radius"

(* ------------------------------------------------------------------ *)
(* E4 — Table 4: Zodiac vs existing checkers                            *)
(* ------------------------------------------------------------------ *)

let e4 () =
  print_endline (section "E4  Zodiac vs existing IaC checkers (Table 4)");
  let cases = Lazy.force negative_cases_unpruned in
  (* the paper's ~500 sampled cases carried generic syntax problems;
     mirror that by dropping a required attribute from a random
     resource in every eighth case *)
  let drop_required prog =
    let victims =
      List.filter_map
        (fun r ->
          match Zodiac_azure.Catalog.find r.Resource.rtype with
          | None -> None
          | Some schema -> (
              match
                List.find_opt
                  (fun (a : Zodiac_iac.Schema.attr) ->
                    a.Zodiac_iac.Schema.req = Zodiac_iac.Schema.Required
                    && a.Zodiac_iac.Schema.default = None
                    && Resource.attr r a.Zodiac_iac.Schema.aname <> None)
                  schema.Zodiac_iac.Schema.attrs
              with
              | Some a -> Some (Resource.id r, a.Zodiac_iac.Schema.aname)
              | None -> None))
        (Program.resources prog)
    in
    (* break a late-deploying resource, so the case's semantic failure
       often fires first and the native finding misses the root cause —
       the paper's precision gap *)
    match List.rev victims with
    | [] -> prog
    | (rid, aname) :: _ ->
        Program.update prog rid (fun r -> Resource.remove_attr r aname)
  in
  let programs =
    List.mapi
      (fun i (_, (res : Mutation.result)) ->
        if i mod 8 = 3 then drop_required res.Mutation.program
        else res.Mutation.program)
      cases
  in
  let total = List.length programs in
  (* pre-compute the actual failure per case for the precision column *)
  let failures =
    List.map (fun prog -> (prog, Arm.first_error (Arm.deploy ~provider prog))) programs
  in
  let rows =
    List.map
      (fun (checker : Checker.t) ->
        if not checker.Checker.supports_plan_json then
          [ checker.Checker.name ^ "*"; checker.Checker.spec_format;
            checker.Checker.input_phase; "---"; "---" ]
        else begin
          let flagged = ref 0 in
          let relevant = ref 0 in
          List.iter
            (fun (prog, failure) ->
              let findings = checker.Checker.analyze prog in
              if findings <> [] then begin
                incr flagged;
                (* a finding points at the actual deployment problem when
                   it is non-security and names the failing resource *)
                let points_at_failure =
                  match failure with
                  | None -> false
                  | Some f ->
                      List.exists
                        (fun finding ->
                          (not finding.Checker.security_related)
                          &&
                          match finding.Checker.resource with
                          | Some rid -> Resource.equal_id rid f.Arm.resource
                          | None -> false)
                        findings
                in
                if points_at_failure then incr relevant
              end)
            failures;
          let precision =
            (* only meaningful for deployment-oriented checkers *)
            if String.equal checker.Checker.name "Native" then
              if !flagged = 0 then "0%" else pct !relevant !flagged
            else "---"
          in
          [ checker.Checker.name; checker.Checker.spec_format;
            checker.Checker.input_phase; pct !flagged total; precision ]
        end)
      (Baselines.all provider)
  in
  print_table ~header:[ "tool"; "spec"; "phase"; "prevalence"; "precision" ] rows;
  Printf.printf "(%d Zodiac negative test cases; all fail to deploy by construction)\n" total;
  paper_note
    "Native 11.74%/36.67%; TFSec 11.54%; Checkov 66.34%; TFComp 3.91%; Regula 13.31%; TFLint cannot read plan JSON"

(* ------------------------------------------------------------------ *)
(* E5 — Figure 7a: KB ablation on intra-resource mining                 *)
(* ------------------------------------------------------------------ *)

let e5 () =
  print_endline (section "E5  Candidate checks with and without the KB (Figure 7a)");
  let a = Lazy.force artifacts in
  let programs = List.map snd a.Pipeline.corpus in
  let with_kb = Miner.intra_counts_by_type ~provider ~use_kb:true a.Pipeline.kb programs in
  let without_kb = Miner.intra_counts_by_type ~provider ~use_kb:false a.Pipeline.kb programs in
  let merged =
    List.filter_map
      (fun (ty, attrs, w) ->
        match List.find_opt (fun (ty', _, _) -> String.equal ty ty') without_kb with
        | Some (_, _, wo) when w > 0 || wo > 0 -> Some (ty, attrs, w, wo)
        | _ -> None)
      with_kb
    |> List.sort (fun (_, a1, _, _) (_, a2, _, _) -> Int.compare a1 a2)
  in
  let shown =
    List.filteri (fun i _ -> i mod (max 1 (List.length merged / 12)) = 0) merged
  in
  print_table
    ~header:[ "resource type"; "#attrs"; "mined w/ KB"; "mined w/o KB"; "ratio" ]
    (List.map
       (fun (ty, attrs, w, wo) ->
         [
           ty; string_of_int attrs; string_of_int w; string_of_int wo;
           (if w = 0 then "-" else Printf.sprintf "%.0fx" (float_of_int wo /. float_of_int w));
         ])
       shown);
  let tw = List.fold_left (fun acc (_, _, w, _) -> acc + w) 0 merged in
  let two = List.fold_left (fun acc (_, _, _, wo) -> acc + wo) 0 merged in
  Printf.printf "totals: %d with KB vs %d without (%.0fx reduction)\n" tw two
    (float_of_int two /. float_of_int (max tw 1));
  paper_note "w/o KB generated 70,000+ intra checks, ~35x more than with the KB"

(* ------------------------------------------------------------------ *)
(* E6 — Figure 7b: statistical filtering and LLM interpolation          *)
(* ------------------------------------------------------------------ *)

let e6 () =
  print_endline (section "E6  Filtering and interpolation effectiveness (Figure 7b)");
  let a = Lazy.force artifacts in
  let f = a.Pipeline.filtered in
  let n_conf = List.length f.Filter.removed_confidence in
  let n_lift = List.length f.Filter.removed_lift in
  let n_kept = List.length f.Filter.kept in
  let statistical = n_conf + n_lift + n_kept in
  print_table ~header:[ "stage"; "checks"; "share of statistical candidates" ]
    [
      [ "removed by confidence"; string_of_int n_conf; pct n_conf statistical ];
      [ "removed by lift"; string_of_int n_lift; pct n_lift statistical ];
      [ "kept"; string_of_int n_kept; pct n_kept statistical ];
      [ "llm-found (interpolated)"; string_of_int (List.length a.Pipeline.llm_refined); "" ];
      [ "llm-removed"; string_of_int a.Pipeline.llm_rejected; "" ];
    ];
  paper_note "confidence removed 38.3%, lift another 16.2%; 40% of interpolation queries supported";
  (* §5.3's LLM audit of the filters: assess a sample of kept vs removed *)
  let oracle = Llm.create ~provider ~error_rate:0.05 1234 in
  let rng = Prng.create 77 in
  let sample xs n = Prng.sample rng n xs in
  let rate candidates =
    match candidates with
    | [] -> 0.0
    | _ ->
        let tp = List.length (List.filter (Llm.assess oracle) candidates) in
        float_of_int tp /. float_of_int (List.length candidates)
  in
  let kept_rate = rate (sample f.Filter.kept 200) in
  let removed_rate = rate (sample (f.Filter.removed_confidence @ f.Filter.removed_lift) 200) in
  Printf.printf
    "\nLLM plausibility audit: %.1f%% of kept vs %.1f%% of filtered-out checks judged real\n"
    (100.0 *. kept_rate) (100.0 *. removed_rate);
  paper_note "18.80% of kept vs 4.53% of statistically-removed judged true positives"

(* ------------------------------------------------------------------ *)
(* E7 — Table 5: test-case generation ablations                         *)
(* ------------------------------------------------------------------ *)

let e7 () =
  print_endline (section "E7  Negative test case generation ablations (Table 5)");
  let a = Lazy.force artifacts in
  let kb = a.Pipeline.kb in
  let corpus = a.Pipeline.corpus in
  let validated = a.Pipeline.final_checks in
  let candidates = a.Pipeline.candidates in
  let falsified_candidates =
    List.filter
      (fun (c : Check.t) ->
        not (List.exists (fun (v : Check.t) -> v.Check.cid = c.Check.cid) validated))
      candidates
  in
  let sample = List.filteri (fun i _ -> i < 60) validated in
  let defaults = Arm.defaults provider in
  let count_violations prog checks =
    let g = Graph.build prog in
    List.length
      (List.filter (fun c -> not (Eval.holds ~defaults g c)) checks)
  in
  let run options =
    let acc = ref [] in
    List.iter
      (fun check ->
        match Testcase.find ~provider ~limit:1 ~corpus check with
        | [] -> ()
        | tp :: _ -> (
            let hard, soft =
              if options.Mutation.consider_others then
                ( List.filter (fun (v : Check.t) -> v.Check.cid <> check.Check.cid) validated,
                  List.filter
                    (fun (c : Check.t) -> c.Check.cid <> check.Check.cid)
                    falsified_candidates )
              else ([], [])
            in
            match Mutation.negative ~provider ~options ~kb ~donors:corpus ~target:check ~hard ~soft tp with
            | Some res ->
                let tv =
                  count_violations res.Mutation.program
                    (List.filter (fun (v : Check.t) -> v.Check.cid <> check.Check.cid) validated)
                in
                let fv = count_violations res.Mutation.program falsified_candidates in
                acc := (tv, fv, res.Mutation.attr_changes, res.Mutation.topo_changes) :: !acc
            | None -> ()))
      sample;
    !acc
  in
  let avg f xs =
    match xs with
    | [] -> 0.0
    | _ -> List.fold_left (fun acc x -> acc +. float_of_int (f x)) 0.0 xs
           /. float_of_int (List.length xs)
  in
  let naive = run { Mutation.consider_others = false; minimize_changes = true } in
  let full = run Mutation.default_options in
  let unmin = run { Mutation.consider_others = true; minimize_changes = false } in
  print_table
    ~header:[ "check encoding strategy"; "TP violations"; "FP violations" ]
    [
      [ "ignoring non-target checks"; f2 (avg (fun (tv, _, _, _) -> tv) naive);
        f2 (avg (fun (_, fv, _, _) -> fv) naive) ];
      [ "Zodiac (consider other checks)"; f2 (avg (fun (tv, _, _, _) -> tv) full);
        f2 (avg (fun (_, fv, _, _) -> fv) full) ];
    ];
  paper_note "ignoring others: 4.80 TP / 11.76 FP collateral; Zodiac: 0 TP / 4.04 FP";
  print_table
    ~header:[ "config mutation strategy"; "attr changes"; "topo changes" ]
    [
      [ "no constraints on changes"; f2 (avg (fun (_, _, ac, _) -> ac) unmin);
        f2 (avg (fun (_, _, _, tc) -> tc) unmin) ];
      [ "Zodiac (minimizing changes)"; f2 (avg (fun (_, _, ac, _) -> ac) full);
        f2 (avg (fun (_, _, _, tc) -> tc) full) ];
    ];
  paper_note "unconstrained: 11.05 attr / 3.20 topo; Zodiac: 2.87 attr / 2.90 topo"

(* ------------------------------------------------------------------ *)
(* E8 — Figure 8: scheduler convergence                                 *)
(* ------------------------------------------------------------------ *)

let e8 () =
  print_endline (section "E8  Validation scheduling convergence (Figure 8)");
  let a = Lazy.force artifacts in
  let show label (result : Scheduler.result) =
    Printf.printf "\n%s:\n" label;
    print_table
      ~header:
        [ "iter"; "fp deployable"; "fp unsat"; "fp no-instance"; "tp single";
          "tp group"; "remaining" ]
      (List.map
         (fun (it : Scheduler.iteration) ->
           [
             string_of_int it.Scheduler.iter;
             string_of_int it.Scheduler.fp_deployable;
             string_of_int it.Scheduler.fp_unsat;
             string_of_int it.Scheduler.fp_no_instance;
             string_of_int it.Scheduler.tp_single;
             string_of_int it.Scheduler.tp_group;
             string_of_int it.Scheduler.remaining;
           ])
         result.Scheduler.iterations);
    Printf.printf "validated=%d, unresolved=%d\n"
      (List.length result.Scheduler.validated)
      (List.length
         (List.filter
            (fun (_, v) -> v = Scheduler.Falsified `Stalled)
            result.Scheduler.falsified))
  in
  show "(a,c,d) full scheduler" a.Pipeline.validation;
  let tp_group_total =
    List.fold_left
      (fun acc it -> acc + it.Scheduler.tp_group)
      0 a.Pipeline.validation.Scheduler.iterations
  in
  let tp_total =
    tp_group_total
    + List.fold_left (fun acc it -> acc + it.Scheduler.tp_single) 0
        a.Pipeline.validation.Scheduler.iterations
  in
  Printf.printf
    "validated through indistinguishable groups: %s of all true positives (paper: ~half)\n"
    (pct tp_group_total (max tp_total 1));
  (* (b) ablation: no indistinguishable-check handling *)
  let config =
    { (Harness.bench_config.Pipeline.scheduler) with Scheduler.handle_indistinct = false }
  in
  let ablated =
    Scheduler.run ~config ~provider ~kb:a.Pipeline.kb ~corpus:a.Pipeline.corpus
      ~deploy:(Pipeline.deploy ~provider) a.Pipeline.candidates
  in
  show "(b) without indistinguishable-check handling" ablated;
  Printf.printf
    "=> the ablated run stalls with %d candidates unresolved; the full run resolves all but %d\n"
    (List.length
       (List.filter (fun (_, v) -> v = Scheduler.Falsified `Stalled) ablated.Scheduler.falsified))
    (List.length
       (List.filter
          (fun (_, v) -> v = Scheduler.Falsified `Stalled)
          a.Pipeline.validation.Scheduler.falsified))

(* ------------------------------------------------------------------ *)
(* E9 — Table 6: MDC pruning                                            *)
(* ------------------------------------------------------------------ *)

let e9 () =
  print_endline (section "E9  MDC pruning of positive test cases (Table 6)");
  let a = Lazy.force artifacts in
  let corpus = a.Pipeline.corpus in
  let types = [ "FW"; "SG"; "GW"; "LB"; "RT" ] in
  let rows =
    List.filter_map
      (fun ty ->
        (* checks binding this type, validated or candidate *)
        let checks =
          List.filter
            (fun (c : Check.t) ->
              List.exists (fun (b : Check.binding) -> b.Check.btype = ty) c.Check.bindings)
            a.Pipeline.candidates
        in
        let tps =
          List.concat_map (fun c -> Testcase.find ~provider ~limit:2 ~corpus c) checks
        in
        match tps with
        | [] -> None
        | _ ->
            let stats =
              List.map
                (fun (tp : Testcase.tp) ->
                  (Mdc.measure provider tp.Testcase.program, Mdc.measure provider tp.Testcase.original))
                tps
            in
            let avg f =
              List.fold_left (fun acc x -> acc +. float_of_int (f x)) 0.0 stats
              /. float_of_int (List.length stats)
            in
            Some
              [
                ty;
                f2 (avg (fun (p, _) -> p.Mdc.attended));
                f2 (avg (fun (_, o) -> o.Mdc.attended));
                f2 (avg (fun (p, _) -> p.Mdc.unattended));
                f2 (avg (fun (_, o) -> o.Mdc.unattended));
                string_of_int (List.length stats);
              ])
      types
  in
  print_table
    ~header:[ "type"; "pruned/att."; "orig./att."; "pruned/unatt."; "orig./unatt."; "cases" ]
    rows;
  paper_note "pruning shrinks test cases 3x-9x and sheds most unattended resources"

(* ------------------------------------------------------------------ *)
(* E10 — §5.5: real-world misconfigurations                             *)
(* ------------------------------------------------------------------ *)

let e10 () =
  print_endline (section "E10  Real-world misconfigurations (§5.5)");
  let a = Lazy.force artifacts in
  let reports = Pipeline.scan ~provider ~checks:a.Pipeline.final_checks ~corpus:a.Pipeline.corpus in
  let buggy =
    List.sort_uniq compare (List.map (fun r -> r.Pipeline.project) reports)
  in
  Printf.printf "checked %d repositories: %d carry violations (%s)\n"
    (List.length a.Pipeline.corpus) (List.length buggy)
    (pct (List.length buggy) (List.length a.Pipeline.corpus));
  paper_note "85 of ~4,200 repositories (2.0%) violated validated checks";
  (* top-3 checks by violation count, as GitHub code-search queries *)
  let by_check = Hashtbl.create 32 in
  List.iter
    (fun r ->
      let key = r.Pipeline.check.Check.cid in
      Hashtbl.replace by_check key
        (1 + Option.value ~default:0 (Hashtbl.find_opt by_check key)))
    reports;
  let ranked =
    Hashtbl.fold (fun cid n acc -> (cid, n) :: acc) by_check []
    |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
  in
  print_endline "\ntop checks by violations found:";
  List.iteri
    (fun i (cid, n) ->
      if i < 3 then
        match
          List.find_opt (fun (c : Check.t) -> c.Check.cid = cid) a.Pipeline.final_checks
        with
        | Some c -> Printf.printf "  %2d violations: %s\n" n (Spec_printer.to_string c)
        | None -> ())
    ranked;
  (* the documentation case study *)
  print_endline "\nofficial provider usage example (issue #27222 miniature):";
  let buggy_prog = Registry.compile_exn Registry.appgw_assoc_buggy in
  (match Arm.first_error (Arm.deploy ~provider buggy_prog) with
  | Some f ->
      Printf.printf "  as documented: FAILS [%s] %s\n" f.Arm.rule_id f.Arm.message
  | None -> print_endline "  unexpected success");
  let fixed = Registry.compile_exn Registry.appgw_assoc_fixed in
  Printf.printf "  after both fixes: %s\n"
    (if Pipeline.deploy ~provider fixed then "deploys cleanly" else "still fails");
  print_endline "\nofficial mssql_database usage example (issue #27194 miniature):";
  (match Arm.first_error (Arm.deploy ~provider (Registry.compile_exn Registry.mssql_db_buggy)) with
  | Some f -> Printf.printf "  as documented: FAILS [%s] %s\n" f.Arm.rule_id f.Arm.message
  | None -> print_endline "  unexpected success");
  Printf.printf "  with max_size_gb = 2: %s\n"
    (if Pipeline.deploy ~provider (Registry.compile_exn Registry.mssql_db_fixed) then
       "deploys cleanly"
     else "still fails")

(* ------------------------------------------------------------------ *)
(* E11 — §5.6: false positives                                          *)
(* ------------------------------------------------------------------ *)

let e11 () =
  print_endline (section "E11  False positives of validation (§5.6)");
  let a = Lazy.force artifacts in
  let initially = List.length a.Pipeline.validation.Scheduler.validated in
  let exposed = List.length a.Pipeline.counterexample_fps in
  Printf.printf
    "validation produced %d checks; the counterexample-testing pass exposed %d false positives (%s)\n"
    initially exposed (pct exposed (max initially 1));
  paper_note "539 initially; 29 (5.4%) false positives, 17 (3.1%) via automated counterexample testing";
  List.iter
    (fun (c : Check.t) -> Printf.printf "  exposed: %s\n" (Spec_printer.to_string c))
    (List.filteri (fun i _ -> i < 6) a.Pipeline.counterexample_fps);
  (* demonstrate the §5.6 data-scarcity mechanism explicitly *)
  print_endline "\nthe create=Attach data-scarcity example:";
  let fp =
    Zodiac_spec.Spec_parser.parse_exn
      "let r:VM, v:VPC in path(r -> v) => r.source_image_ref != null"
  in
  let big =
    List.map
      (fun p -> (p.Generator.pname, p.Generator.program))
      (Generator.conforming ~provider ~seed:88 ~count:1500 ())
  in
  let _, exposed_fp =
    Scheduler.counterexample_pass ~provider ~corpus:big ~deploy:(Pipeline.deploy ~provider) [ fp ]
  in
  Printf.printf
    "  'VMs reaching a VPC must declare a source image' is %s by a rare create=Attach repository\n"
    (if exposed_fp <> [] then "refuted" else "NOT refuted (rare option absent from this corpus)")

(* ------------------------------------------------------------------ *)
(* E12 — extensions beyond the paper's prototype                        *)
(* ------------------------------------------------------------------ *)

let e12 () =
  print_endline
    (section "E12  Extensions: live updates, quotas, regional skus (§1/§6)");
  (* live updates: disruption caused by in-place vs replace changes *)
  let current = Registry.compile_exn Registry.quickstart_vm in
  let module Update = Zodiac_cloud.Update in
  let in_place =
    Program.update current
      { Resource.rtype = "NIC"; rname = "nic" }
      (fun r ->
        Resource.set r "accelerated_networking" (Zodiac_iac.Value.Bool true))
  in
  let replace =
    Program.update current
      { Resource.rtype = "VPC"; rname = "net" }
      (fun r ->
        Resource.set r "address_space"
          (Zodiac_iac.Value.List [ Zodiac_iac.Value.Str "10.99.0.0/16" ]))
  in
  let d1 = Update.apply ~provider ~current ~desired:in_place () in
  let d2 = Update.apply ~provider ~current ~desired:replace () in
  print_table
    ~header:[ "update"; "resources recreated (downtime)"; "outcome" ]
    [
      [ "NIC attribute (in place)"; string_of_int (Update.disruption d1);
        (if Arm.success d1.Update.outcome then "applies" else "fails") ];
      [ "VPC address space (replace cascade)"; string_of_int (Update.disruption d2);
        (if Arm.success d2.Update.outcome then "applies" else "fails mid-update") ];
    ];
  (* subscription quotas and regional skus, the §6 unsupported classes *)
  let module Quota = Zodiac_cloud.Quota in
  let ips n =
    Program.of_resources
      (List.init n (fun i ->
           Resource.make "IP"
             (Printf.sprintf "ip%d" i)
             [
               ("name", Zodiac_iac.Value.Str (Printf.sprintf "pip%d" i));
               ("location", Zodiac_iac.Value.Str "eastus");
               ("allocation", Zodiac_iac.Value.Str "Static");
               ("sku", Zodiac_iac.Value.Str "Standard");
             ]))
  in
  let unlimited = Arm.deploy ~provider (ips 12) in
  let limited = Arm.deploy ~provider ~quota:Quota.default_subscription (ips 12) in
  Printf.printf
    "\n12 public IPs: unlimited subscription %s; default subscription %s (quota: %d IPs)\n"
    (if Arm.success unlimited then "deploys" else "fails")
    (match Arm.first_error limited with
    | Some f -> Printf.sprintf "fails with %s" f.Arm.rule_id
    | None -> "deploys")
    10;
  let gpu region =
    Registry.compile_exn Registry.quickstart_vm
    |> fun p ->
    Program.update p
      { Resource.rtype = "VM"; rname = "vm" }
      (fun r -> Resource.set r "sku" (Zodiac_iac.Value.Str "Standard_NC6s_v3"))
    |> fun p ->
    List.fold_left
      (fun p r ->
        Program.update p (Resource.id r) (fun r ->
            match Resource.get r "location" with
            | Zodiac_iac.Value.Str _ ->
                Resource.set r "location" (Zodiac_iac.Value.Str region)
            | _ -> r))
      p (Program.resources p)
  in
  let quota = { Quota.unlimited with Quota.regional_skus = true } in
  Printf.printf
    "GPU VM (Standard_NC6s_v3): eastus %s; ukwest %s under regional enforcement\n"
    (if Arm.success (Arm.deploy ~provider ~quota (gpu "eastus")) then "deploys" else "fails")
    (match Arm.first_error (Arm.deploy ~provider ~quota (gpu "ukwest")) with
    | Some f -> Printf.sprintf "fails with %s" f.Arm.rule_id
    | None -> "deploys");
  paper_note
    "region- and subscription-specific constraints are §6 future work; implemented here as opt-in engine extensions"

(* ------------------------------------------------------------------ *)
(* E13 — beyond the paper: the resilient deployment-execution engine  *)
(* ------------------------------------------------------------------ *)

module Engine = Zodiac_engine.Engine
module Engine_stats = Zodiac_engine.Stats
module Flaky = Zodiac_cloud.Flaky

(* One mining pass shared by every engine configuration, so each run
   validates the identical candidate set through a different engine. *)
let e13_setup ~corpus_size ~candidate_cap ~max_iterations =
  let config =
    {
      Pipeline.default_config with
      Pipeline.corpus_size;
      scheduler =
        { Scheduler.default_config with Scheduler.max_iterations };
    }
  in
  let a = Pipeline.mine_only ~config () in
  let candidates =
    List.filteri (fun i _ -> i < candidate_cap) a.Pipeline.candidates
  in
  (config, a, candidates)

let e13_run (config : Pipeline.config) (a : Pipeline.artifacts) candidates
    engine_config =
  let engine = Engine.create ~provider ~config:engine_config () in
  let result =
    Scheduler.run ~config:config.Pipeline.scheduler ~provider ~kb:a.Pipeline.kb
      ~corpus:a.Pipeline.corpus
      ~deploy:(Engine.oracle engine)
      candidates
  in
  (result, Engine.stats engine)

let verdict_sets (result : Scheduler.result) =
  let cids cs = List.sort String.compare (List.map (fun (c : Check.t) -> c.Check.cid) cs) in
  ( cids result.Scheduler.validated,
    cids (List.map fst result.Scheduler.falsified) )

let e13 () =
  print_endline
    (section "E13  Resilient deployment engine: memo savings + fault stability");
  let config, a, candidates =
    e13_setup ~corpus_size:350 ~candidate_cap:40 ~max_iterations:4
  in
  Printf.printf
    "corpus: %d projects; validating %d of %d mined candidates (capped for bench wall time)\n\n"
    config.Pipeline.corpus_size (List.length candidates)
    (List.length a.Pipeline.candidates);
  (* --- deployments saved by the memo cache --------------------------- *)
  let memo_off, off_stats =
    e13_run config a candidates { Engine.default_config with Engine.memo = false }
  in
  let memo_on, on_stats = e13_run config a candidates Engine.default_config in
  print_table
    ~header:
      [ "memo cache"; "engine requests"; "raw deployments"; "saved"; "saved %" ]
    (List.map
       (fun (label, (s : Engine_stats.snapshot)) ->
         [
           label;
           string_of_int s.Engine_stats.requests;
           string_of_int s.Engine_stats.attempts;
           string_of_int s.Engine_stats.deployments_saved;
           pct s.Engine_stats.deployments_saved s.Engine_stats.requests;
         ])
       [ ("off", off_stats); ("on", on_stats) ]);
  Printf.printf "verdicts identical with memo on vs off: %b\n"
    (verdict_sets memo_off = verdict_sets memo_on);
  (* --- verdict stability under injected transient faults ------------- *)
  let baseline = verdict_sets memo_on in
  print_endline "";
  print_table
    ~header:
      [ "fault rate"; "raw deploys"; "retries"; "faults"; "breaker opens";
        "sim time"; "verdicts = fault-free" ]
    (List.map
       (fun rate ->
         let result, s =
           e13_run config a candidates
             (Engine.faulty_config ~fault_rate:rate ~seed:11 ())
         in
         [
           f2 rate;
           string_of_int s.Engine_stats.attempts;
           string_of_int s.Engine_stats.retries;
           string_of_int s.Engine_stats.faults;
           string_of_int s.Engine_stats.breaker_opens;
           Printf.sprintf "%.0fs" s.Engine_stats.sim_seconds;
           string_of_bool (verdict_sets result = baseline);
         ])
       [ 0.0; 0.1; 0.2; 0.3; 0.45 ]);
  paper_note
    "beyond the paper: live Azure throttles and races where the paper assumes \
     an infallible deploy oracle; the engine's burst-capped faults + retry \
     budget make verdict stability a guarantee, and α-canonical memoization \
     converts repeated mutant deployments into cache hits"

(* ------------------------------------------------------------------ *)
(* E14 — beyond the paper: multicore runtime scaling                    *)
(* ------------------------------------------------------------------ *)

module Parallel = Zodiac_util.Parallel
module Json = Zodiac_util.Json

(* Everything that must be jobs-invariant: the full check funnel, the KB
   shape, and the deployment accounting down to individual cache hits. *)
let e14_fingerprint (a : Pipeline.artifacts) =
  ( List.map (fun (c : Check.t) -> c.Check.cid) a.Pipeline.final_checks,
    List.map (fun (c : Check.t) -> c.Check.cid) a.Pipeline.candidates,
    Kb.size a.Pipeline.kb,
    List.length (Kb.conn_kinds a.Pipeline.kb),
    a.Pipeline.validation.Scheduler.deployments,
    a.Pipeline.validation.Scheduler.iterations,
    a.Pipeline.engine_stats )

let e14 () =
  print_endline
    (section "E14  Multicore runtime: wall-clock scaling over --jobs");
  let corpus_size = 400 in
  let config jobs =
    {
      Pipeline.default_config with
      Pipeline.corpus_size;
      jobs;
      scheduler = { Scheduler.default_config with Scheduler.max_iterations = 3 };
    }
  in
  let runs =
    List.map
      (fun jobs ->
        (* recorded per run: on a shared machine the recommended domain
           count can change between runs, and a 1-domain container makes
           every speedup figure meaningless — the JSON flags that. *)
        let recommended = Parallel.recommended_jobs () in
        let a, dt =
          timed
            (Printf.sprintf "e14.jobs%d" jobs)
            (fun () -> Pipeline.run ~config:(config jobs) ())
        in
        Printf.printf "  jobs=%d done in %.1fs (recommended domains: %d)\n%!"
          jobs dt recommended;
        (jobs, dt, recommended, e14_fingerprint a))
      [ 1; 2; 4; 8 ]
  in
  let base_time, base_fp =
    match runs with (_, dt, _, fp) :: _ -> (dt, fp) | [] -> assert false
  in
  let identical = List.for_all (fun (_, _, _, fp) -> fp = base_fp) runs in
  let available = Parallel.recommended_jobs () in
  let parallelism_unavailable =
    available <= 1
    || List.exists (fun (_, _, recommended, _) -> recommended <= 1) runs
  in
  print_endline "";
  print_table
    ~header:[ "jobs"; "wall (s)"; "speedup vs jobs=1"; "artifacts" ]
    (List.map
       (fun (jobs, dt, _, fp) ->
         [
           string_of_int jobs; f2 dt; Printf.sprintf "%.2fx" (base_time /. dt);
           (if fp = base_fp then "identical" else "DIVERGED");
         ])
       runs);
  Printf.printf
    "available domains on this machine: %d (speedup is only expected when \
     jobs <= available domains)\n"
    available;
  if parallelism_unavailable then
    print_endline
      "NOTE: only one domain available — byte-identity is the meaningful \
       result here; wall-clock ratios are not";
  if not identical then begin
    print_endline "E14: FAIL — artifacts diverged across jobs settings";
    exit 1
  end;
  (* adaptive granularity clamps effective domains to the hardware, so
     asking for more jobs than cores must not cost anything: jobs=2 may
     not regress below jobs=1 (beyond timing noise) *)
  let time_at j =
    List.find_map
      (fun (jobs, dt, _, _) -> if jobs = j then Some dt else None)
      runs
  in
  let jobs2_ratio =
    match (time_at 2, time_at 1) with
    | Some t2, Some t1 -> t2 /. Float.max t1 1e-9
    | _ -> 1.0
  in
  let no_regression = jobs2_ratio <= 1.25 in
  Printf.printf "jobs=2 vs jobs=1 wall-time ratio: %.2f (tolerance 1.25)\n"
    jobs2_ratio;
  if not no_regression then begin
    print_endline
      "E14: FAIL — jobs=2 regressed below jobs=1 despite adaptive granularity";
    exit 1
  end;
  let json =
    Json.Obj
      [
        ("experiment", Json.String "e14-multicore-scaling");
        ("corpus_size", Json.Int corpus_size);
        ("available_domains", Json.Int available);
        ("parallelism_unavailable", Json.Bool parallelism_unavailable);
        ("artifacts_identical", Json.Bool identical);
        ("jobs2_vs_jobs1_ratio", Json.Float jobs2_ratio);
        ("jobs2_regression_fixed", Json.Bool no_regression);
        ( "runs",
          Json.List
            (List.map
               (fun (jobs, dt, recommended, _) ->
                 Json.Obj
                   [
                     ("jobs", Json.Int jobs);
                     ("recommended_domain_count", Json.Int recommended);
                     ("wall_seconds", Json.Float dt);
                     ("speedup_vs_jobs1", Json.Float (base_time /. dt));
                   ])
               runs) );
      ]
  in
  let oc = open_out "BENCH_parallel.json" in
  output_string oc (Json.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  print_endline "wrote BENCH_parallel.json"

(* ------------------------------------------------------------------ *)
(* E15 — beyond the paper: warm-start artifact cache                    *)
(* ------------------------------------------------------------------ *)

module Cache = Zodiac_util.Cache
module Codec = Zodiac_util.Codec

let rm_rf dir =
  if Sys.file_exists dir then begin
    (try
       Array.iter
         (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
         (Sys.readdir dir)
     with Sys_error _ -> ());
    try Sys.rmdir dir with Sys_error _ -> ()
  end

(* Byte-exact export of everything the mining phase produced: the full
   corpus (programs included), the mined candidates with their IEEE-754
   statistics bits, the deduplicated check funnel and the KB shape. Two
   runs agree on these bytes iff their artifacts are truly identical —
   the warm-start determinism guarantee, checked stronger than cid
   fingerprints would. *)
let mine_artifact_bytes (a : Pipeline.artifacts) =
  Codec.encode ~stage:"bench-artifacts" (fun b ->
      Codec.write_list Generator.write_project b a.Pipeline.projects;
      Codec.write_list Candidate.write b a.Pipeline.mined;
      Codec.write_list Check.write b a.Pipeline.candidates;
      Codec.write_int b (Kb.size a.Pipeline.kb);
      Codec.write_int b (List.length (Kb.conn_kinds a.Pipeline.kb));
      Codec.write_list Codec.write_string b (Kb.types a.Pipeline.kb))

let e15 () =
  print_endline (section "E15  Warm-start cache: cold vs warm mining runs");
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "zodiac-e15-cache" in
  rm_rf dir;
  let corpus_size = 400 in
  let config =
    { Pipeline.default_config with Pipeline.corpus_size; cache_dir = Some dir }
  in
  let time f = timed "e15.run" f in
  let cold, cold_t = time (fun () -> Pipeline.mine_only ~config ()) in
  let warm, warm_t = time (fun () -> Pipeline.mine_only ~config ()) in
  let identical =
    String.equal (mine_artifact_bytes cold) (mine_artifact_bytes warm)
  in
  let speedup = cold_t /. warm_t in
  (* a grown corpus is a new cache address: rebuild it over the warm
     cache and compare against a cold run at the larger size *)
  let grown_size = corpus_size + 100 in
  let config_grown = { config with Pipeline.corpus_size = grown_size } in
  let grown, grown_t =
    time (fun () -> Pipeline.mine_only ~config:config_grown ())
  in
  let cold_grown, cold_grown_t =
    time (fun () ->
        Pipeline.mine_only ~config:{ config_grown with Pipeline.cache_dir = None } ())
  in
  let grown_identical =
    String.equal (mine_artifact_bytes grown) (mine_artifact_bytes cold_grown)
  in
  let row name t (a : Pipeline.artifacts) verdict =
    let s = a.Pipeline.cache_stats in
    [
      name; f2 t; string_of_int s.Cache.hits; string_of_int s.Cache.misses;
      string_of_int s.Cache.writes; verdict;
    ]
  in
  print_table
    ~header:[ "run"; "wall (s)"; "hits"; "misses"; "writes"; "artifacts" ]
    [
      row (Printf.sprintf "cold n=%d" corpus_size) cold_t cold "baseline";
      row (Printf.sprintf "warm n=%d" corpus_size) warm_t warm
        (if identical then "identical" else "DIVERGED");
      row (Printf.sprintf "grown n=%d" grown_size) grown_t grown
        (if grown_identical then "identical" else "DIVERGED");
      row (Printf.sprintf "cold n=%d" grown_size) cold_grown_t cold_grown
        "baseline";
    ];
  Printf.printf
    "warm speedup %.1fx (threshold 5x); grown-corpus rebuild %.1fx vs cold \
     at the grown size\n"
    speedup
    (cold_grown_t /. Float.max grown_t 1e-9);
  let ok = identical && grown_identical && speedup >= 5.0 in
  let json =
    Json.Obj
      [
        ("experiment", Json.String "e15-warm-start-cache");
        ("corpus_size", Json.Int corpus_size);
        ("grown_corpus_size", Json.Int grown_size);
        ("cold_wall_seconds", Json.Float cold_t);
        ("warm_wall_seconds", Json.Float warm_t);
        ("warm_speedup", Json.Float speedup);
        ("warm_artifacts_identical", Json.Bool identical);
        ( "warm_cache",
          Json.Obj
            [
              ("hits", Json.Int warm.Pipeline.cache_stats.Cache.hits);
              ("misses", Json.Int warm.Pipeline.cache_stats.Cache.misses);
            ] );
        ("grown_rebuild_wall_seconds", Json.Float grown_t);
        ("cold_grown_wall_seconds", Json.Float cold_grown_t);
        ("grown_rebuild_artifacts_identical", Json.Bool grown_identical);
        ( "grown_rebuild_cache",
          Json.Obj
            [
              ("hits", Json.Int grown.Pipeline.cache_stats.Cache.hits);
              ("misses", Json.Int grown.Pipeline.cache_stats.Cache.misses);
            ] );
      ]
  in
  let oc = open_out "BENCH_cache.json" in
  output_string oc (Json.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  print_endline "wrote BENCH_cache.json";
  rm_rf dir;
  if not ok then begin
    print_endline
      "E15: FAIL — warm run diverged or fell short of the 5x speedup threshold";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* E16 — beyond the paper: stage-runner overhead + trace validity       *)
(* ------------------------------------------------------------------ *)

(* The staged refactor routes every pipeline phase through [Stage.run]
   and a telemetry span. This experiment pins down what that uniformity
   costs: a fully traced run (clocked recorder + sink on every event)
   against an untraced one on the E15 workload. The gate is allocation
   at jobs=1, which is exact and repeatable: traced words at most 5%
   above untraced. Wall times (min of 3, default jobs) are printed and
   recorded only, since on a shared host their ratio swings by more
   than the 5% under test. Artifacts must be byte-identical and the
   emitted trace valid JSON covering every mining stage. *)
let e16 () =
  print_endline
    (section "E16  Staged pipeline: telemetry overhead and trace validity");
  let corpus_size = 400 in
  let config = { Pipeline.default_config with Pipeline.corpus_size } in
  let min_of_3 f =
    List.fold_left
      (fun acc _ -> Float.min acc (snd (timed "e16.run" f)))
      infinity [ (); (); () ]
  in
  (* Words allocated by [f ()] (minor + major - promoted), read after a
     full major collection so direct major allocations are counted. *)
  let allocated_words f =
    let words () =
      Gc.full_major ();
      let s = Gc.quick_stat () in
      s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
    in
    let w0 = words () in
    ignore (f ());
    words () -. w0
  in
  (* one warm-up run keeps allocator effects out of both measurements *)
  let baseline = Pipeline.mine_only ~config () in
  let baseline_bytes = mine_artifact_bytes baseline in
  let plain_t = min_of_3 (fun () -> ignore (Pipeline.mine_only ~config ())) in
  let events = ref 0 in
  let traced_run config =
    let telemetry =
      Telemetry.create ~clock:Unix.gettimeofday
        ~sinks:[ (fun _ -> incr events) ]
        ()
    in
    (Pipeline.mine_only ~config ~telemetry (), telemetry)
  in
  let traced_t = min_of_3 (fun () -> ignore (traced_run config)) in
  let traced, telemetry = traced_run config in
  let ratio = traced_t /. Float.max plain_t 1e-9 in
  let sink_events = !events in
  let serial = { config with Pipeline.jobs = 1 } in
  let plain_words = allocated_words (fun () -> Pipeline.mine_only ~config:serial ()) in
  let traced_words = allocated_words (fun () -> traced_run serial) in
  let alloc_ratio = traced_words /. Float.max plain_words 1. in
  let ok_overhead = alloc_ratio <= 1.05 in
  let ok_artifacts = String.equal baseline_bytes (mine_artifact_bytes traced) in
  let trace_text = Json.to_string ~pretty:true (Telemetry.to_json telemetry) in
  let required_spans = [ "corpus"; "materialize"; "kb"; "mine"; "filter"; "oracle" ] in
  let ok_json =
    match Json.of_string trace_text with
    | exception Json.Parse_error _ -> false
    | json ->
        let names =
          List.filter_map
            (fun s -> Json.string_value (Json.member "name" s))
            (Json.to_list (Json.member "spans" json))
        in
        List.for_all (fun n -> List.mem n names) required_spans
  in
  print_table
    ~header:[ "run"; "wall (s, min of 3)"; "allocated (Mwords, jobs=1)" ]
    [
      [ "untraced"; f2 plain_t; f2 (plain_words /. 1e6) ];
      [ "traced (clocked recorder + sink)"; f2 traced_t; f2 (traced_words /. 1e6) ];
    ];
  Printf.printf
    "allocation ratio %.4f (threshold 1.05); wall ratio %.3f (recorded, not \
     gated); artifacts identical: %b; trace valid JSON with all mining spans: \
     %b; sink events observed: %d\n"
    alloc_ratio ratio ok_artifacts ok_json sink_events;
  let json =
    Json.Obj
      [
        ("experiment", Json.String "e16-stage-telemetry");
        ("corpus_size", Json.Int corpus_size);
        ("untraced_wall_seconds", Json.Float plain_t);
        ("traced_wall_seconds", Json.Float traced_t);
        ("overhead_ratio", Json.Float ratio);
        ("untraced_alloc_words", Json.Float plain_words);
        ("traced_alloc_words", Json.Float traced_words);
        ("alloc_overhead_ratio", Json.Float alloc_ratio);
        ("alloc_overhead_within_5pct", Json.Bool ok_overhead);
        ("artifacts_identical", Json.Bool ok_artifacts);
        ("trace_valid", Json.Bool ok_json);
        ("sink_events", Json.Int sink_events);
      ]
  in
  let oc = open_out "BENCH_stage.json" in
  output_string oc (Json.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  print_endline "wrote BENCH_stage.json";
  if not (ok_overhead && ok_artifacts && ok_json) then begin
    print_endline
      "E16: FAIL — traced allocation above 5% over untraced, diverged \
       artifacts, or invalid trace";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* E17 — check-as-a-service: resident daemon vs cold process-per-scan  *)
(* ------------------------------------------------------------------ *)

module Serve_scan = Zodiac_serve.Scan
module Sarif = Zodiac_serve.Sarif
module Session = Zodiac_serve.Session
module Server = Zodiac_serve.Server

(* The real CLI binary, when we can find it: cwd is _build/default under
   the @check rule, the workspace root under `dune exec`. *)
let zodiac_bin () =
  let candidates =
    (match Sys.getenv_opt "ZODIAC_BIN" with Some p -> [ p ] | None -> [])
    @ [ "bin/zodiac_cli.exe"; "_build/default/bin/zodiac_cli.exe" ]
  in
  List.find_opt Sys.file_exists candidates

let write_bad_tf () =
  let path = Filename.temp_file "zodiac-serve" ".tf" in
  let oc = open_out path in
  output_string oc Registry.mssql_db_buggy;
  close_out oc;
  path

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let scan_request ?(id = 1) path =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int id);
         ("method", Json.String "scan_file");
         ("params", Json.Obj [ ("path", Json.String path) ]);
       ])

let shutdown_request = {|{"id":0,"method":"shutdown"}|}

(* Run the in-process daemon loop over real channels: requests from a
   file, responses to a file — sequential, no domains, fully
   deterministic. Returns the response lines. *)
let serve_round_trip session requests =
  let req_path = Filename.temp_file "zodiac-serve" ".req" in
  let resp_path = Filename.temp_file "zodiac-serve" ".resp" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove req_path with Sys_error _ -> ());
      try Sys.remove resp_path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out req_path in
      List.iter
        (fun r ->
          output_string oc r;
          output_char oc '\n')
        requests;
      close_out oc;
      let ic = open_in req_path in
      let oc = open_out resp_path in
      Fun.protect
        ~finally:(fun () ->
          close_in_noerr ic;
          close_out_noerr oc)
        (fun () -> Server.serve_channels session ic oc);
      String.split_on_char '\n' (String.trim (read_all resp_path)))

(* Extract the SARIF result of a scan_file response line and re-render
   it exactly as the one-shot CLI prints it (pretty + newline). *)
let sarif_bytes_of_response line =
  match Json.of_string_result line with
  | Error e -> Error ("unparsable response: " ^ e)
  | Ok json -> (
      match (Json.member "ok" json, Json.member "result" json) with
      | Json.Bool true, result ->
          Ok (Json.to_string ~pretty:true result ^ "\n")
      | _ -> Error ("request failed: " ^ line))

(* The daemon round-trip the smoke gate runs: resident SARIF must be
   byte-identical to the one-shot path, through the real binary when
   available and the in-process loop either way. *)
let serve_equivalence () =
  let tf = write_bad_tf () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tf with Sys_error _ -> ())
    (fun () ->
      let oneshot =
        match Serve_scan.load_checks provider None with
        | Error e -> failwith e
        | Ok checks -> (
            match Serve_scan.scan_file ~provider ~checks tf with
            | Error e -> failwith e
            | Ok findings -> (findings, Sarif.to_string findings))
      in
      let findings, oneshot_bytes = oneshot in
      let session =
        match Session.create Session.default_config with
        | Ok s -> s
        | Error e -> failwith e
      in
      let resident_bytes =
        match serve_round_trip session [ scan_request tf; shutdown_request ] with
        | [ scan_line; _shutdown_line ] -> sarif_bytes_of_response scan_line
        | lines ->
            Error
              (Printf.sprintf "expected 2 response lines, got %d"
                 (List.length lines))
      in
      let ok_resident =
        match resident_bytes with
        | Ok bytes -> String.equal bytes oneshot_bytes
        | Error _ -> false
      in
      let ok_findings = findings <> [] in
      (* end-to-end through the spawned binary: one-shot stdout vs the
         daemon's response over its own stdin/stdout *)
      let ok_process, process_checked =
        match zodiac_bin () with
        | None -> (true, false)
        | Some bin ->
            let out = Filename.temp_file "zodiac-serve" ".out" in
            let resp = Filename.temp_file "zodiac-serve" ".dresp" in
            let req = Filename.temp_file "zodiac-serve" ".dreq" in
            Fun.protect
              ~finally:(fun () ->
                List.iter
                  (fun f -> try Sys.remove f with Sys_error _ -> ())
                  [ out; resp; req ])
              (fun () ->
                let scan_cmd =
                  Printf.sprintf
                    "%s scan --format sarif --exit-zero %s > %s 2>/dev/null"
                    (Filename.quote bin) (Filename.quote tf)
                    (Filename.quote out)
                in
                let oc = open_out req in
                output_string oc (scan_request tf);
                output_char oc '\n';
                output_string oc shutdown_request;
                output_char oc '\n';
                close_out oc;
                let serve_cmd =
                  Printf.sprintf "%s serve < %s > %s 2>/dev/null"
                    (Filename.quote bin) (Filename.quote req)
                    (Filename.quote resp)
                in
                if Sys.command scan_cmd <> 0 || Sys.command serve_cmd <> 0 then
                  (false, true)
                else
                  let cli_bytes = read_all out in
                  let daemon_bytes =
                    match
                      String.split_on_char '\n' (String.trim (read_all resp))
                    with
                    | scan_line :: _ -> sarif_bytes_of_response scan_line
                    | [] -> Error "no daemon response"
                  in
                  ( String.equal cli_bytes oneshot_bytes
                    && (match daemon_bytes with
                       | Ok b -> String.equal b cli_bytes
                       | Error _ -> false),
                    true ))
      in
      (ok_findings, ok_resident, ok_process, process_checked))

(* Socket-side client helpers shared by the concurrent smoke gate and
   E19: connect (retrying while the daemon binds), one line out, one
   line back. *)
type sock_client = {
  cfd : Unix.file_descr;
  cic : in_channel;
  coc : out_channel;
}

let sock_connect path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when tries > 0 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.01;
        go (tries - 1)
  in
  let fd = go 300 in
  { cfd = fd; cic = Unix.in_channel_of_descr fd; coc = Unix.out_channel_of_descr fd }

let sock_send c line =
  output_string c.coc line;
  output_char c.coc '\n';
  flush c.coc

let sock_recv c = input_line c.cic

let sock_close c = try Unix.close c.cfd with Unix.Unix_error _ -> ()

let bench_socket_path tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "zodiac-%s-%d.sock" tag (Unix.getpid ()))

let stats_request ~id =
  Printf.sprintf {|{"id":%d,"method":"stats"}|} id

(* Two clients on one daemon, interleaved: both scans must come back
   byte-identical to the one-shot path, and a repeat scan must be a
   byte-identical content-fingerprint cache hit. Returns
   (concurrent ≡ one-shot, cache hit ok). *)
let smoke_serve_concurrent () =
  let tf = write_bad_tf () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tf with Sys_error _ -> ())
    (fun () ->
      let oneshot_bytes =
        match Serve_scan.load_checks provider None with
        | Error e -> failwith e
        | Ok checks -> (
            match Serve_scan.scan_file ~provider ~checks tf with
            | Error e -> failwith e
            | Ok findings -> Sarif.to_string findings)
      in
      let session =
        match Session.create Session.default_config with
        | Ok s -> s
        | Error e -> failwith e
      in
      let path = bench_socket_path "smoke-serve" in
      (try Sys.remove path with Sys_error _ -> ());
      let config = { Server.default_config with Server.max_clients = 2 } in
      let srv =
        Domain.spawn (fun () -> Server.serve_socket ~config session ~path)
      in
      let a = sock_connect path in
      let b = sock_connect path in
      (* no exception may escape past this point before the shutdown
         below, or the worker domains stay parked and the join hangs *)
      let verdict =
        try
          sock_send a (scan_request ~id:1 tf);
          sock_send b (scan_request ~id:2 tf);
          let ra = sock_recv a in
          let rb = sock_recv b in
          sock_send a (scan_request ~id:3 tf);
          let ra2 = sock_recv a in
          sock_send a (stats_request ~id:4);
          let rs = sock_recv a in
          let ok_bytes r =
            match sarif_bytes_of_response r with
            | Ok bytes -> String.equal bytes oneshot_bytes
            | Error _ -> false
          in
          let hits =
            match Json.of_string_result rs with
            | Error _ -> 0
            | Ok json ->
                Option.value ~default:0
                  (Json.int_value
                     (Json.member "hits"
                        (Json.member "scan_cache" (Json.member "result" json))))
          in
          Some (ok_bytes ra && ok_bytes rb, ok_bytes ra2 && hits >= 1)
        with _ -> None
      in
      sock_close b;
      let shutdown_sent =
        try
          sock_send a shutdown_request;
          ignore (sock_recv a);
          true
        with _ -> false
      in
      sock_close a;
      if not shutdown_sent then
        (try
           let c = sock_connect path in
           sock_send c shutdown_request;
           (try ignore (sock_recv c) with _ -> ());
           sock_close c
         with _ -> ());
      Domain.join srv;
      match verdict with Some v -> v | None -> (false, false))

let smoke_serve () =
  let ok_findings, ok_resident, ok_process, process_checked =
    serve_equivalence ()
  in
  let ok_concurrent, ok_cache_hit = smoke_serve_concurrent () in
  Printf.printf
    "serve round-trip: known-bad file flagged: %b; resident SARIF ≡ one-shot \
     (in-process): %b; spawned daemon ≡ spawned CLI: %b%s; two concurrent \
     clients ≡ one-shot: %b; repeat scan is a byte-identical cache hit: %b\n"
    ok_findings ok_resident ok_process
    (if process_checked then "" else " (binary not found, skipped)")
    ok_concurrent ok_cache_hit;
  ok_findings && ok_resident && ok_process && ok_concurrent && ok_cache_hit

let smoke_serve_only () =
  print_endline (section "smoke --serve-only  daemon round-trip gate");
  if smoke_serve () then print_endline "smoke: PASS"
  else begin
    print_endline "smoke: FAIL";
    exit 1
  end

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (n * p / 100))

let e17 () =
  print_endline
    (section "E17  Check-as-a-service: resident daemon vs process-per-scan");
  let tf = write_bad_tf () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tf with Sys_error _ -> ())
    (fun () ->
      let bin = zodiac_bin () in
      let mode = match bin with Some _ -> "process" | None -> "in-process" in
      let n_cold = 25 and n_resident = 200 in
      let cold_ms =
        match bin with
        | Some bin ->
            let cmd =
              Printf.sprintf
                "%s scan --format sarif --exit-zero %s >/dev/null 2>&1"
                (Filename.quote bin) (Filename.quote tf)
            in
            Array.init n_cold (fun _ ->
                let status, dt = timed "e17.cold" (fun () -> Sys.command cmd) in
                if status <> 0 then failwith "e17: cold scan failed";
                dt *. 1000.)
        | None ->
            (* no binary to spawn: a cold request is a fresh session
               (registry reload, engine rebuild) per scan *)
            Array.init n_cold (fun _ ->
                let (), dt =
                  timed "e17.cold" (fun () ->
                      match Session.create Session.default_config with
                      | Error e -> failwith e
                      | Ok session ->
                          ignore
                            (Server.handle_line session (scan_request tf)))
                in
                dt *. 1000.)
      in
      let resident_ms =
        match bin with
        | Some bin ->
            let cmd =
              Printf.sprintf "%s serve 2>/dev/null" (Filename.quote bin)
            in
            let ic, oc = Unix.open_process cmd in
            let request i =
              let (), dt =
                timed "e17.resident" (fun () ->
                    output_string oc (scan_request ~id:i tf);
                    output_char oc '\n';
                    flush oc;
                    ignore (input_line ic))
              in
              dt *. 1000.
            in
            (* one warm-up request keeps session construction out of the
               per-request latencies, mirroring the cold side which
               excludes nothing *)
            ignore (request 0);
            let times = Array.init n_resident (fun i -> request (i + 1)) in
            output_string oc (shutdown_request ^ "\n");
            (try flush oc with Sys_error _ -> ());
            ignore (Unix.close_process (ic, oc));
            times
        | None ->
            let session =
              match Session.create Session.default_config with
              | Error e -> failwith e
              | Ok s -> s
            in
            ignore (Server.handle_line session (scan_request tf));
            Array.init n_resident (fun i ->
                let (), dt =
                  timed "e17.resident" (fun () ->
                      ignore (Server.handle_line session (scan_request ~id:i tf)))
                in
                dt *. 1000.)
      in
      let stats times =
        let sorted = Array.copy times in
        Array.sort compare sorted;
        let mean =
          Array.fold_left ( +. ) 0. sorted /. float_of_int (Array.length sorted)
        in
        (mean, percentile sorted 50, percentile sorted 99)
      in
      let cold_mean, cold_p50, cold_p99 = stats cold_ms in
      let res_mean, res_p50, res_p99 = stats resident_ms in
      let speedup = cold_p50 /. Float.max res_p50 1e-6 in
      let rps = 1000. /. Float.max res_mean 1e-6 in
      let ok_speedup = speedup >= 5. in
      print_table
        ~header:[ "mode"; "n"; "mean ms"; "p50 ms"; "p99 ms" ]
        [
          [
            "cold process-per-scan"; string_of_int n_cold; f2 cold_mean;
            f2 cold_p50; f2 cold_p99;
          ];
          [
            "resident daemon"; string_of_int n_resident; f2 res_mean;
            f2 res_p50; f2 res_p99;
          ];
        ];
      Printf.printf
        "measurement mode: %s; resident throughput %.0f req/s; p50 speedup \
         %.1fx (threshold 5x)\n"
        mode rps speedup;
      let json =
        Json.Obj
          [
            ("experiment", Json.String "e17-serve-latency");
            ("mode", Json.String mode);
            ("n_cold", Json.Int n_cold);
            ("n_resident", Json.Int n_resident);
            ("cold_mean_ms", Json.Float cold_mean);
            ("cold_p50_ms", Json.Float cold_p50);
            ("cold_p99_ms", Json.Float cold_p99);
            ("resident_mean_ms", Json.Float res_mean);
            ("resident_p50_ms", Json.Float res_p50);
            ("resident_p99_ms", Json.Float res_p99);
            ("requests_per_sec", Json.Float rps);
            ("p50_speedup", Json.Float speedup);
            ("speedup_at_least_5x", Json.Bool ok_speedup);
          ]
      in
      let oc = open_out "BENCH_serve.json" in
      output_string oc (Json.to_string ~pretty:true json);
      output_string oc "\n";
      close_out oc;
      print_endline "wrote BENCH_serve.json";
      if not ok_speedup then begin
        print_endline
          "E17: FAIL — resident daemon under 5x faster than cold \
           process-per-scan";
        exit 1
      end)

(* ------------------------------------------------------------------ *)
(* E18 — beyond the paper: streaming shard pipeline                     *)
(* ------------------------------------------------------------------ *)

module Shard_stream = Zodiac_util.Shard_stream
module Rss = Zodiac_util.Rss

(* Byte-exact export of the funnel a streamed run shares with a
   monolithic one: mined candidates, deduplicated checks and the KB
   shape — but not the projects, which the streamed path never holds
   whole (that being the point). *)
let funnel_bytes ~kb ~mined ~candidates =
  Codec.encode ~stage:"bench-funnel" (fun b ->
      Codec.write_list Candidate.write b mined;
      Codec.write_list Check.write b candidates;
      Codec.write_int b (Kb.size kb);
      Codec.write_int b (List.length (Kb.conn_kinds kb));
      Codec.write_list Codec.write_string b (Kb.types kb))

let mono_funnel_bytes (a : Pipeline.artifacts) =
  funnel_bytes ~kb:a.Pipeline.kb ~mined:a.Pipeline.mined
    ~candidates:a.Pipeline.candidates

let streamed_funnel_bytes (s : Pipeline.streamed) =
  funnel_bytes ~kb:s.Pipeline.s_kb ~mined:s.Pipeline.s_mined
    ~candidates:s.Pipeline.s_candidates

let rss_mb () =
  Option.map (fun kb -> float_of_int kb /. 1024.) (Rss.peak_rss_kb ())

(* The streaming pipeline's three claims, asserted in one experiment:

   (a) equivalence — sharded mining is byte-identical to monolithic for
       every (jobs, shard-size), checked on the full funnel at n=400;
   (b) bounded memory — peak RSS grows ≤ 1.3x when the corpus grows
       10x (10k → 100k projects, shard 1000); each corpus is mined in a
       freshly spawned CLI process so one run's VmHWM high-water mark
       (a process-lifetime maximum) cannot pollute the next reading;
       the 100k run doubles as the headline: a corpus ~80x the
       monolithic default, mined flat;
   (c) checkpointed resume — killing a run loses only the unfinished
       shards: deleting the finals plus a subset of shard checkpoints
       and rerunning re-counts exactly the deleted shards, and a warm
       rerun folds nothing at all. *)
let e18 () =
  print_endline
    (section "E18  Streaming shard pipeline: 100k projects in bounded memory");
  (* (a) sharded ≡ monolithic *)
  let n_small = 400 in
  let base = { Pipeline.default_config with Pipeline.corpus_size = n_small } in
  let mono = Pipeline.mine_only ~config:{ base with Pipeline.jobs = 1 } () in
  let mono_bytes = mono_funnel_bytes mono in
  let grid = [ (1, 50); (1, 170); (1, 400); (4, 64); (4, 170) ] in
  let grid_results =
    List.map
      (fun (jobs, shard) ->
        let s =
          Pipeline.mine_streamed
            ~config:{ base with Pipeline.jobs = jobs }
            ~shard_size:shard ()
        in
        (jobs, shard, s.Pipeline.s_kb_fold.Shard_stream.shards,
         String.equal mono_bytes (streamed_funnel_bytes s)))
      grid
  in
  let ok_grid = List.for_all (fun (_, _, _, ok) -> ok) grid_results in
  print_table
    ~header:[ "jobs"; "shard size"; "shards"; "vs monolithic" ]
    (List.map
       (fun (jobs, shard, shards, ok) ->
         [
           string_of_int jobs; string_of_int shard; string_of_int shards;
           (if ok then "identical" else "DIVERGED");
         ])
       grid_results);
  (* (b) bounded memory: a fresh CLI process per corpus size. VmHWM is
     a process-lifetime high-water mark, so measuring both runs here
     would let the equivalence phase above (and the 10k run itself)
     inflate the 100k reading; spawning also measures exactly what a
     user of `--shard-size` gets. Falls back to in-process probing
     with a reset between runs when the binary isn't on disk. *)
  let first_token s =
    match String.index_opt s ' ' with
    | Some i -> String.sub s 0 i
    | None -> s
  in
  let field lines prefix conv =
    List.fold_left
      (fun acc l ->
        let l = String.trim l in
        if acc = None && String.starts_with ~prefix l then
          conv
            (String.trim
               (String.sub l (String.length prefix)
                  (String.length l - String.length prefix)))
        else acc)
      None lines
  in
  let int_field lines prefix =
    field lines prefix (fun s -> int_of_string_opt (first_token s))
  in
  let float_field lines prefix =
    field lines prefix (fun s -> float_of_string_opt (first_token s))
  in
  let measure n =
    match zodiac_bin () with
    | Some bin ->
        let cmd =
          Printf.sprintf
            "%s mine --projects %d --jobs 1 --shard-size 1000 --no-cache \
             --limit 0 2>/dev/null"
            (Filename.quote bin) n
        in
        let t0 = Unix.gettimeofday () in
        let ic = Unix.open_process_in cmd in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        let status = Unix.close_process_in ic in
        let dt = Unix.gettimeofday () -. t0 in
        if status <> Unix.WEXITED 0 then
          failwith (Printf.sprintf "e18: spawned mine of %d projects failed" n);
        let lines = List.rev !lines in
        let req name = function
          | Some v -> v
          | None ->
              failwith
                (Printf.sprintf "e18: missing %S in the spawned mine report"
                   name)
        in
        ( n,
          req "kb pass" (int_field lines "kb pass:"),
          dt,
          float_field lines "peak RSS:",
          req "hypothesized checks" (int_field lines "hypothesized checks:"),
          req "candidates entering validation"
            (int_field lines "candidates entering validation:") )
    | None ->
        Gc.compact ();
        ignore (Rss.reset_peak ());
        let config =
          { Pipeline.default_config with Pipeline.corpus_size = n; jobs = 1 }
        in
        let s, dt =
          timed "e18.mine" (fun () ->
              Pipeline.mine_streamed ~config ~shard_size:1000 ())
        in
        ( n,
          s.Pipeline.s_kb_fold.Shard_stream.shards,
          dt,
          rss_mb (),
          List.length s.Pipeline.s_mined,
          List.length s.Pipeline.s_candidates )
  in
  let rss_threshold = 1.3 in
  let run_small = measure 10_000 in
  let run_large = measure 100_000 in
  let rss_of (_, _, _, rss, _, _) = rss in
  let rss_ratio =
    match (rss_of run_small, rss_of run_large) with
    | Some a, Some b when a > 0. -> Some (b /. a)
    | _ -> None
  in
  let rss_unavailable = rss_ratio = None in
  let ok_rss =
    match rss_ratio with None -> true | Some r -> r <= rss_threshold
  in
  let mb = function Some v -> Printf.sprintf "%.1f MB" v | None -> "n/a" in
  print_table
    ~header:[ "corpus"; "shards"; "wall (s)"; "peak RSS"; "mined"; "validated q" ]
    (List.map
       (fun (n, shards, dt, rss, mined, cands) ->
         [
           string_of_int n; string_of_int shards; f2 dt; mb rss;
           string_of_int mined; string_of_int cands;
         ])
       [ run_small; run_large ]);
  (match rss_ratio with
  | Some r ->
      Printf.printf
        "peak RSS grew %.2fx across a 10x corpus growth (threshold %.1fx; %s)\n"
        r rss_threshold
        (if zodiac_bin () <> None then "fresh process per corpus"
         else "in-process fallback")
  | None ->
      print_endline
        "NOTE: no /proc VmHWM on this host — RSS ratio not asserted");
  (* (c) checkpointed resume *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "zodiac-e18-cache" in
  rm_rf dir;
  let rconfig =
    {
      Pipeline.default_config with
      Pipeline.corpus_size = 2000;
      jobs = 1;
      cache_dir = Some dir;
    }
  in
  let cold = Pipeline.mine_streamed ~config:rconfig ~shard_size:500 () in
  let cold_bytes = streamed_funnel_bytes cold in
  let ok_cold =
    cold.Pipeline.s_kb_fold.Shard_stream.built = 4
    && cold.Pipeline.s_mine_fold.Shard_stream.built = 4
  in
  (* Simulate a killed run: the finals are gone, and so are one kb shard
     and two mine shards. Only those three may be re-counted. *)
  let delete_prefixed prefixes keep =
    let doomed =
      List.filter
        (fun f -> List.exists (fun p -> String.starts_with ~prefix:p f) prefixes)
        (List.sort String.compare (Array.to_list (Sys.readdir dir)))
    in
    List.iteri
      (fun i f -> if i >= keep then Sys.remove (Filename.concat dir f))
      doomed
  in
  delete_prefixed [ "kb-"; "mine-" ] 0;
  delete_prefixed [ "shard-kb-" ] 3;
  delete_prefixed [ "shard-mine-" ] 2;
  let resumed = Pipeline.mine_streamed ~config:rconfig ~shard_size:500 () in
  let ok_resume =
    String.equal cold_bytes (streamed_funnel_bytes resumed)
    && resumed.Pipeline.s_kb_fold.Shard_stream.resumed = 3
    && resumed.Pipeline.s_kb_fold.Shard_stream.built = 1
    && resumed.Pipeline.s_mine_fold.Shard_stream.resumed = 2
    && resumed.Pipeline.s_mine_fold.Shard_stream.built = 2
  in
  (* A warm rerun loads the finals and folds no shards at all. *)
  let warm = Pipeline.mine_streamed ~config:rconfig ~shard_size:500 () in
  let ok_warm =
    String.equal cold_bytes (streamed_funnel_bytes warm)
    && warm.Pipeline.s_kb_fold.Shard_stream.shards = 0
    && warm.Pipeline.s_mine_fold.Shard_stream.shards = 0
    && warm.Pipeline.s_cache_stats.Cache.hits > 0
  in
  rm_rf dir;
  Printf.printf
    "resume after kill: kb %d resumed / %d rebuilt, mine %d resumed / %d \
     rebuilt, artifacts identical: %b; warm rerun folds nothing: %b\n"
    resumed.Pipeline.s_kb_fold.Shard_stream.resumed
    resumed.Pipeline.s_kb_fold.Shard_stream.built
    resumed.Pipeline.s_mine_fold.Shard_stream.resumed
    resumed.Pipeline.s_mine_fold.Shard_stream.built
    (String.equal cold_bytes (streamed_funnel_bytes resumed))
    ok_warm;
  let ok = ok_grid && ok_rss && ok_cold && ok_resume && ok_warm in
  let fold_json (o : Shard_stream.outcome) =
    Json.Obj
      [
        ("shards", Json.Int o.Shard_stream.shards);
        ("resumed", Json.Int o.Shard_stream.resumed);
        ("built", Json.Int o.Shard_stream.built);
      ]
  in
  let json =
    Json.Obj
      [
        ("experiment", Json.String "e18-streaming-shard-pipeline");
        ( "equivalence",
          Json.Obj
            [
              ("corpus_size", Json.Int n_small);
              ( "runs",
                Json.List
                  (List.map
                     (fun (jobs, shard, shards, ok) ->
                       Json.Obj
                         [
                           ("jobs", Json.Int jobs);
                           ("shard_size", Json.Int shard);
                           ("shards", Json.Int shards);
                           ("identical_to_monolithic", Json.Bool ok);
                         ])
                     grid_results) );
            ] );
        ( "bounded_memory",
          Json.Obj
            [
              ("shard_size", Json.Int 1000);
              ("rss_unavailable", Json.Bool rss_unavailable);
              ("fresh_process_per_run", Json.Bool (zodiac_bin () <> None));
              ( "runs",
                Json.List
                  (List.map
                     (fun (n, shards, dt, rss, mined, cands) ->
                       Json.Obj
                         [
                           ("corpus_size", Json.Int n);
                           ("shards", Json.Int shards);
                           ("wall_seconds", Json.Float dt);
                           ( "peak_rss_mb",
                             match rss with
                             | Some v -> Json.Float v
                             | None -> Json.Null );
                           ("mined_candidates", Json.Int mined);
                           ("validation_candidates", Json.Int cands);
                         ])
                     [ run_small; run_large ]) );
              ( "rss_ratio_10x",
                match rss_ratio with Some r -> Json.Float r | None -> Json.Null );
              ("rss_ratio_threshold", Json.Float rss_threshold);
            ] );
        ( "resume",
          Json.Obj
            [
              ("corpus_size", Json.Int 2000);
              ("shard_size", Json.Int 500);
              ("kb_fold", fold_json resumed.Pipeline.s_kb_fold);
              ("mine_fold", fold_json resumed.Pipeline.s_mine_fold);
              ( "artifacts_identical",
                Json.Bool (String.equal cold_bytes (streamed_funnel_bytes resumed)) );
              ("warm_rerun_folds_nothing", Json.Bool ok_warm);
            ] );
      ]
  in
  let oc = open_out "BENCH_stream.json" in
  output_string oc (Json.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  print_endline "wrote BENCH_stream.json";
  if not ok then begin
    Printf.printf
      "E18: FAIL — grid identical: %b; RSS ratio ok: %b; resume ok: %b/%b/%b\n"
      ok_grid ok_rss ok_cold ok_resume ok_warm;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* E19 — concurrent serve: multi-client scheduling + scan cache        *)
(* ------------------------------------------------------------------ *)

(* A workload big enough that a real scan visibly out-costs a
   content-fingerprint cache hit: [copies] SQL server/database pairs,
   each tripping the Basic-sku size check. [salt] makes
   distinct-content variants of the same shape, so each file carries
   its own content fingerprint. *)
let workload_tf ~salt copies =
  let buf = Buffer.create (copies * 512) in
  Buffer.add_string buf
    (Printf.sprintf "# synthetic serve workload, variant %d\n" salt);
  for i = 0 to copies - 1 do
    Buffer.add_string buf
      (Printf.sprintf
         {|
resource "azurerm_mssql_server" "s%d_%d" {
  name                   = "bench-sql-%d-%d"
  location               = "westeurope"
  version                = "12.0"
  administrator_login    = "sqladmin"
  administrator_password = "Sup3rSecret!"
}

resource "azurerm_mssql_database" "d%d_%d" {
  name        = "bench-db-%d-%d"
  server_id   = azurerm_mssql_server.s%d_%d.id
  sku         = "Basic"
  max_size_gb = 250
}
|}
         salt i salt i salt i salt i salt i)
  done;
  Buffer.contents buf

let write_workload ~salt copies =
  let path = Filename.temp_file "zodiac-e19" ".tf" in
  let oc = open_out path in
  output_string oc (workload_tf ~salt copies);
  close_out oc;
  path

(* One client's conversation at a given concurrency level: [requests]
   scan requests round-robin over the workload files, answered in
   order. Returns (request lines, response lines, latencies in ms). *)
let e19_client ~files ~requests path c =
  let nfiles = Array.length files in
  let client = sock_connect path in
  Fun.protect
    ~finally:(fun () -> sock_close client)
    (fun () ->
      let reqs =
        List.init requests (fun j ->
            scan_request ~id:((c * 1000) + j) files.((c + j) mod nfiles))
      in
      let answered =
        List.map
          (fun line ->
            let resp, dt =
              timed "e19.request" (fun () ->
                  sock_send client line;
                  sock_recv client)
            in
            (resp, dt *. 1000.))
          reqs
      in
      (reqs, List.map fst answered, List.map snd answered))

type e19_level_result = {
  l_clients : int;
  l_requests : int;
  l_wall : float;
  l_rps : float;
  l_mean_ms : float;
  l_p50_ms : float;
  l_p99_ms : float;
  l_rss_mb : float option;
  l_identical : bool;
  l_scan_cache : Json.t;
}

(* One concurrency level end to end on a fresh daemon: spawn the socket
   server with [n] worker domains, drive [n] client domains, join, shut
   down — then replay every client's requests sequentially on a fresh
   session and demand byte-identical responses. *)
let e19_level ~files ~requests n =
  Gc.compact ();
  ignore (Rss.reset_peak ());
  let session =
    match Session.create Session.default_config with
    | Ok s -> s
    | Error e -> failwith e
  in
  let path = bench_socket_path (Printf.sprintf "e19-%d" n) in
  (try Sys.remove path with Sys_error _ -> ());
  let config = { Server.default_config with Server.max_clients = n } in
  let srv =
    Domain.spawn (fun () -> Server.serve_socket ~config session ~path)
  in
  let t0 = Unix.gettimeofday () in
  let clients =
    List.init n (fun c ->
        Domain.spawn (fun () -> e19_client ~files ~requests path c))
  in
  let logs = List.map Domain.join clients in
  let wall = Unix.gettimeofday () -. t0 in
  let ctl = sock_connect path in
  sock_send ctl (stats_request ~id:0);
  let stats_line = sock_recv ctl in
  sock_send ctl shutdown_request;
  ignore (sock_recv ctl);
  sock_close ctl;
  Domain.join srv;
  let replay =
    match Session.create Session.default_config with
    | Ok s -> s
    | Error e -> failwith e
  in
  let identical =
    List.for_all
      (fun (reqs, resps, _) ->
        List.for_all2
          (fun req resp ->
            String.equal (Json.to_string (Server.handle_line replay req)) resp)
          reqs resps)
      logs
  in
  let lat = Array.of_list (List.concat_map (fun (_, _, l) -> l) logs) in
  Array.sort compare lat;
  let count = Array.length lat in
  let total = Array.fold_left ( +. ) 0. lat in
  let scan_cache =
    match Json.of_string_result stats_line with
    | Error _ -> Json.Null
    | Ok json -> Json.member "scan_cache" (Json.member "result" json)
  in
  {
    l_clients = n;
    l_requests = count;
    l_wall = wall;
    l_rps = float_of_int count /. Float.max wall 1e-9;
    l_mean_ms = total /. float_of_int (max 1 count);
    l_p50_ms = percentile lat 50;
    l_p99_ms = percentile lat 99;
    l_rss_mb = rss_mb ();
    l_identical = identical;
    l_scan_cache = scan_cache;
  }

(* Warm-scan-cache speedup on one big file: the first scan pays
   parse + graph + check evaluation, repeats are content-fingerprint
   hits that must still serve byte-identical SARIF. *)
let e19_warm_cache () =
  let big = write_workload ~salt:999 60 in
  Fun.protect
    ~finally:(fun () -> try Sys.remove big with Sys_error _ -> ())
    (fun () ->
      let session =
        match Session.create Session.default_config with
        | Ok s -> s
        | Error e -> failwith e
      in
      let req = scan_request ~id:1 big in
      let cold_resp, cold_dt =
        timed "e19.cold" (fun () -> Server.handle_line session req)
      in
      let cold_ms = cold_dt *. 1000. in
      let n_warm = 30 in
      let identical = ref true in
      let warm =
        Array.init n_warm (fun _ ->
            let resp, dt =
              timed "e19.warm" (fun () -> Server.handle_line session req)
            in
            if not (Json.equal resp cold_resp) then identical := false;
            dt *. 1000.)
      in
      Array.sort compare warm;
      let warm_p50 = percentile warm 50 in
      (cold_ms, warm_p50, cold_ms /. Float.max warm_p50 1e-6, !identical, n_warm))

let e19 () =
  print_endline
    (section "E19  Concurrent serve: multi-client scheduling and scan cache");
  let nfiles = 4 and copies = 12 and requests = 25 in
  let files = Array.init nfiles (fun i -> write_workload ~salt:i copies) in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) files)
    (fun () ->
      let levels = [ 1; 2; 4; 8 ] in
      let results = List.map (e19_level ~files ~requests) levels in
      let available = Parallel.recommended_jobs () in
      let parallelism_unavailable = available <= 1 in
      let mb = function
        | Some v -> Printf.sprintf "%.1f MB" v
        | None -> "n/a"
      in
      print_table
        ~header:
          [
            "clients"; "requests"; "wall (s)"; "req/s"; "p50 ms"; "p99 ms";
            "peak RSS"; "vs sequential";
          ]
        (List.map
           (fun r ->
             [
               string_of_int r.l_clients; string_of_int r.l_requests;
               f2 r.l_wall; Printf.sprintf "%.0f" r.l_rps; f2 r.l_p50_ms;
               f2 r.l_p99_ms; mb r.l_rss_mb;
               (if r.l_identical then "identical" else "DIVERGED");
             ])
           results);
      Printf.printf
        "available domains on this machine: %d (throughput scaling is only \
         expected when clients <= available domains)\n"
        available;
      if parallelism_unavailable then
        print_endline
          "NOTE: only one domain available — byte-identity is the meaningful \
           result here; throughput ratios are not";
      let cold_ms, warm_p50, speedup, warm_identical, n_warm =
        e19_warm_cache ()
      in
      let ok_identical = List.for_all (fun r -> r.l_identical) results in
      let ok_speedup = speedup >= 5. in
      Printf.printf
        "warm scan cache: cold %.2f ms, warm p50 %.2f ms over %d repeats — \
         %.1fx speedup (threshold 5x); hit bytes identical: %b\n"
        cold_ms warm_p50 n_warm speedup warm_identical;
      let json =
        Json.Obj
          [
            ("experiment", Json.String "e19-concurrent-serve");
            ("available_domains", Json.Int available);
            ("parallelism_unavailable", Json.Bool parallelism_unavailable);
            ("workload_files", Json.Int nfiles);
            ("requests_per_client", Json.Int requests);
            ( "levels",
              Json.List
                (List.map
                   (fun r ->
                     Json.Obj
                       [
                         ("clients", Json.Int r.l_clients);
                         ("requests", Json.Int r.l_requests);
                         ("wall_seconds", Json.Float r.l_wall);
                         ("throughput_rps", Json.Float r.l_rps);
                         ("mean_ms", Json.Float r.l_mean_ms);
                         ("p50_ms", Json.Float r.l_p50_ms);
                         ("p99_ms", Json.Float r.l_p99_ms);
                         ( "peak_rss_mb",
                           match r.l_rss_mb with
                           | Some v -> Json.Float v
                           | None -> Json.Null );
                         ( "identical_to_sequential_replay",
                           Json.Bool r.l_identical );
                         ("scan_cache", r.l_scan_cache);
                       ])
                   results) );
            ( "warm_cache",
              Json.Obj
                [
                  ("cold_ms", Json.Float cold_ms);
                  ("warm_p50_ms", Json.Float warm_p50);
                  ("n_warm", Json.Int n_warm);
                  ("speedup", Json.Float speedup);
                  ("speedup_at_least_5x", Json.Bool ok_speedup);
                  ("hit_byte_identical", Json.Bool warm_identical);
                ] );
          ]
      in
      let oc = open_out "BENCH_concurrency.json" in
      output_string oc (Json.to_string ~pretty:true json);
      output_string oc "\n";
      close_out oc;
      print_endline "wrote BENCH_concurrency.json";
      if not (ok_identical && ok_speedup && warm_identical) then begin
        Printf.printf
          "E19: FAIL — concurrent ≡ sequential: %b; warm-cache speedup ≥ 5x: \
           %b; hit bytes identical: %b\n"
          ok_identical ok_speedup warm_identical;
        exit 1
      end)

(* ------------------------------------------------------------------ *)
(* E20 — multi-process sharded mining: worker fleet, claim stealing    *)
(* ------------------------------------------------------------------ *)

(* The final kb-/mine- cache artifacts of a run, name → bytes. Shard
   checkpoints and corpus entries are excluded: the merge-pass finals
   are the byte-equality contract. *)
let e20_finals dir =
  List.filter_map
    (fun f ->
      if
        (String.starts_with ~prefix:"kb-" f
        || String.starts_with ~prefix:"mine-" f)
        && Filename.check_suffix f ".bin"
      then Some (f, read_all (Filename.concat dir f))
      else None)
    (List.sort String.compare (Array.to_list (Sys.readdir dir)))

let e20_claims dir =
  List.filter
    (fun f -> Filename.check_suffix f ".claim")
    (Array.to_list (Sys.readdir dir))

let e20_fresh_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) ("zodiac-e20-" ^ tag)
  in
  rm_rf dir;
  dir

(* Spawn one CLI invocation, swallow stderr, return (wall, ok, lines). *)
let e20_cli bin args =
  let cmd =
    String.concat " " (List.map Filename.quote (bin :: args)) ^ " 2>/dev/null"
  in
  let t0 = Unix.gettimeofday () in
  let ic = Unix.open_process_in cmd in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (Unix.gettimeofday () -. t0, status = Unix.WEXITED 0, List.rev !lines)

let e20_mine_args ~n ~jobs ~shard ~workers ~stale ~dir =
  [
    "mine"; "--projects"; string_of_int n; "--jobs"; string_of_int jobs;
    "--cache-dir"; dir; "--limit"; "0"; "--shard-size"; string_of_int shard;
  ]
  @
  if workers > 1 then
    [
      "--workers"; string_of_int workers;
      "--stale-after"; Printf.sprintf "%g" stale;
    ]
  else []

(* Parse the report's "mproc kb: workers=… claimed=… built=… stolen=…"
   accounting line (the optional " failed=…" suffix is ignored). *)
let e20_mproc lines pass =
  let prefix = Printf.sprintf "mproc %s:" pass in
  List.find_map
    (fun l ->
      let l = String.trim l in
      if String.starts_with ~prefix l then
        try
          Scanf.sscanf
            (String.sub l (String.length prefix)
               (String.length l - String.length prefix))
            " workers=%d claimed=%d built=%d stolen=%d" (fun w c b s ->
              Some (w, c, b, s))
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
      else None)
    lines

(* Plant a claim file for the [lo, hi) KB shard as a long-dead owner
   (mtime backdated to the epoch), so any positive --stale-after makes
   the next claimant steal it. *)
let e20_plant_stale_claim ~dir ~lo ~hi =
  let key =
    Pipeline.corpus_key
      { Pipeline.default_config with Pipeline.corpus_seed = 20240704 }
  in
  let cache = Cache.create ~dir () in
  let name = Shard_stream.claim_name ~stage:"shard-kb" ~key ~lo ~hi in
  match Cache.try_claim cache ~name ~owner:"corpse" with
  | Cache.Claimed _ ->
      Unix.utimes (Cache.claim_path cache ~name) 1. 1.;
      true
  | Cache.Busy -> false

(* KB shard checkpoints present for the default-seed corpus. *)
let e20_kb_checkpoints dir =
  List.filter
    (fun f ->
      String.starts_with ~prefix:"shard-kb-" f && Filename.check_suffix f ".bin")
    (Array.to_list (Sys.readdir dir))

let e20 () =
  print_endline
    (section
       "E20  Multi-process sharded mining: worker fleet, claim stealing, merge");
  match zodiac_bin () with
  | None ->
      (* Workers re-exec the real binary; without one on disk there is
         nothing multi-process to measure. *)
      print_endline
        "NOTE: zodiac CLI binary not found (build bin/ or set ZODIAC_BIN) — \
         E20 skipped"
  | Some bin ->
      (* (a) byte-equality grid: every (workers, jobs, shard) combination
         must leave the same final kb-/mine- artifacts as the monolithic
         run, with no claim files left behind. *)
      let n_small = 400 in
      let mono_dir = e20_fresh_dir "mono" in
      let _, mono_ok, _ =
        e20_cli bin
          [
            "mine"; "--projects"; string_of_int n_small; "--jobs"; "1";
            "--cache-dir"; mono_dir; "--limit"; "0";
          ]
      in
      let mono = e20_finals mono_dir in
      if (not mono_ok) || mono = [] then begin
        print_endline "E20: FAIL — monolithic reference run failed";
        exit 1
      end;
      let grid = [ (1, 1, 100); (2, 1, 100); (4, 1, 100); (2, 2, 100);
                   (2, 1, 170); (4, 2, 64) ]
      in
      let grid_results =
        List.map
          (fun (workers, jobs, shard) ->
            let dir =
              e20_fresh_dir (Printf.sprintf "w%d-j%d-s%d" workers jobs shard)
            in
            let wall, ok_run, lines =
              e20_cli bin
                (e20_mine_args ~n:n_small ~jobs ~shard ~workers ~stale:300.
                   ~dir)
            in
            let fleet_ok =
              workers = 1
              ||
              match e20_mproc lines "kb" with
              | Some (w, claimed, built, _stolen) ->
                  w = workers && claimed >= built && built > 0
              | None -> false
            in
            let ok =
              ok_run && fleet_ok
              && e20_finals dir = mono
              && e20_claims dir = []
            in
            rm_rf dir;
            (workers, jobs, shard, wall, ok))
          grid
      in
      let ok_grid = List.for_all (fun (_, _, _, _, ok) -> ok) grid_results in
      print_table
        ~header:[ "workers"; "jobs"; "shard size"; "wall (s)"; "vs monolithic" ]
        (List.map
           (fun (w, j, s, wall, ok) ->
             [
               string_of_int w; string_of_int j; string_of_int s; f2 wall;
               (if ok then "identical" else "DIVERGED");
             ])
           grid_results);
      rm_rf mono_dir;
      (* (b) scale: wall clock and parent peak RSS at workers = 1/2/4 on
         a 100k-project corpus, a fresh process and cache per level
         (VmHWM is process-lifetime, and warm hits would void the
         comparison). Speedup is recorded, not asserted — it depends on
         the host's core count, which is recorded alongside. *)
      let n_large = 100_000 in
      let first_token s =
        match String.index_opt s ' ' with
        | Some i -> String.sub s 0 i
        | None -> s
      in
      let rss_of lines =
        List.find_map
          (fun l ->
            let l = String.trim l in
            if String.starts_with ~prefix:"peak RSS:" l then
              float_of_string_opt
                (first_token
                   (String.trim
                      (String.sub l 9 (String.length l - 9))))
            else None)
          lines
      in
      let scale_levels = [ 1; 2; 4 ] in
      let scale_results =
        List.map
          (fun workers ->
            let dir = e20_fresh_dir (Printf.sprintf "scale-w%d" workers) in
            let wall, ok_run, lines =
              e20_cli bin
                (e20_mine_args ~n:n_large ~jobs:1 ~shard:1000 ~workers
                   ~stale:300. ~dir)
            in
            if not ok_run then begin
              Printf.printf "E20: FAIL — 100k run with --workers %d failed\n"
                workers;
              exit 1
            end;
            let finals = e20_finals dir in
            rm_rf dir;
            (workers, wall, rss_of lines, finals))
          scale_levels
      in
      let scale_reference =
        match scale_results with (_, _, _, f) :: _ -> f | [] -> []
      in
      let ok_scale =
        scale_reference <> []
        && List.for_all (fun (_, _, _, f) -> f = scale_reference) scale_results
      in
      let nproc = Zodiac_util.Parallel.recommended_jobs () in
      let mb = function Some v -> Printf.sprintf "%.1f MB" v | None -> "n/a" in
      print_table
        ~header:[ "workers"; "wall (s)"; "parent peak RSS"; "vs workers=1" ]
        (List.map
           (fun (w, wall, rss, f) ->
             [
               string_of_int w; f2 wall; mb rss;
               (if f = scale_reference then "identical" else "DIVERGED");
             ])
           scale_results);
      Printf.printf "host: %d recommended domains (nproc)\n" nproc;
      (* (c) kill -9 / resume: a lone worker is killed mid-corpus; its
         checkpoints survive, its claim (planted stale if it died
         between shards) is stolen, and a two-worker resume mines
         exactly the unfinished shards to byte-identical finals. *)
      let n_kill = 3000 and shard_kill = 250 in
      let shards_kill = (n_kill + shard_kill - 1) / shard_kill in
      let dir = e20_fresh_dir "kill" in
      ignore (Cache.create ~dir ());
      let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid =
        Unix.create_process bin
          [|
            bin; "mine-worker"; "--pass"; "kb"; "--projects";
            string_of_int n_kill; "--jobs"; "1"; "--shard-size";
            string_of_int shard_kill; "--cache-dir"; dir; "--stale-after";
            "300";
          |]
          Unix.stdin devnull Unix.stderr
      in
      Unix.close devnull;
      (* Wait for at least two checkpoints, then kill -9. *)
      let deadline = Unix.gettimeofday () +. 60. in
      let rec wait_for_progress () =
        if List.length (e20_kb_checkpoints dir) >= 2 then true
        else if Unix.gettimeofday () > deadline then false
        else begin
          Unix.sleepf 0.005;
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> wait_for_progress ()
          | _ -> true (* finished before we could kill it *)
        end
      in
      let made_progress = wait_for_progress () in
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      if not made_progress then begin
        print_endline "E20: FAIL — killed worker checkpointed nothing in 60s";
        exit 1
      end;
      (* If the worker raced to completion, re-open some work so the
         resume still has shards to mine. *)
      let reopened =
        let done_now = e20_kb_checkpoints dir in
        if List.length done_now >= shards_kill then begin
          List.iteri
            (fun i f ->
              if i < shards_kill / 2 then Sys.remove (Filename.concat dir f))
            (List.sort String.compare done_now);
          true
        end
        else false
      in
      let survivors = List.length (e20_kb_checkpoints dir) in
      (* Guarantee a stale claim on some unfinished shard: the kill may
         have landed between shards, leaving none behind. *)
      let planted =
        e20_claims dir = []
        && (let rec first_open lo =
              if lo >= n_kill then false
              else
                let hi = min n_kill (lo + shard_kill) in
                let key =
                  Pipeline.corpus_key
                    {
                      Pipeline.default_config with
                      Pipeline.corpus_seed = 20240704;
                    }
                in
                let ckey = Shard_stream.shard_key ~key ~lo ~hi in
                let cache = Cache.create ~dir () in
                if not (Cache.mem cache ~stage:"shard-kb" ~key:ckey) then
                  e20_plant_stale_claim ~dir ~lo ~hi
                else first_open hi
            in
            first_open 0)
      in
      let leftover_claims = List.length (e20_claims dir) in
      let _, resume_ok, resume_lines =
        e20_cli bin
          (e20_mine_args ~n:n_kill ~jobs:1 ~shard:shard_kill ~workers:2
             ~stale:0.05 ~dir)
      in
      let kb_fleet = e20_mproc resume_lines "kb" in
      let ok_resume_counts =
        match kb_fleet with
        | Some (_, _, built, stolen) ->
            built = shards_kill - survivors
            && stolen >= min 1 leftover_claims
        | None -> false
      in
      let ref_dir = e20_fresh_dir "kill-ref" in
      let _, ref_ok, _ =
        e20_cli bin
          (e20_mine_args ~n:n_kill ~jobs:1 ~shard:shard_kill ~workers:1
             ~stale:300. ~dir:ref_dir)
      in
      let ok_kill =
        resume_ok && ref_ok && ok_resume_counts
        && e20_finals dir = e20_finals ref_dir
        && e20_claims dir = []
      in
      Printf.printf
        "kill -9 mid-mine: %d/%d shards survived (%d stale claims%s, work \
         reopened: %b); 2-worker resume built %s, stole %s, finals identical: \
         %b\n"
        survivors shards_kill leftover_claims
        (if planted then ", one planted" else "")
        reopened
        (match kb_fleet with
        | Some (_, _, b, _) -> string_of_int b
        | None -> "?")
        (match kb_fleet with
        | Some (_, _, _, s) -> string_of_int s
        | None -> "?")
        ok_kill;
      rm_rf dir;
      rm_rf ref_dir;
      let ok = ok_grid && ok_scale && ok_kill in
      let json =
        Json.Obj
          [
            ("experiment", Json.String "e20-multiprocess-sharded-mining");
            ("nproc", Json.Int nproc);
            ( "equivalence",
              Json.Obj
                [
                  ("corpus_size", Json.Int n_small);
                  ( "runs",
                    Json.List
                      (List.map
                         (fun (w, j, s, wall, ok) ->
                           Json.Obj
                             [
                               ("workers", Json.Int w);
                               ("jobs", Json.Int j);
                               ("shard_size", Json.Int s);
                               ("wall_seconds", Json.Float wall);
                               ("identical_to_monolithic", Json.Bool ok);
                             ])
                         grid_results) );
                ] );
            ( "scale",
              Json.Obj
                [
                  ("corpus_size", Json.Int n_large);
                  ("shard_size", Json.Int 1000);
                  ("fresh_process_per_run", Json.Bool true);
                  ( "runs",
                    Json.List
                      (List.map
                         (fun (w, wall, rss, f) ->
                           Json.Obj
                             [
                               ("workers", Json.Int w);
                               ("wall_seconds", Json.Float wall);
                               ( "parent_peak_rss_mb",
                                 match rss with
                                 | Some v -> Json.Float v
                                 | None -> Json.Null );
                               ( "identical_to_workers_1",
                                 Json.Bool (f = scale_reference) );
                             ])
                         scale_results) );
                ] );
            ( "kill_resume",
              Json.Obj
                [
                  ("corpus_size", Json.Int n_kill);
                  ("shards", Json.Int shards_kill);
                  ("checkpoints_survived", Json.Int survivors);
                  ("stale_claims", Json.Int leftover_claims);
                  ("claim_planted", Json.Bool planted);
                  ( "resume_built",
                    match kb_fleet with
                    | Some (_, _, b, _) -> Json.Int b
                    | None -> Json.Null );
                  ( "resume_stolen",
                    match kb_fleet with
                    | Some (_, _, _, s) -> Json.Int s
                    | None -> Json.Null );
                  ("finals_identical", Json.Bool ok_kill);
                ] );
          ]
      in
      let oc = open_out "BENCH_mproc.json" in
      output_string oc (Json.to_string ~pretty:true json);
      output_string oc "\n";
      close_out oc;
      print_endline "wrote BENCH_mproc.json";
      if not ok then begin
        Printf.printf
          "E20: FAIL — grid identical: %b; 100k scale identical: %b; \
           kill/resume ok: %b\n"
          ok_grid ok_scale ok_kill;
        exit 1
      end


(* ------------------------------------------------------------------ *)
(* E21 — provider abstraction: Azure vs AWS mining distributions      *)
(* ------------------------------------------------------------------ *)

(* Cross-provider mining on matched corpus sizes: do the paper's
   support/confidence funnels transfer when the backend (catalogue,
   scenarios, hidden rules) is swapped wholesale? Also re-checks the
   refactor's core promise inline: interleaving an AWS run must leave
   Azure mining artifacts byte-identical. *)

let e21_dist xs =
  match List.sort compare xs with
  | [] -> Json.Obj [ ("n", Json.Int 0) ]
  | sorted ->
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      let mean = List.fold_left ( +. ) 0. xs /. float_of_int n in
      let pct p = arr.(min (n - 1) (n * p / 100)) in
      Json.Obj
        [
          ("n", Json.Int n);
          ("min", Json.Float arr.(0));
          ("p50", Json.Float (pct 50));
          ("p90", Json.Float (pct 90));
          ("max", Json.Float arr.(n - 1));
          ("mean", Json.Float mean);
        ]

let e21_mine provider size =
  let config =
    { Pipeline.default_config with Pipeline.provider; corpus_size = size }
  in
  Pipeline.mine_only ~config ()

let e21_summary (a : Pipeline.artifacts) =
  let mined = a.Pipeline.mined in
  Json.Obj
    [
      ("corpus_resources",
       Json.Int
         (List.fold_left
            (fun acc p -> acc + Program.size p.Generator.program)
            0 a.Pipeline.projects));
      ("kb_attr_entries", Json.Int (Kb.size a.Pipeline.kb));
      ("kb_conn_kinds", Json.Int (List.length (Kb.conn_kinds a.Pipeline.kb)));
      ("mined_candidates", Json.Int (List.length mined));
      ("candidates_to_validation", Json.Int (List.length a.Pipeline.candidates));
      ( "support",
        e21_dist
          (List.map (fun c -> float_of_int c.Candidate.support) mined) );
      ("confidence", e21_dist (List.map (fun c -> c.Candidate.confidence) mined));
      ("lift", e21_dist (List.map (fun c -> c.Candidate.lift) mined));
    ]

let e21 () =
  print_endline
    (section "E21  Provider abstraction: Azure vs AWS mining distributions");
  let size = 200 in
  let azure = Zodiac_azure.Azure.provider in
  let aws = Zodiac_aws.Aws.provider in
  let azure_before = e21_mine azure size in
  let aws_run = e21_mine aws size in
  let azure_after = e21_mine azure size in
  (* the refactor's contract: an interleaved AWS run leaves Azure
     artifacts byte-identical *)
  let azure_stable =
    String.equal
      (mine_artifact_bytes azure_before)
      (mine_artifact_bytes azure_after)
  in
  Printf.printf
    "corpus=%d projects per provider\n\
     azure: %d mined candidates, %d to validation\n\
     aws:   %d mined candidates, %d to validation\n\
     azure byte-identical across interleaved aws run: %b\n"
    size
    (List.length azure_before.Pipeline.mined)
    (List.length azure_before.Pipeline.candidates)
    (List.length aws_run.Pipeline.mined)
    (List.length aws_run.Pipeline.candidates)
    azure_stable;
  let json =
    Json.Obj
      [
        ("experiment", Json.String "provider");
        ("corpus_size", Json.Int size);
        ("azure", e21_summary azure_before);
        ("aws", e21_summary aws_run);
        ("azure_byte_identical", Json.Bool azure_stable);
      ]
  in
  let oc = open_out "BENCH_provider.json" in
  output_string oc (Json.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  print_endline "wrote BENCH_provider.json";
  if not azure_stable then begin
    print_endline "E21: FAIL — azure artifacts changed across an aws run";
    exit 1
  end

(* The fast multi-process gate behind `smoke --mproc-only` (and part of
   the full smoke): workers=2 ≡ workers=1 byte-identical finals, a
   planted stale claim is stolen, and no claim files outlive a run.
   Falls back to the in-process worker entry point when the CLI binary
   isn't on disk — same claim machinery, no fork. *)
let smoke_mproc () =
  let n = 120 and shard = 40 in
  let fresh tag =
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        ("zodiac-smoke-mproc-" ^ tag)
    in
    rm_rf dir;
    dir
  in
  let d1 = fresh "w1" and d2 = fresh "w2" in
  let ok =
    match zodiac_bin () with
    | Some bin ->
        let _, ok1, _ =
          e20_cli bin
            (e20_mine_args ~n ~jobs:1 ~shard ~workers:1 ~stale:300. ~dir:d1)
        in
        ignore (Cache.create ~dir:d2 ());
        let planted = e20_plant_stale_claim ~dir:d2 ~lo:0 ~hi:shard in
        let _, ok2, lines =
          e20_cli bin
            (e20_mine_args ~n ~jobs:1 ~shard ~workers:2 ~stale:300. ~dir:d2)
        in
        let stolen =
          match e20_mproc lines "kb" with
          | Some (_, _, _, s) -> s
          | None -> -1
        in
        ok1 && ok2 && planted && stolen >= 1
        && e20_finals d2 = e20_finals d1
        && e20_claims d1 = [] && e20_claims d2 = []
    | None ->
        let config ~dir =
          {
            Pipeline.default_config with
            Pipeline.corpus_size = n;
            corpus_seed = 20240704;
            jobs = 1;
            cache_dir = Some dir;
          }
        in
        let w1 =
          Pipeline.mine_streamed ~config:(config ~dir:d1) ~shard_size:shard ()
        in
        ignore (Cache.create ~dir:d2 ());
        let planted = e20_plant_stale_claim ~dir:d2 ~lo:0 ~hi:shard in
        let kb_outcome =
          Pipeline.mine_worker ~config:(config ~dir:d2) ~stale_after:300.
            ~shard_size:shard ~pass:`Kb ()
        in
        let mine_outcome =
          Pipeline.mine_worker ~config:(config ~dir:d2) ~stale_after:300.
            ~shard_size:shard ~pass:`Mine ()
        in
        let w2 =
          Pipeline.mine_streamed ~config:(config ~dir:d2) ~shard_size:shard ()
        in
        planted
        && kb_outcome.Shard_stream.w_stolen >= 1
        && kb_outcome.Shard_stream.w_built + mine_outcome.Shard_stream.w_built
           > 0
        && String.equal (streamed_funnel_bytes w1) (streamed_funnel_bytes w2)
        && e20_finals d2 = e20_finals d1
        && e20_claims d1 = [] && e20_claims d2 = []
  in
  rm_rf d1;
  rm_rf d2;
  Printf.printf
    "mproc gate (%s): workers=2 ≡ workers=1 with a stolen stale claim: %b\n"
    (match zodiac_bin () with Some _ -> "forked CLI" | None -> "in-process")
    ok;
  ok

let smoke_mproc_only () =
  print_endline (section "smoke --mproc-only  multi-process mining gate");
  if smoke_mproc () then print_endline "smoke: PASS"
  else begin
    print_endline "smoke: FAIL";
    exit 1
  end

(* A fast correctness gate over the same machinery, run by `dune build
   @check` (see the root dune file). Exits nonzero on violation. *)

(* Provider-seam gate (part of smoke): an AWS session must scan and
   report as AWS end to end — daemon round-trip over the in-process
   server plus, when the real binary is on disk, a one-shot
   `scan --provider aws` run. *)
let write_bad_aws_tf () =
  let path = Filename.temp_file "zodiac-provider" ".tf" in
  let oc = open_out path in
  output_string oc
    {|resource "aws_db_instance" "db" {
  name                    = "appdb"
  location                = "us-east-1"
  engine                  = "postgres"
  instance_class          = "db.t3.micro"
  allocated_storage       = 5
  backup_retention_period = 40
}
|};
  close_out oc;
  path

let smoke_provider () =
  let tf = write_bad_aws_tf () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tf with Sys_error _ -> ())
    (fun () ->
      let aws = Zodiac_aws.Aws.provider in
      let config = { Session.default_config with Session.provider = aws } in
      match Session.create config with
      | Error e ->
          Printf.printf "smoke_provider: session: %s\n" e;
          (false, false, false)
      | Ok session ->
          let responses =
            serve_round_trip session
              [
                {|{"id":1,"method":"stats"}|};
                scan_request ~id:2 tf;
                shutdown_request;
              ]
          in
          let ok_stats =
            match responses with
            | stats_line :: _ -> (
                match Json.of_string_result stats_line with
                | Error _ -> false
                | Ok json ->
                    Json.string_value
                      (Json.member "provider" (Json.member "result" json))
                    = Some "aws")
            | [] -> false
          in
          let ok_scan =
            match responses with
            | _ :: scan_line :: _ -> (
                match Json.of_string_result scan_line with
                | Error _ -> false
                | Ok json ->
                    let runs =
                      Json.to_list (Json.member "runs" (Json.member "result" json))
                    in
                    let rule_ids =
                      List.concat_map
                        (fun run ->
                          List.filter_map
                            (fun r ->
                              Json.string_value (Json.member "ruleId" r))
                            (Json.to_list (Json.member "results" run)))
                        runs
                    in
                    rule_ids <> []
                    && List.for_all
                         (fun id -> String.starts_with ~prefix:"AWS-" id)
                         rule_ids)
            | _ -> false
          in
          let ok_cli =
            match zodiac_bin () with
            | None -> true
            | Some bin ->
                Sys.command
                  (Printf.sprintf
                     "%s scan --provider aws --exit-zero %s >/dev/null 2>&1"
                     (Filename.quote bin) (Filename.quote tf))
                = 0
                && Sys.command
                     (Printf.sprintf
                        "%s scan --provider nonesuch %s >/dev/null 2>&1"
                        (Filename.quote bin) (Filename.quote tf))
                   <> 0
          in
          (ok_stats, ok_scan, ok_cli))

let smoke () =
  print_endline (section "smoke  engine invariants (tier-1 gate)");
  let config, a, candidates =
    e13_setup ~corpus_size:120 ~candidate_cap:10 ~max_iterations:2
  in
  let memo_off, off_stats =
    e13_run config a candidates { Engine.default_config with Engine.memo = false }
  in
  let memo_on, on_stats = e13_run config a candidates Engine.default_config in
  let faulty, faulty_stats =
    e13_run config a candidates (Engine.faulty_config ~fault_rate:0.3 ~seed:11 ())
  in
  let saved = on_stats.Engine_stats.deployments_saved in
  let ok_memo = verdict_sets memo_off = verdict_sets memo_on in
  let ok_saved =
    saved > 0
    && on_stats.Engine_stats.attempts < off_stats.Engine_stats.attempts
  in
  let ok_faults =
    verdict_sets faulty = verdict_sets memo_on
    && faulty_stats.Engine_stats.faults > 0
  in
  (* jobs equivalence: the batched parallel scheduler path must produce
     the same verdicts, deployment counts and engine stats as the
     sequential one *)
  let par_run jobs =
    let engine = Engine.create ~provider ~config:Engine.default_config () in
    let result =
      Scheduler.run ~config:config.Pipeline.scheduler ~jobs ~provider
        ~deploy_batch:(Engine.oracle_batch ~jobs engine)
        ~kb:a.Pipeline.kb ~corpus:a.Pipeline.corpus
        ~deploy:(Engine.oracle engine)
        candidates
    in
    (result, Engine.stats engine)
  in
  let seq, seq_stats = par_run 1 in
  let par, par_stats = par_run 2 in
  let ok_jobs =
    verdict_sets seq = verdict_sets par
    && seq.Scheduler.deployments = par.Scheduler.deployments
    && seq.Scheduler.iterations = par.Scheduler.iterations
    && seq_stats = par_stats
  in
  (* warm-start cache: a warm run must reproduce the cold run's artifacts
     byte-for-byte with cache hits and no misses, and a corrupted cache
     must fall back to a cold rebuild of the same artifacts *)
  let cdir =
    Filename.concat (Filename.get_temp_dir_name ()) "zodiac-smoke-cache"
  in
  rm_rf cdir;
  let cconfig =
    {
      Pipeline.default_config with
      Pipeline.corpus_size = 120;
      cache_dir = Some cdir;
    }
  in
  let cache_cold = Pipeline.mine_only ~config:cconfig () in
  let cache_warm = Pipeline.mine_only ~config:cconfig () in
  let cold_bytes = mine_artifact_bytes cache_cold in
  let ok_cache =
    String.equal cold_bytes (mine_artifact_bytes cache_warm)
    && cache_warm.Pipeline.cache_stats.Cache.hits > 0
    && cache_warm.Pipeline.cache_stats.Cache.misses = 0
  in
  (* flip a byte in the middle of every stored entry *)
  Array.iter
    (fun f ->
      let path = Filename.concat cdir f in
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let data = Bytes.of_string (really_input_string ic n) in
      close_in ic;
      let mid = n / 2 in
      Bytes.set data mid (Char.chr (Char.code (Bytes.get data mid) lxor 0xff));
      let oc = open_out_bin path in
      output_bytes oc data;
      close_out oc)
    (Sys.readdir cdir);
  let cache_corrupt = Pipeline.mine_only ~config:cconfig () in
  let ok_corrupt =
    String.equal cold_bytes (mine_artifact_bytes cache_corrupt)
    && cache_corrupt.Pipeline.cache_stats.Cache.hits = 0
  in
  (* streaming shard pipeline: a streamed run over the cache the
     monolithic rebuild just refilled loads the same final artifacts
     (no shards folded); with the finals deleted it folds three shards
     to the identical funnel; and with the shard checkpoints corrupted
     on top it falls back to counting everything, still identically *)
  let funnel_of (a : Pipeline.artifacts) =
    funnel_bytes ~kb:a.Pipeline.kb ~mined:a.Pipeline.mined
      ~candidates:a.Pipeline.candidates
  in
  let mono_funnel = funnel_of cache_corrupt in
  let sconfig = { cconfig with Pipeline.jobs = 1 } in
  let stream_warm = Pipeline.mine_streamed ~config:sconfig ~shard_size:50 () in
  let ok_stream_warm =
    String.equal mono_funnel (streamed_funnel_bytes stream_warm)
    && stream_warm.Pipeline.s_kb_fold.Shard_stream.shards = 0
    && stream_warm.Pipeline.s_mine_fold.Shard_stream.shards = 0
  in
  let delete_finals () =
    Array.iter
      (fun f ->
        if
          String.starts_with ~prefix:"kb-" f
          || String.starts_with ~prefix:"mine-" f
        then Sys.remove (Filename.concat cdir f))
      (Sys.readdir cdir)
  in
  delete_finals ();
  let stream_cold = Pipeline.mine_streamed ~config:sconfig ~shard_size:50 () in
  let ok_stream_cold =
    String.equal mono_funnel (streamed_funnel_bytes stream_cold)
    && stream_cold.Pipeline.s_kb_fold.Shard_stream.built = 3
    && stream_cold.Pipeline.s_mine_fold.Shard_stream.built = 3
  in
  Array.iter
    (fun f ->
      if String.starts_with ~prefix:"shard-" f then begin
        let path = Filename.concat cdir f in
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let data = Bytes.of_string (really_input_string ic n) in
        close_in ic;
        let mid = n / 2 in
        Bytes.set data mid (Char.chr (Char.code (Bytes.get data mid) lxor 0xff));
        let oc = open_out_bin path in
        output_bytes oc data;
        close_out oc
      end)
    (Sys.readdir cdir);
  delete_finals ();
  let stream_rebuilt = Pipeline.mine_streamed ~config:sconfig ~shard_size:50 () in
  let ok_stream_corrupt =
    String.equal mono_funnel (streamed_funnel_bytes stream_rebuilt)
    && stream_rebuilt.Pipeline.s_kb_fold.Shard_stream.resumed = 0
    && stream_rebuilt.Pipeline.s_mine_fold.Shard_stream.resumed = 0
    && stream_rebuilt.Pipeline.s_kb_fold.Shard_stream.built = 3
    && stream_rebuilt.Pipeline.s_mine_fold.Shard_stream.built = 3
  in
  rm_rf cdir;
  (* staged-pipeline trace: a deterministic (clockless) recorder must
     observe every Figure-2 mining stage without perturbing artifacts,
     never record a wall-clock value, and serialize to valid JSON *)
  let telemetry = Telemetry.create () in
  let traced =
    Pipeline.mine_only
      ~config:{ cconfig with Pipeline.cache_dir = None }
      ~telemetry ()
  in
  let ok_trace =
    String.equal cold_bytes (mine_artifact_bytes traced)
    && (match Json.of_string (Json.to_string (Telemetry.to_json telemetry)) with
       | exception Json.Parse_error _ -> false
       | json ->
           let spans = Json.to_list (Json.member "spans" json) in
           let names =
             List.filter_map
               (fun s -> Json.string_value (Json.member "name" s))
               spans
           in
           List.for_all
             (fun n -> List.mem n names)
             [ "corpus"; "kb"; "mine"; "filter"; "oracle" ]
           && List.for_all
                (fun s -> Json.member "wall_seconds" s = Json.Null)
                spans)
  in
  Printf.printf
    "memo verdicts stable: %b; deployments saved: %d (%d -> %d raw); faulted \
     run stable with %d faults: %b; jobs=1 vs jobs=2 identical: %b; warm \
     cache identical: %b; corrupted cache falls back cold: %b; deterministic \
     trace valid: %b; streamed warm/sharded/corrupt-checkpoint identical: \
     %b/%b/%b\n"
    ok_memo saved off_stats.Engine_stats.attempts on_stats.Engine_stats.attempts
    faulty_stats.Engine_stats.faults ok_faults ok_jobs ok_cache ok_corrupt
    ok_trace ok_stream_warm ok_stream_cold ok_stream_corrupt;
  (* daemon round-trip: resident SARIF ≡ one-shot CLI, byte for byte *)
  let ok_serve = smoke_serve () in
  (* multi-process mining: worker fleet ≡ single worker, stale steal *)
  let ok_mproc = smoke_mproc () in
  (* provider seam: AWS session scans as AWS; bad --provider is a CLI error *)
  let ok_prov_stats, ok_prov_scan, ok_prov_cli = smoke_provider () in
  Printf.printf
    "provider round-trip: aws stats report aws: %b; aws scan yields AWS- \
     rules: %b; --provider aws / bad-provider CLI behaviour: %b\n"
    ok_prov_stats ok_prov_scan ok_prov_cli;
  if
    ok_memo && ok_saved && ok_faults && ok_jobs && ok_cache && ok_corrupt
    && ok_trace && ok_stream_warm && ok_stream_cold && ok_stream_corrupt
    && ok_serve && ok_mproc && ok_prov_stats && ok_prov_scan && ok_prov_cli
  then print_endline "smoke: PASS"
  else begin
    print_endline "smoke: FAIL";
    exit 1
  end

let all =
  [
    e1; e2; e3; e4; e5; e6; e7; e8; e9; e10; e11; e12; e13; e14; e15; e16; e17;
    e18; e19; e20; e21;
  ]

let by_name =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12);
    ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16); ("e17", e17);
    ("e18", e18); ("e19", e19); ("e20", e20); ("e21", e21);
  ]
