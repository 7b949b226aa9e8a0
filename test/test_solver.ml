(* Tests for the finite-domain Max-CSP solver. *)

module Csp = Zodiac_solver.Csp
module Value = Zodiac_iac.Value

let s v = Value.Str v

(* helper: look up inside a constraint predicate *)
let v l x = l x

let test_unsat () =
  let p = Csp.create () in
  let x = Csp.new_var p ~name:"x" [ s "a" ] in
  Csp.add_hard p ~name:"impossible" [ x ] (fun l -> v l x = s "b");
  Alcotest.(check bool) "unsat" true (Csp.solve p = None)

let test_all_different_coloring () =
  (* 3-coloring of a triangle *)
  let p = Csp.create () in
  let colors = [ s "r"; s "g"; s "b" ] in
  let a = Csp.new_var p ~name:"a" colors in
  let b = Csp.new_var p ~name:"b" colors in
  let c = Csp.new_var p ~name:"c" colors in
  let diff name x y = Csp.add_hard p ~name [ x; y ] (fun l -> v l x <> v l y) in
  diff "ab" a b;
  diff "bc" b c;
  diff "ac" a c;
  match Csp.solve p with
  | Some sol ->
      let va = Csp.value sol a and vb = Csp.value sol b and vc = Csp.value sol c in
      Alcotest.(check bool) "all distinct" true (va <> vb && vb <> vc && va <> vc)
  | None -> Alcotest.fail "triangle is 3-colorable"

let test_pigeonhole_unsat () =
  (* 3 pigeons, 2 holes, all-different: UNSAT *)
  let p = Csp.create () in
  let holes = [ Value.Int 0; Value.Int 1 ] in
  let xs = List.init 3 (fun i -> Csp.new_var p ~name:(string_of_int i) holes) in
  List.iteri
    (fun i x ->
      List.iteri
        (fun j y ->
          if i < j then
            Csp.add_hard p ~name:(Printf.sprintf "d%d%d" i j) [ x; y ] (fun l ->
                v l x <> v l y))
        xs)
    xs;
  Alcotest.(check bool) "unsat" true (Csp.solve p = None)

let test_value_costs_minimized () =
  let p = Csp.create () in
  let x = Csp.new_var p ~name:"x" [ s "cheap"; s "pricey" ] in
  Csp.set_value_cost p x (fun value -> if value = s "pricey" then 5 else 0);
  match Csp.solve p with
  | Some sol ->
      Alcotest.(check bool) "picks cheap" true (Csp.value sol x = s "cheap");
      Alcotest.(check int) "zero cost" 0 (Csp.cost sol)
  | None -> Alcotest.fail "sat expected"

let test_cost_vs_hard () =
  (* the hard constraint forces the costly value *)
  let p = Csp.create () in
  let x = Csp.new_var p ~name:"x" [ s "cheap"; s "pricey" ] in
  Csp.set_value_cost p x (fun value -> if value = s "pricey" then 5 else 0);
  Csp.add_hard p ~name:"force" [ x ] (fun l -> v l x = s "pricey");
  match Csp.solve p with
  | Some sol -> Alcotest.(check int) "cost paid" 5 (Csp.cost sol)
  | None -> Alcotest.fail "sat expected"

let test_soft_constraints () =
  let p = Csp.create () in
  let x = Csp.new_var p ~name:"x" [ s "a"; s "b" ] in
  let y = Csp.new_var p ~name:"y" [ s "a"; s "b" ] in
  (* two incompatible soft constraints: satisfy the heavier *)
  Csp.add_soft p ~name:"want-xa" ~weight:1 [ x ] (fun l -> v l x = s "a");
  Csp.add_soft p ~name:"want-xb" ~weight:10 [ x ] (fun l -> v l x = s "b");
  Csp.add_soft p ~name:"want-ya" ~weight:3 [ y ] (fun l -> v l y = s "a");
  match Csp.solve p with
  | Some sol ->
      Alcotest.(check bool) "x=b (heavier)" true (Csp.value sol x = s "b");
      Alcotest.(check bool) "y=a" true (Csp.value sol y = s "a");
      Alcotest.(check (list string)) "violated light one" [ "want-xa" ]
        (Csp.violated_soft sol);
      Alcotest.(check int) "cost = weight 1" 1 (Csp.cost sol)
  | None -> Alcotest.fail "sat expected"

let test_soft_never_unsat () =
  let p = Csp.create () in
  let x = Csp.new_var p ~name:"x" [ s "a" ] in
  Csp.add_soft p ~name:"impossible" ~weight:100 [ x ] (fun l -> v l x = s "b");
  match Csp.solve p with
  | Some sol -> Alcotest.(check int) "pays the weight" 100 (Csp.cost sol)
  | None -> Alcotest.fail "soft constraints must not cause UNSAT"

let test_multi_scope_constraint () =
  let p = Csp.create () in
  let xs = List.init 4 (fun i -> Csp.new_var p ~name:(string_of_int i) [ Value.Int 0; Value.Int 1 ]) in
  (* sum of all four variables = 2 *)
  Csp.add_hard p ~name:"sum2" xs (fun l ->
      List.fold_left
        (fun acc x -> acc + match v l x with Value.Int i -> i | _ -> 0)
        0 xs
      = 2);
  match Csp.solve p with
  | Some sol ->
      let sum =
        List.fold_left
          (fun acc x -> acc + match Csp.value sol x with Value.Int i -> i | _ -> 0)
          0 xs
      in
      Alcotest.(check int) "sum is 2" 2 sum
  | None -> Alcotest.fail "sat expected"

let test_good_enough_stops () =
  let p = Csp.create () in
  let xs =
    List.init 10 (fun i -> Csp.new_var p ~name:(string_of_int i) [ Value.Int 0; Value.Int 1 ])
  in
  List.iter (fun x -> Csp.set_value_cost p x (fun value -> if value = Value.Int 1 then 1 else 0)) xs;
  (match Csp.solve ~good_enough:0 p with
  | Some sol -> Alcotest.(check int) "optimal immediately" 0 (Csp.cost sol)
  | None -> Alcotest.fail "sat expected");
  Alcotest.(check bool) "few nodes" true (Csp.stats_nodes p <= 12)

let test_priority_ordering () =
  (* the prioritized variable is decided first, so an early conflict on
     it prunes immediately instead of after exploring the others *)
  let p = Csp.create () in
  let key = Csp.new_var p ~name:"key" [ s "bad"; s "good" ] in
  let _noise =
    List.init 8 (fun i -> Csp.new_var p ~name:(Printf.sprintf "n%d" i) [ Value.Int 0; Value.Int 1 ])
  in
  Csp.set_priority p key 0;
  Csp.add_hard p ~name:"key-good" [ key ] (fun l -> v l key = s "good");
  match Csp.solve ~good_enough:0 p with
  | Some sol ->
      Alcotest.(check bool) "good" true (Csp.value sol key = s "good");
      Alcotest.(check bool) "cheap search" true (Csp.stats_nodes p < 30)
  | None -> Alcotest.fail "sat expected"

let test_node_budget_respected () =
  let p = Csp.create () in
  let xs =
    List.init 20 (fun i -> Csp.new_var p ~name:(string_of_int i) [ Value.Int 0; Value.Int 1 ])
  in
  (* unsatisfiable parity-ish constraint over everything, forcing
     exhaustive search beyond the budget *)
  Csp.add_hard p ~name:"impossible" xs (fun l ->
      List.fold_left
        (fun acc x -> acc + match v l x with Value.Int i -> i | _ -> 0)
        0 xs
      = 50);
  let _ = Csp.solve ~node_budget:500 p in
  Alcotest.(check bool) "budget respected" true (Csp.stats_nodes p <= 501)

let test_empty_domain_rejected () =
  let p = Csp.create () in
  match Csp.new_var p ~name:"x" [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty domain must be rejected"

let test_deterministic () =
  let solve_once () =
    let p = Csp.create () in
    let xs =
      List.init 6 (fun i ->
          Csp.new_var p ~name:(string_of_int i) [ s "a"; s "b"; s "c" ])
    in
    List.iteri
      (fun i x ->
        List.iteri
          (fun j y ->
            if j = i + 1 then
              Csp.add_hard p ~name:(Printf.sprintf "d%d" i) [ x; y ] (fun l ->
                  v l x <> v l y))
          xs)
      xs;
    match Csp.solve p with
    | Some sol -> List.map (Csp.value sol) xs
    | None -> []
  in
  Alcotest.(check bool) "same solution twice" true (solve_once () = solve_once ())

(* ---- equivalence with the reference search ---------------------------- *)

(* A problem described independently of [Csp], so the same problem can
   be handed to [Csp.solve] and to the reference below. *)
type spec = {
  domains : Value.t list array;
  priorities : int array;
  costs : (Value.t -> int) array;
  constraints : (string * int list * ((int -> Value.t) -> bool) * int option) list;
      (* name, scope, predicate, weight (None = hard), insertion order *)
}

exception Unassigned

exception Stop

(* The search as it was before variable order, value order and
   constraint placement were precomputed and verdicts memoized: every
   node rescans for the next variable and re-sorts its values, and every
   assignment re-tests every constraint on the assigned variable. Kept
   as the specification [Csp.solve] must reproduce node for node.
   Returns the best solution (values, cost, violated soft names) and
   the nodes explored. *)
let reference_solve ~node_budget ~good_enough spec =
  let nodes = ref 0 in
  let n = Array.length spec.domains in
  let domains = Array.map Array.of_list spec.domains in
  let assignment = Array.make (max n 1) Value.Null in
  let assigned = Array.make (max n 1) false in
  let lookup v = if assigned.(v) then assignment.(v) else raise Unassigned in
  let check_decided (_, _, pred, _) =
    match pred lookup with ok -> Some ok | exception Unassigned -> None
  in
  let constraints = Array.of_list spec.constraints in
  let relevant = Array.make (max n 1) [] in
  Array.iter
    (fun ((_, scope, _, _) as c) -> List.iter (fun v -> relevant.(v) <- c :: relevant.(v)) scope)
    constraints;
  let best = ref None in
  let best_cost () = match !best with Some (_, c, _) -> c | None -> max_int in
  let rec search lower_bound =
    if !nodes < node_budget then begin
      incr nodes;
      if lower_bound < best_cost () then begin
        let pick = ref (-1) in
        let pick_key = ref (max_int, max_int) in
        for v = 0 to n - 1 do
          if not assigned.(v) then begin
            let key = (spec.priorities.(v), Array.length domains.(v)) in
            if key < !pick_key then begin
              pick := v;
              pick_key := key
            end
          end
        done;
        if !pick < 0 then begin
          let violated =
            Array.to_list constraints
            |> List.filter_map (fun ((name, _, _, weight) as c) ->
                   match (weight, check_decided c) with
                   | Some _, Some false -> Some name
                   | _ -> None)
          in
          if
            Array.for_all
              (fun ((_, _, _, weight) as c) ->
                match (weight, check_decided c) with
                | None, Some ok -> ok
                | None, None -> false
                | Some _, _ -> true)
              constraints
          then
            if lower_bound < best_cost () then begin
              best := Some (Array.sub assignment 0 n, lower_bound, violated);
              if lower_bound <= good_enough then raise Stop
            end
        end
        else begin
          let v = !pick in
          let values =
            Array.to_list domains.(v)
            |> List.map (fun value -> (spec.costs.(v) value, value))
            |> List.stable_sort (fun (c1, _) (c2, _) -> Int.compare c1 c2)
          in
          List.iter
            (fun (vcost, value) ->
              assignment.(v) <- value;
              assigned.(v) <- true;
              let feasible = ref true in
              let penalty = ref 0 in
              List.iter
                (fun ((_, scope, _, weight) as c) ->
                  match check_decided c with
                  | Some false -> (
                      match weight with
                      | None -> feasible := false
                      | Some w ->
                          if List.for_all (fun w' -> w' = v || assigned.(w')) scope then
                            penalty := !penalty + w)
                  | Some true | None -> ())
                (List.filter
                   (fun (_, scope, _, _) ->
                     List.mem v scope && List.for_all (fun w -> assigned.(w)) scope)
                   relevant.(v));
              if !feasible then search (lower_bound + vcost + !penalty);
              assigned.(v) <- false)
            values
        end
      end
    end
  in
  (try search 0 with Stop -> ());
  (!best, !nodes)

(* Random problems: up to 7 variables, domains of 1-4 integers, random
   priorities and value costs, constraints over 0-3 scope variables
   (duplicates allowed) whose predicates are pure hashes of their scope
   values, a few negative soft weights, tight budgets and good-enough
   thresholds. *)
let gen_problem =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* budget = oneof [ int_range 1 40; return 200_000 ] in
    let* good_enough = oneof [ return min_int; int_range 0 12 ] in
    return (seed, budget, good_enough))

let spec_of_seed seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let n = int 8 in
  let domains = Array.init n (fun _ -> List.init (1 + int 4) (fun i -> Value.Int i)) in
  let priorities = Array.init n (fun _ -> int 3) in
  let costs =
    Array.init n (fun _ ->
        let table = Array.init 4 (fun _ -> int 4) in
        fun value -> match value with Value.Int i -> table.(i) | _ -> 0)
  in
  let constraints =
    List.init (int 9) (fun k ->
        let scope = if n = 0 then [] else List.init (int 4) (fun _ -> int n) in
        let modulus = 2 + int 3 in
        let pred look = Hashtbl.hash (k, List.map look scope) mod modulus <> 0 in
        let weight =
          match int 4 with 0 -> None | 1 -> Some (int 3 - 1) | _ -> Some (1 + int 10)
        in
        (Printf.sprintf "c%d" k, scope, pred, weight))
  in
  { domains; priorities; costs; constraints }

let problem_arb =
  QCheck.make
    ~print:(fun (seed, budget, good_enough) ->
      Printf.sprintf "seed=%d budget=%d good_enough=%d" seed budget good_enough)
    gen_problem

(* [spec] as a [Csp.problem]; every predicate call is logged with its
   scope values. *)
let csp_of_spec spec =
  let p = Csp.create () in
  let vars = Array.mapi (fun i dom -> Csp.new_var p ~name:(string_of_int i) dom) spec.domains in
  Array.iteri (fun i var -> Csp.set_value_cost p var spec.costs.(i)) vars;
  Array.iteri (fun i var -> Csp.set_priority p var spec.priorities.(i)) vars;
  let calls = ref [] in
  List.iter
    (fun (name, scope, pred, weight) ->
      let pred l =
        let look i = l vars.(i) in
        calls := (name, List.map look scope) :: !calls;
        pred look
      in
      let scope = List.map (fun i -> vars.(i)) scope in
      match weight with
      | None -> Csp.add_hard p ~name scope pred
      | Some weight -> Csp.add_soft p ~name ~weight scope pred)
    spec.constraints;
  (p, vars, calls)

(* [Csp.solve] and the reference agree on [spec]: same solution values,
   cost, violated soft constraints and node count. *)
let agrees ~node_budget ~good_enough spec =
  let p, vars, _ = csp_of_spec spec in
  let got = Csp.solve ~node_budget ~good_enough p in
  let expected, expected_nodes = reference_solve ~node_budget ~good_enough spec in
  let same =
    match (got, expected) with
    | None, None -> true
    | Some sol, Some (values, cost, violated) ->
        Array.for_all2 (fun var value -> Csp.value sol var = value) vars values
        && Csp.cost sol = cost
        && Csp.violated_soft sol = violated
    | _ -> false
  in
  same && Csp.stats_nodes p = expected_nodes

let prop_solve_matches_reference =
  QCheck.Test.make ~name:"solve = reference search (values, cost, violated, nodes)"
    ~count:2000 problem_arb (fun (seed, node_budget, good_enough) ->
      agrees ~node_budget ~good_enough (spec_of_seed seed))

(* 34 variables of 4 values: a scope over all of them spans 4^34 > 2^62
   tuples, too many for a mixed-radix int key. The scope lists the
   deepest variables first, so a wrapped key would drop the digits the
   search varies most. *)
let test_wide_scope () =
  let n = 34 in
  let all = List.rev (List.init n Fun.id) in
  let sum look =
    List.fold_left (fun acc v -> acc + match look v with Value.Int i -> i | _ -> 0) 0 all
  in
  let spec =
    {
      domains = Array.make n (List.init 4 (fun i -> Value.Int i));
      priorities = Array.make n 1;
      costs = Array.make n (function Value.Int i -> i mod 2 | _ -> 0);
      constraints =
        [
          ("odd", all, (fun look -> sum look mod 2 = 1), None);
          ("small", all, (fun look -> sum look < 4), Some 5);
          ("pair", [ 0; 1 ], (fun look -> look 0 <> look 1), None);
        ];
    }
  in
  List.iter
    (fun (node_budget, good_enough) ->
      Alcotest.(check bool)
        (Printf.sprintf "agrees (budget %d)" node_budget)
        true
        (agrees ~node_budget ~good_enough spec))
    [ (200, min_int); (2_000, 2); (20_000, 0) ]

let prop_predicate_once_per_tuple =
  QCheck.Test.make ~name:"a predicate runs at most once per scope tuple" ~count:500
    problem_arb (fun (seed, node_budget, good_enough) ->
      let p, _, calls = csp_of_spec (spec_of_seed seed) in
      ignore (Csp.solve ~node_budget ~good_enough p);
      let sorted = List.sort compare !calls in
      List.length (List.sort_uniq compare sorted) = List.length sorted)

let () =
  Alcotest.run "solver"
    [
      ( "csp",
        [
          Alcotest.test_case "unsat" `Quick test_unsat;
          Alcotest.test_case "triangle coloring" `Quick test_all_different_coloring;
          Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
          Alcotest.test_case "value costs" `Quick test_value_costs_minimized;
          Alcotest.test_case "cost vs hard" `Quick test_cost_vs_hard;
          Alcotest.test_case "soft constraints" `Quick test_soft_constraints;
          Alcotest.test_case "soft never unsat" `Quick test_soft_never_unsat;
          Alcotest.test_case "multi-var scope" `Quick test_multi_scope_constraint;
          Alcotest.test_case "good-enough early stop" `Quick test_good_enough_stops;
          Alcotest.test_case "priority ordering" `Quick test_priority_ordering;
          Alcotest.test_case "node budget" `Quick test_node_budget_respected;
          Alcotest.test_case "empty domain" `Quick test_empty_domain_rejected;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "scope wider than an int key" `Quick test_wide_scope;
        ] );
      ( "reference",
        List.map QCheck_alcotest.to_alcotest
          [ prop_solve_matches_reference; prop_predicate_once_per_tuple ] );
    ]
