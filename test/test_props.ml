(* Cross-cutting property-based tests (qcheck): random programs and
   checks exercising the graph/evaluator/solver invariants. *)

module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program
module Graph = Zodiac_iac.Graph
module Check = Zodiac_spec.Check
module Eval = Zodiac_spec.Eval
module Printer = Zodiac_spec.Spec_printer
module Parser = Zodiac_spec.Spec_parser
module Csp = Zodiac_solver.Csp
module Generator = Zodiac_corpus.Generator
module Prng = Zodiac_util.Prng
module Cidr = Zodiac_util.Cidr
module Mutation = Zodiac_validation.Mutation

let provider = Zodiac_azure.Azure.provider

(* ------------- random program generator ------------------------------ *)

let gen_program =
  QCheck.Gen.(
    let* seed = int_bound 10_000 in
    let* n = int_range 2 10 in
    let rng = Prng.create seed in
    (* random resources of a tiny universe with random references *)
    let types = [| "A"; "B"; "C" |] in
    let resources =
      List.init n (fun i ->
          let ty = types.(Prng.int rng 3) in
          let name = Printf.sprintf "r%d" i in
          let attrs =
            [ ("name", Value.Str name); ("idx", Value.Int (Prng.int rng 5)) ]
            @
            (* reference an earlier resource half the time *)
            if i > 0 && Prng.bool rng then
              let j = Prng.int rng i in
              [ ("link", Value.reference types.(Prng.int rng 3) (Printf.sprintf "r%d" j) "id") ]
            else []
          in
          Resource.make ty name attrs)
    in
    return (Program.of_resources resources))

let program_arb = QCheck.make ~print:(fun p -> Format.asprintf "%a" Program.pp p) gen_program

(* ------------- graph invariants -------------------------------------- *)

let prop_degree_sum =
  QCheck.Test.make ~name:"sum of indegrees = sum of outdegrees = #edges" ~count:200
    program_arb (fun prog ->
      let g = Graph.build prog in
      let nodes = Graph.nodes g in
      let any = Graph.Not_type "\000impossible" in
      let in_sum = List.fold_left (fun acc v -> acc + Graph.indegree g v any) 0 nodes in
      let out_sum = List.fold_left (fun acc v -> acc + Graph.outdegree g v any) 0 nodes in
      let edges = List.length (Graph.edges g) in
      in_sum = edges && out_sum = edges)

let prop_edges_from_to_partition =
  QCheck.Test.make ~name:"every edge appears in exactly one edges_from and edges_to"
    ~count:200 program_arb (fun prog ->
      let g = Graph.build prog in
      List.for_all
        (fun (e : Graph.edge) ->
          List.memq e (Graph.edges_from g e.Graph.src)
          && List.memq e (Graph.edges_to g e.Graph.dst))
        (Graph.edges g))

let prop_reachability_transitive =
  QCheck.Test.make ~name:"reachable_from is transitively closed" ~count:100
    program_arb (fun prog ->
      let g = Graph.build prog in
      List.for_all
        (fun v ->
          let reach = Graph.reachable_from g v in
          List.for_all
            (fun w ->
              List.for_all
                (fun x ->
                  List.exists (Resource.equal_id x) reach)
                (Graph.reachable_from g w))
            reach)
        (Graph.nodes g))

let prop_topo_order_respects_edges =
  QCheck.Test.make ~name:"topological order puts referenced nodes first (DAGs)"
    ~count:200 program_arb (fun prog ->
      let g = Graph.build prog in
      (* our generator only references earlier resources: always a DAG *)
      let order = Graph.topological_order g in
      let pos v =
        let rec go i = function
          | [] -> max_int
          | x :: rest -> if Resource.equal_id x v then i else go (i + 1) rest
        in
        go 0 order
      in
      List.for_all (fun (e : Graph.edge) -> pos e.Graph.dst < pos e.Graph.src) (Graph.edges g))

(* ------------- evaluator invariants ---------------------------------- *)

let idx_check =
  Parser.parse_exn "let r:A in r.idx >= 0 => r.idx <= 4"

let prop_holds_iff_no_violations =
  QCheck.Test.make ~name:"holds <=> violations empty" ~count:200 program_arb
    (fun prog ->
      let g = Graph.build prog in
      Eval.holds g idx_check = (Eval.violations g idx_check = []))

let prop_first_violation_consistent =
  QCheck.Test.make ~name:"first_violation agrees with violations" ~count:200
    program_arb (fun prog ->
      let g = Graph.build prog in
      (Eval.first_violation g idx_check <> None)
      = (Eval.violations g idx_check <> []))

let prop_stats_consistent =
  QCheck.Test.make ~name:"stats: both <= cond <= instances" ~count:200 program_arb
    (fun prog ->
      let g = Graph.build prog in
      let s = Eval.stats g idx_check in
      s.Eval.both_true <= s.Eval.cond_true
      && s.Eval.cond_true <= s.Eval.instances
      && s.Eval.stmt_true <= s.Eval.instances)

let prop_violations_witnesses_disjoint =
  QCheck.Test.make ~name:"an assignment cannot be both witness-only and violation"
    ~count:100 program_arb (fun prog ->
      let g = Graph.build prog in
      (* a single-instance check: each assignment is one instance, so
         witness and violation sets are disjoint *)
      let v = Eval.violations g idx_check in
      let w = Eval.witnesses g idx_check in
      List.for_all (fun a -> not (List.mem a w)) v)


(* ------------- compiled evaluator ≡ reference interpreter ------------- *)

(* The evaluator as it was before checks were compiled: paths are
   parsed, indices stripped and index variables found on every
   evaluation. Kept as the specification the compiled form must
   reproduce. *)
module Ref_eval = struct
  type segment = { field : string; index : string option }

  let parse_path path =
    List.map
      (fun seg ->
        match String.index_opt seg '[' with
        | Some i when String.length seg > i + 2 && seg.[String.length seg - 1] = ']' ->
            {
              field = String.sub seg 0 i;
              index = Some (String.sub seg (i + 1) (String.length seg - i - 2));
            }
        | _ -> { field = seg; index = None })
      (String.split_on_char '.' path)

  let as_list = function
    | Value.List items -> items
    | Value.Block _ as b -> [ b ]
    | Value.Null -> []
    | v -> [ v ]

  let resolve_path resource segments ienv =
    let pick items ivar k =
      match List.assoc_opt ivar ienv with
      | Some i when i < List.length items -> k (List.nth items i)
      | Some _ | None -> Value.Null
    in
    let rec walk value = function
      | [] -> value
      | { field; index } :: rest -> (
          let enter = function
            | Value.Block fields -> List.assoc_opt field fields
            | _ -> None
          in
          let v = match value with Value.List (x :: _) -> enter x | other -> enter other in
          match v with
          | None -> Value.Null
          | Some inner -> (
              match index with
              | None -> walk inner rest
              | Some ivar -> pick (as_list inner) ivar (fun x -> walk x rest)))
    in
    match segments with
    | [] -> Value.Null
    | { field; index } :: rest -> (
        match Resource.attr resource field with
        | None -> Value.Null
        | Some v -> (
            match index with
            | None -> walk v rest
            | Some ivar -> pick (as_list v) ivar (fun x -> walk x rest)))

  let collection_length resource path ivar ienv =
    let rec split acc = function
      | [] -> None
      | ({ index = Some v; _ } as seg) :: _ when String.equal v ivar ->
          Some (List.rev ({ seg with index = None } :: acc))
      | seg :: rest -> split (seg :: acc) rest
    in
    Option.map
      (fun prefix -> List.length (as_list (resolve_path resource prefix ienv)))
      (split [] (parse_path path))

  let lookup_resource graph env var =
    Option.bind (List.assoc_opt var env) (Program.find (Graph.program graph))

  let term_value defaults graph env ienv = function
    | Check.Const v -> v
    | Check.Attr { var; attr } -> (
        match lookup_resource graph env var with
        | None -> Value.Null
        | Some r -> (
            match resolve_path r (parse_path attr) ienv with
            | Value.Null ->
                Option.value ~default:Value.Null
                  (defaults ~rtype:r.Resource.rtype ~attr:(Check.strip_indices attr))
            | v -> v))
    | Check.Indeg (var, ty) ->
        Option.fold ~none:Value.Null
          ~some:(fun id -> Value.Int (Graph.indegree graph id ty))
          (List.assoc_opt var env)
    | Check.Outdeg (var, ty) ->
        Option.fold ~none:Value.Null
          ~some:(fun id -> Value.Int (Graph.outdegree graph id ty))
          (List.assoc_opt var env)

  let cidrs = function
    | Value.Str s -> Option.to_list (Cidr.of_string s)
    | Value.List items ->
        List.filter_map (function Value.Str s -> Cidr.of_string s | _ -> None) items
    | _ -> []

  let compare_values op v1 v2 =
    match (op, v1, v2) with
    | Check.Eq, _, _ -> Value.equal v1 v2
    | Check.Ne, _, _ -> not (Value.equal v1 v2)
    | Check.Le, Value.Int a, Value.Int b -> a <= b
    | Check.Ge, Value.Int a, Value.Int b -> a >= b
    | Check.Lt, Value.Int a, Value.Int b -> a < b
    | Check.Gt, Value.Int a, Value.Int b -> a > b
    | _ -> false

  let eval_func f v1 v2 =
    match f with
    | Check.Overlap ->
        List.exists (fun a -> List.exists (Cidr.overlap a) (cidrs v2)) (cidrs v1)
    | Check.Contain ->
        let cs1 = cidrs v1 and cs2 = cidrs v2 in
        cs1 <> [] && cs2 <> []
        && List.for_all (fun b -> List.exists (fun a -> Cidr.contains a b) cs1) cs2
    | Check.Length -> (
        match (v1, v2) with
        | Value.List items, Value.Int b -> List.length items = b
        | Value.Str s, Value.Int b -> String.length s = b
        | _ -> false)

  let conn graph env (a : Check.endpoint) (b : Check.endpoint) =
    match (List.assoc_opt a.var env, List.assoc_opt b.var env) with
    | Some src, Some dst ->
        Graph.conn graph ~src ~src_attr:(Check.strip_indices a.attr) ~dst
          ~dst_attr:(Check.strip_indices b.attr)
    | _ -> false

  let path graph env a b =
    match (List.assoc_opt a env, List.assoc_opt b env) with
    | Some x, Some y -> Graph.path graph x y
    | _ -> false

  let rec eval_expr defaults graph env ienv = function
    | Check.Conn (a, b) -> conn graph env a b
    | Check.Path (a, b) -> path graph env a b
    | Check.Coconn ((a, b), (c, d)) -> conn graph env a b && conn graph env c d
    | Check.Copath ((a, b), (c, d)) -> path graph env a b && path graph env c d
    | Check.Cmp (op, t1, t2) ->
        compare_values op
          (term_value defaults graph env ienv t1)
          (term_value defaults graph env ienv t2)
    | Check.Func (f, t1, t2) ->
        eval_func f
          (term_value defaults graph env ienv t1)
          (term_value defaults graph env ienv t2)
    | Check.Not e -> not (eval_expr defaults graph env ienv e)
    | Check.And es -> List.for_all (eval_expr defaults graph env ienv) es

  let assignments graph (bindings : Check.binding list) =
    let prog = Graph.program graph in
    let rec extend env = function
      | [] -> [ List.rev env ]
      | (b : Check.binding) :: rest ->
          List.concat_map
            (fun r ->
              let id = Resource.id r in
              if List.exists (fun (_, id') -> Resource.equal_id id id') env then []
              else extend ((b.var, id) :: env) rest)
            (Program.by_type prog b.btype)
    in
    extend [] bindings

  let index_envs graph check env =
    let endpoints = Check.attrs_of_expr check.Check.cond @ Check.attrs_of_expr check.Check.stmt in
    let domain ienv ivar =
      List.fold_left
        (fun acc (e : Check.endpoint) ->
          match lookup_resource graph env e.var with
          | None -> acc
          | Some r -> (
              match collection_length r e.attr ivar ienv with
              | Some n -> max acc n
              | None -> acc))
        0 endpoints
    in
    List.fold_left
      (fun ienvs ivar ->
        List.concat_map
          (fun ienv ->
            List.filter_map
              (fun i ->
                if List.exists (fun (_, j) -> j = i) ienv then None
                else Some (ienv @ [ (ivar, i) ]))
              (List.init (domain ienv ivar) Fun.id))
          ienvs)
      [ [] ] (Check.index_vars check)

  let instances defaults graph check =
    List.concat_map
      (fun env ->
        List.map
          (fun ienv ->
            ( env,
              eval_expr defaults graph env ienv check.Check.cond,
              eval_expr defaults graph env ienv check.Check.stmt ))
          (index_envs graph check env))
      (assignments graph check.Check.bindings)

  let dedup envs =
    List.rev (List.fold_left (fun acc e -> if List.mem e acc then acc else e :: acc) [] envs)

  let holds defaults graph check =
    List.for_all (fun (_, cond, stmt) -> (not cond) || stmt) (instances defaults graph check)

  (* instances whose condition holds and statement is [want], in
     enumeration order *)
  let matching defaults graph check want =
    List.filter_map
      (fun (env, cond, stmt) -> if cond && stmt = want then Some env else None)
      (instances defaults graph check)

  (* collected newest-first, then deduplicated *)
  let violations defaults graph check = dedup (List.rev (matching defaults graph check false))
  let witnesses defaults graph check = dedup (List.rev (matching defaults graph check true))

  let stats defaults graph check =
    List.fold_left
      (fun (n, c, s, b) (_, cond, stmt) ->
        ( n + 1,
          (c + if cond then 1 else 0),
          (s + if stmt then 1 else 0),
          b + if cond && stmt then 1 else 0 ))
      (0, 0, 0, 0) (instances defaults graph check)
end

(* Programs over types A/B/C with scalar attributes, a nested block, a
   top-level reference, and a repeated [rule] block whose elements may
   reference other resources. *)
let gen_rich_program =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let rng = Prng.create seed in
    let types = [| "A"; "B"; "C" |] in
    let n = 1 + Prng.int rng 5 in
    let names = Array.init n (fun i -> (types.(Prng.int rng 3), Printf.sprintf "r%d" i)) in
    let ref_to () =
      let ty, name = names.(Prng.int rng n) in
      Value.reference ty name "id"
    in
    let cidrs = [| "10.0.0.0/16"; "10.0.1.0/24"; "10.1.0.0/24"; "192.168.0.0/24" |] in
    let rule () =
      Value.Block
        ([ ("p", Value.Int (Prng.int rng 4)); ("d", Value.Str (if Prng.bool rng then "in" else "out")) ]
        @ (if Prng.bool rng then [ ("cidr", Value.Str cidrs.(Prng.int rng 4)) ] else [])
        @ if Prng.bool rng then [ ("tgt", ref_to ()) ] else [])
    in
    let resources =
      Array.to_list
        (Array.map
           (fun (ty, name) ->
             let attrs =
               [ ("name", Value.Str name); ("idx", Value.Int (Prng.int rng 4)) ]
               @ (if Prng.bool rng then [ ("rule", Value.List (List.init (Prng.int rng 4) (fun _ -> rule ()))) ] else [])
               @ (if Prng.bool rng then [ ("nest", Value.Block [ ("x", Value.Int (Prng.int rng 3)) ]) ] else [])
               @ (if Prng.bool rng then [ ("space", Value.List [ Value.Str cidrs.(Prng.int rng 4) ]) ] else [])
               @ if Prng.bool rng then [ ("link", ref_to ()) ] else []
             in
             Resource.make ty name attrs)
           names)
    in
    return (Program.of_resources resources))

let attrs_pool =
  [| "idx"; "name"; "rule[i].p"; "rule[j].p"; "rule.p"; "rule[i].d"; "rule[i].cidr";
     "rule[j].cidr"; "rule[i].tgt"; "nest.x"; "missing"; "link"; "space"; "rule" |]

let gen_check =
  QCheck.Gen.(
    let types = [ "A"; "B"; "C" ] in
    let* t1 = oneofl types in
    let* t2 = oneofl types in
    let* two = bool in
    let bindings =
      { Check.var = "r"; btype = t1 } :: (if two then [ { Check.var = "s"; btype = t2 } ] else [])
    in
    let vars = List.map (fun (b : Check.binding) -> b.var) bindings in
    let endpoint_of attrs =
      let* var = oneofl vars in
      let* attr = attrs in
      return { Check.var; attr }
    in
    let endpoint = endpoint_of (oneofa attrs_pool) in
    (* connections mostly run from a reference-bearing path to an id *)
    let conn_src = endpoint_of (oneofl [ "link"; "rule.tgt"; "rule[i].tgt"; "rule[j].tgt"; "idx" ]) in
    let conn_dst = endpoint_of (frequency [ (4, return "id"); (1, oneofa attrs_pool) ]) in
    let spec = oneof [ map (fun t -> Graph.Type t) (oneofl types); map (fun t -> Graph.Not_type t) (oneofl types) ] in
    let term =
      oneof
        [
          map (fun i -> Check.Const (Value.Int i)) (int_bound 4);
          map (fun s -> Check.Const (Value.Str s)) (oneofl [ "in"; "out"; "10.0.0.0/16" ]);
          map (fun e -> Check.Attr e) endpoint;
          map2 (fun v t -> Check.Indeg (v, t)) (oneofl vars) spec;
          map2 (fun v t -> Check.Outdeg (v, t)) (oneofl vars) spec;
        ]
    in
    let op = oneofl Check.[ Eq; Ne; Le; Ge; Lt; Gt ] in
    let func = oneofl Check.[ Overlap; Contain; Length ] in
    let rec expr depth =
      let leaves =
        [
          map3 (fun o a b -> Check.Cmp (o, a, b)) op term term;
          map3 (fun f a b -> Check.Func (f, a, b)) func term term;
          map2 (fun a b -> Check.Conn (a, b)) conn_src conn_dst;
          map2 (fun a b -> Check.Path (a, b)) (oneofl vars) (oneofl vars);
          map2 (fun a b -> Check.Coconn (a, b)) (pair conn_src conn_dst) (pair conn_src conn_dst);
          map2 (fun a b -> Check.Copath (a, b)) (pair (oneofl vars) (oneofl vars)) (pair (oneofl vars) (oneofl vars));
        ]
      in
      if depth = 0 then oneof leaves
      else
        frequency
          [
            (4, oneof leaves);
            (1, map (fun e -> Check.Not e) (expr (depth - 1)));
            (1, map (fun es -> Check.And es) (list_size (int_range 1 3) (expr (depth - 1))));
          ]
    in
    let* cond = expr 2 in
    let* stmt = expr 2 in
    return (Check.make bindings cond stmt))

let test_defaults ~rtype ~attr =
  match (rtype, attr) with
  | "A", "missing" -> Some (Value.Int 1)
  | _, "rule.d" -> Some (Value.Str "in")
  | _ -> None

let program_check_arb =
  QCheck.make
    ~print:(fun (prog, check) ->
      Format.asprintf "%a@.%s" Program.pp prog (Printer.to_string check))
    QCheck.Gen.(pair gen_rich_program gen_check)

let prop_eval_matches_reference =
  QCheck.Test.make ~name:"compiled evaluator = reference interpreter" ~count:1000
    program_check_arb (fun (prog, check) ->
      let g = Graph.build prog in
      let defaults = test_defaults in
      let s = Eval.stats ~defaults g check in
      Eval.holds ~defaults g check = Ref_eval.holds defaults g check
      && Eval.violations ~defaults g check = Ref_eval.violations defaults g check
      && Eval.witnesses ~defaults g check = Ref_eval.witnesses defaults g check
      && (s.Eval.instances, s.Eval.cond_true, s.Eval.stmt_true, s.Eval.both_true)
         = Ref_eval.stats defaults g check
      && Eval.holds_compiled ~defaults g (Eval.compile check) = Ref_eval.holds defaults g check
      && Eval.first_violation ~defaults g check
         = List.nth_opt (Ref_eval.matching defaults g check false) 0
      && Eval.first_witness ~defaults g check
         = List.nth_opt (Ref_eval.matching defaults g check true) 0
      && List.for_all
           (fun env ->
             List.for_all
               (fun ienv ->
                 Eval.eval_expr ~defaults g env ienv check.Check.stmt
                 = Ref_eval.eval_expr defaults g env ienv check.Check.stmt
                 && List.for_all
                      (fun (t : Check.term) ->
                        Value.equal
                          (Eval.term_value ~defaults g env ienv t)
                          (Ref_eval.term_value defaults g env ienv t))
                      (List.map (fun e -> Check.Attr e) (Check.attrs_of_expr check.Check.cond)))
               (Ref_eval.index_envs g check env))
           (Ref_eval.assignments g check.Check.bindings))

(* ------------- reused edges ≡ rebuilt graph --------------------------- *)

let gen_slot_write =
  QCheck.Gen.(
    let* prog = gen_rich_program in
    let resources = Array.of_list (Program.resources prog) in
    let* r = oneofa resources in
    let rid = Resource.id r in
    let* slot =
      oneof
        [
          map (fun path -> Mutation.Flat (rid, path))
            (oneofl [ "idx"; "name"; "nest.x"; "nest.y"; "rule.p"; "rule.tgt"; "link"; "fresh"; "space" ]);
          map2 (fun i sub -> Mutation.Elem (rid, "rule", i, sub)) (int_bound 3) (oneofl [ "p"; "tgt"; "q" ]);
        ]
    in
    let target = oneofa resources in
    let value =
      frequency
        [
          (3, map (fun i -> Value.Int i) (int_bound 5));
          (2, map (fun s -> Value.Str s) (oneofl [ "a"; "10.0.0.0/24" ]));
          (2, return Value.Null);
          (1, map (fun t -> Value.reference t.Resource.rtype t.Resource.rname "id") target);
          (1, map (fun t -> Value.List [ Value.reference t.Resource.rtype t.Resource.rname "id" ]) target);
          (1, return (Value.Block [ ("x", Value.Int 1) ]));
        ]
    in
    let* values = list_size (int_range 1 3) value in
    return (prog, slot, values))

let prop_reused_edges_match_build =
  QCheck.Test.make ~name:"admitted slot writes keep Graph.build's edges" ~count:1000
    (QCheck.make
       ~print:(fun (prog, _, values) ->
         Format.asprintf "%a@.%s" Program.pp prog
           (String.concat ", " (List.map Value.to_string values)))
       gen_slot_write)
    (fun (prog, slot, values) ->
      QCheck.assume (Mutation.write_keeps_edges prog slot values);
      let base = Graph.build prog in
      List.for_all
        (fun v ->
          let written = Mutation.write_slot prog slot v in
          Graph.edges (Graph.with_program base written) = Graph.edges (Graph.build written))
        values)

(* ------------- corpus/cloud property ---------------------------------- *)

let prop_conforming_projects_deploy =
  QCheck.Test.make ~name:"conforming generator output always deploys" ~count:20
    QCheck.(int_bound 100_000) (fun seed ->
      let projects = Generator.conforming ~provider ~seed ~count:5 () in
      List.for_all
        (fun p ->
          Zodiac_cloud.Arm.success (Zodiac_cloud.Arm.deploy ~provider p.Generator.program))
        projects)

(* ------------- solver properties -------------------------------------- *)

let prop_solver_solution_satisfies_hard =
  QCheck.Test.make ~name:"solver solutions satisfy all hard constraints" ~count:100
    QCheck.(pair (int_bound 1000) (int_range 2 6))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let p = Csp.create () in
      let dom = List.init 3 (fun i -> Value.Int i) in
      let vars = List.init n (fun i -> Csp.new_var p ~name:(string_of_int i) dom) in
      (* random binary difference constraints *)
      let cons = ref [] in
      List.iteri
        (fun i x ->
          List.iteri
            (fun j y ->
              if i < j && Prng.chance rng 0.4 then begin
                let pred l = l x <> l y in
                cons := pred :: !cons;
                Csp.add_hard p ~name:(Printf.sprintf "c%d%d" i j) [ x; y ] pred
              end)
            vars)
        vars;
      match Csp.solve p with
      | None -> true (* UNSAT is acceptable; soundness checked below *)
      | Some sol ->
          let lookup v = Csp.value sol v in
          List.for_all (fun pred -> pred lookup) !cons)

let prop_solver_cost_counts_soft =
  QCheck.Test.make ~name:"solution cost >= 10 * violated soft constraints" ~count:100
    QCheck.(int_bound 1000) (fun seed ->
      let rng = Prng.create seed in
      let p = Csp.create () in
      let dom = [ Value.Int 0; Value.Int 1 ] in
      let vars = List.init 4 (fun i -> Csp.new_var p ~name:(string_of_int i) dom) in
      List.iteri
        (fun i x ->
          if Prng.bool rng then begin
            let wanted = Value.Int (Prng.int rng 2) in
            Csp.add_soft p ~name:(Printf.sprintf "s%d" i) ~weight:10 [ x ]
              (fun l -> l x = wanted)
          end)
        vars;
      match Csp.solve p with
      | None -> false (* soft-only problems are always SAT *)
      | Some sol -> Csp.cost sol >= 10 * List.length (Csp.violated_soft sol))

let () =
  Alcotest.run "properties"
    [
      ( "graph",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_degree_sum; prop_edges_from_to_partition;
            prop_reachability_transitive; prop_topo_order_respects_edges;
          ] );
      ( "eval",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_holds_iff_no_violations; prop_first_violation_consistent;
            prop_stats_consistent; prop_violations_witnesses_disjoint;
            prop_eval_matches_reference; prop_reused_edges_match_build;
          ] );
      ( "corpus",
        List.map QCheck_alcotest.to_alcotest [ prop_conforming_projects_deploy ] );
      ( "solver",
        List.map QCheck_alcotest.to_alcotest
          [ prop_solver_solution_satisfies_hard; prop_solver_cost_counts_soft ] );
    ]
