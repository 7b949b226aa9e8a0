module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program
module Graph = Zodiac_iac.Graph
module Cidr = Zodiac_util.Cidr

type assignment = (string * Resource.id) list

type defaults = rtype:string -> attr:string -> Value.t option

type stats = {
  instances : int;
  cond_true : int;
  stmt_true : int;
  both_true : int;
}

let no_defaults ~rtype:_ ~attr:_ = None

(* --- attribute path resolution with index variables ---------------- *)

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

(* Resolve a parsed path on a resource under an index environment.
   Unindexed traversal into a list picks the first element (matching
   Resource.get); indexed traversal selects the element named by the
   index variable. Returns Null when the path is absent. *)
let resolve_path resource segments ienv =
  let rec walk value segments =
    match segments with
    | [] -> value
    | { field; index } :: rest -> (
        let enter v =
          match v with
          | Value.Block fields -> (
              match List.assoc_opt field fields with
              | Some inner -> Some inner
              | None -> None)
          | _ -> None
        in
        let v =
          match value with
          | Value.List (x :: _) -> enter x
          | other -> enter other
        in
        match v with
        | None -> Value.Null
        | Some inner -> (
            match index with
            | None -> walk inner rest
            | Some ivar -> (
                let items = as_list inner in
                match List.assoc_opt ivar ienv with
                | Some i when i < List.length items -> walk (List.nth items i) rest
                | Some _ | None -> Value.Null)))
  in
  match segments with
  | [] -> Value.Null
  | { field; index } :: rest -> (
      match Resource.attr resource field with
      | None -> Value.Null
      | Some v -> (
          match index with
          | None -> walk v rest
          | Some ivar -> (
              let items = as_list v in
              match List.assoc_opt ivar ienv with
              | Some i when i < List.length items -> walk (List.nth items i) rest
              | Some _ | None -> Value.Null)))

(* --- compiled checks -------------------------------------------------- *)

(* A check with its attribute paths parsed, its indices stripped where
   the graph wants plain paths, and the endpoints each index variable
   ranges over found, all once. Every evaluation below runs on this
   form; [term_value]/[eval_expr] compile their argument first. *)
type cterm =
  | T_const of Value.t
  | T_attr of { var : string; path : segment list; stripped : string }
  | T_indeg of string * Graph.type_spec
  | T_outdeg of string * Graph.type_spec

type cexpr =
  | E_conn of string * string * string * string  (* var, attr -> var, attr *)
  | E_path of string * string
  | E_cmp of Check.cmp_op * cterm * cterm
  | E_func of Check.func * cterm * cterm
  | E_not of cexpr
  | E_and of cexpr list

type compiled = {
  bindings : Check.binding list;
  cond : cexpr;
  stmt : cexpr;
  index_domains : (string * (string * segment list) list) list;
      (* each index variable, in order, with the (bound variable, path
         prefix) of every endpoint whose path it indexes; the prefix
         ends at the indexed collection *)
}

let compile_term = function
  | Check.Const v -> T_const v
  | Check.Attr { var; attr } ->
      T_attr { var; path = parse_path attr; stripped = Check.strip_indices attr }
  | Check.Indeg (var, ty) -> T_indeg (var, ty)
  | Check.Outdeg (var, ty) -> T_outdeg (var, ty)

let compile_conn (a : Check.endpoint) (b : Check.endpoint) =
  E_conn (a.var, Check.strip_indices a.attr, b.var, Check.strip_indices b.attr)

let rec compile_expr = function
  | Check.Conn (a, b) -> compile_conn a b
  | Check.Path (a, b) -> E_path (a, b)
  | Check.Coconn ((a, b), (c, d)) -> E_and [ compile_conn a b; compile_conn c d ]
  | Check.Copath ((a, b), (c, d)) -> E_and [ E_path (a, b); E_path (c, d) ]
  | Check.Cmp (op, t1, t2) -> E_cmp (op, compile_term t1, compile_term t2)
  | Check.Func (f, t1, t2) -> E_func (f, compile_term t1, compile_term t2)
  | Check.Not e -> E_not (compile_expr e)
  | Check.And es -> E_and (List.map compile_expr es)

(* The path up to and including the collection [ivar] indexes, that
   segment unindexed; [None] when the path does not mention [ivar]. *)
let collection_prefix segments ivar =
  let rec split acc = function
    | [] -> None
    | ({ index = Some v; _ } as seg) :: _rest when String.equal v ivar ->
        Some (List.rev ({ seg with index = None } :: acc))
    | seg :: rest -> split (seg :: acc) rest
  in
  split [] segments

let compile (check : Check.t) =
  let endpoints =
    List.map
      (fun (e : Check.endpoint) -> (e.var, parse_path e.attr))
      (Check.attrs_of_expr check.cond @ Check.attrs_of_expr check.stmt)
  in
  let index_domains =
    List.map
      (fun ivar ->
        ( ivar,
          List.filter_map
            (fun (var, segments) ->
              Option.map (fun prefix -> (var, prefix)) (collection_prefix segments ivar))
            endpoints ))
      (Check.index_vars check)
  in
  {
    bindings = check.bindings;
    cond = compile_expr check.cond;
    stmt = compile_expr check.stmt;
    index_domains;
  }

(* --- term and expression evaluation -------------------------------- *)

(* An instance carries its assignment twice: the bound ids (for graph
   queries) and the resources they name in the graph's program (for
   attribute reads), [None] where the id is not in the program. *)
type resources = (string * Resource.t option) list

let resources_of graph (env : assignment) : resources =
  let prog = Graph.program graph in
  List.map (fun (var, id) -> (var, Program.find prog id)) env

let lookup_resource (renv : resources) var =
  match List.assoc_opt var renv with Some r -> r | None -> None

let cterm_value ~defaults graph env renv ienv = function
  | T_const v -> v
  | T_attr { var; path; stripped } -> (
      match lookup_resource renv var with
      | None -> Value.Null
      | Some r -> (
          match resolve_path r path ienv with
          | Value.Null -> (
              match defaults ~rtype:r.Resource.rtype ~attr:stripped with
              | Some d -> d
              | None -> Value.Null)
          | v -> v))
  | T_indeg (var, ty) -> (
      match List.assoc_opt var env with
      | None -> Value.Null
      | Some id -> Value.Int (Graph.indegree graph id ty))
  | T_outdeg (var, ty) -> (
      match List.assoc_opt var env with
      | None -> Value.Null
      | Some id -> Value.Int (Graph.outdegree graph id ty))

let cidrs_of_value v =
  match v with
  | Value.Str s -> ( match Cidr.of_string s with Some c -> [ c ] | None -> [])
  | Value.List items ->
      List.filter_map
        (fun item ->
          match item with Value.Str s -> Cidr.of_string s | _ -> None)
        items
  | _ -> []

let value_int = function Value.Int i -> Some i | _ -> None

let compare_values op v1 v2 =
  match op with
  | Check.Eq -> Value.equal v1 v2
  | Check.Ne -> not (Value.equal v1 v2)
  | Check.Le | Check.Ge | Check.Lt | Check.Gt -> (
      match (value_int v1, value_int v2) with
      | Some a, Some b -> (
          match op with
          | Check.Le -> a <= b
          | Check.Ge -> a >= b
          | Check.Lt -> a < b
          | Check.Gt -> a > b
          | Check.Eq | Check.Ne -> assert false)
      | _ -> false)

let eval_func f v1 v2 =
  match f with
  | Check.Overlap ->
      let cs1 = cidrs_of_value v1 and cs2 = cidrs_of_value v2 in
      List.exists (fun a -> List.exists (fun b -> Cidr.overlap a b) cs2) cs1
  | Check.Contain ->
      let cs1 = cidrs_of_value v1 and cs2 = cidrs_of_value v2 in
      cs1 <> [] && cs2 <> []
      && List.for_all
           (fun b -> List.exists (fun a -> Cidr.contains a b) cs1)
           cs2
  | Check.Length -> (
      let len =
        match v1 with
        | Value.List items -> Some (List.length items)
        | Value.Str s -> Some (String.length s)
        | _ -> None
      in
      match (len, value_int v2) with Some a, Some b -> a = b | _ -> false)

let rec cexpr_holds ~defaults graph env renv ienv = function
  | E_conn (a, a_attr, b, b_attr) -> (
      match (List.assoc_opt a env, List.assoc_opt b env) with
      | Some src, Some dst -> Graph.conn graph ~src ~src_attr:a_attr ~dst ~dst_attr:b_attr
      | _ -> false)
  | E_path (a, b) -> (
      match (List.assoc_opt a env, List.assoc_opt b env) with
      | Some x, Some y -> Graph.path graph x y
      | _ -> false)
  | E_cmp (op, t1, t2) ->
      compare_values op
        (cterm_value ~defaults graph env renv ienv t1)
        (cterm_value ~defaults graph env renv ienv t2)
  | E_func (f, t1, t2) ->
      eval_func f
        (cterm_value ~defaults graph env renv ienv t1)
        (cterm_value ~defaults graph env renv ienv t2)
  | E_not e -> not (cexpr_holds ~defaults graph env renv ienv e)
  | E_and es -> List.for_all (cexpr_holds ~defaults graph env renv ienv) es

let term_value ?(defaults = no_defaults) graph env ienv term =
  cterm_value ~defaults graph env (resources_of graph env) ienv (compile_term term)

let eval_expr ?(defaults = no_defaults) graph env ienv expr =
  cexpr_holds ~defaults graph env (resources_of graph env) ienv (compile_expr expr)

(* --- instance enumeration ------------------------------------------ *)

(* All injective assignments of bindings to resources of matching type,
   each with the resources it binds. *)
let assignments graph (bindings : Check.binding list) =
  let prog = Graph.program graph in
  let rec extend env renv = function
    | [] -> [ (List.rev env, List.rev renv) ]
    | (b : Check.binding) :: rest ->
        let candidates = Program.by_type prog b.btype in
        List.concat_map
          (fun r ->
            let id = Resource.id r in
            if List.exists (fun (_, id') -> Resource.equal_id id id') env then []
            else extend ((b.var, id) :: env) ((b.var, Some r) :: renv) rest)
          candidates
  in
  extend [] [] bindings

(* Index environments for one assignment: the product of the domains of
   each index variable, where a variable's domain is the largest
   collection it indexes across all endpoints mentioning it. *)
let index_envs c renv =
  match c.index_domains with
  | [] -> [ [] ]
  | index_domains ->
      let domain ienv prefixes =
        List.fold_left
          (fun acc (var, prefix) ->
            match lookup_resource renv var with
            | None -> acc
            | Some r -> max acc (List.length (as_list (resolve_path r prefix ienv))))
          0 prefixes
      in
      (* Distinct index variables range over pairwise-distinct positions:
         [rule[i]] vs [rule[j]] never aliases the same element. *)
      List.fold_left
        (fun ienvs (ivar, prefixes) ->
          List.concat_map
            (fun ienv ->
              let n = domain ienv prefixes in
              if n = 0 then []
              else
                List.filter_map
                  (fun i ->
                    if List.exists (fun (_, j) -> j = i) ienv then None
                    else Some (ienv @ [ (ivar, i) ]))
                  (List.init n Fun.id))
            ienvs)
        [ [] ] index_domains

(* Fold [f c] over every instance of [c] among the [assigned]
   assignments, in enumeration order. *)
let fold_assigned c assigned f init =
  List.fold_left
    (fun acc (env, renv) ->
      List.fold_left (fun acc ienv -> f c acc env renv ienv) acc (index_envs c renv))
    init assigned

(* Most checks of a registry have no instance in a given program, so
   the check is compiled only once an assignment exists. *)
let fold_check graph check f init =
  match assignments graph check.Check.bindings with
  | [] -> init
  | assigned -> fold_assigned (compile check) assigned f init

(* The instances whose condition holds and whose statement evaluates
   to [stmt]; the statement is only evaluated where the condition
   holds. *)
let matching ~defaults graph ~stmt f c acc env renv ienv =
  if
    cexpr_holds ~defaults graph env renv ienv c.cond
    && cexpr_holds ~defaults graph env renv ienv c.stmt = stmt
  then f acc env
  else acc

let stats ?(defaults = no_defaults) graph check =
  fold_check graph check
    (fun c acc env renv ienv ->
      let cond = cexpr_holds ~defaults graph env renv ienv c.cond in
      let stmt = cexpr_holds ~defaults graph env renv ienv c.stmt in
      {
        instances = acc.instances + 1;
        cond_true = (acc.cond_true + if cond then 1 else 0);
        stmt_true = (acc.stmt_true + if stmt then 1 else 0);
        both_true = (acc.both_true + if cond && stmt then 1 else 0);
      })
    { instances = 0; cond_true = 0; stmt_true = 0; both_true = 0 }

let occurrences ?(defaults = no_defaults) graph check =
  (stats ~defaults graph check).cond_true

let dedup_assignments envs =
  List.fold_left (fun acc env -> if List.mem env acc then acc else env :: acc) [] envs
  |> List.rev

let collect ~defaults graph check ~stmt =
  fold_check graph check (matching ~defaults graph ~stmt (fun acc env -> env :: acc)) []
  |> dedup_assignments

let violations ?(defaults = no_defaults) graph check =
  collect ~defaults graph check ~stmt:false

let witnesses ?(defaults = no_defaults) graph check =
  collect ~defaults graph check ~stmt:true

exception Found of assignment

let raise_found () env = raise (Found env)

let first_instance fold ~defaults graph ~stmt =
  match fold (matching ~defaults graph ~stmt raise_found) () with
  | () -> None
  | exception Found env -> Some env

let first_witness ?(defaults = no_defaults) graph check =
  first_instance (fold_check graph check) ~defaults graph ~stmt:true

let first_violation ?(defaults = no_defaults) graph check =
  first_instance (fold_check graph check) ~defaults graph ~stmt:false

let holds ?(defaults = no_defaults) graph check =
  first_violation ~defaults graph check = None

let holds_compiled ?(defaults = no_defaults) graph c =
  first_instance
    (fun f init -> fold_assigned c (assignments graph c.bindings) f init)
    ~defaults graph ~stmt:false
  = None

let violating_index_env ?(defaults = no_defaults) graph check env =
  let c = compile check in
  let renv = resources_of graph env in
  List.find_opt
    (fun ienv ->
      cexpr_holds ~defaults graph env renv ienv c.cond
      && not (cexpr_holds ~defaults graph env renv ienv c.stmt))
    (index_envs c renv)
