module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program
module Graph = Zodiac_iac.Graph
module Schema = Zodiac_iac.Schema
module Check = Zodiac_spec.Check
module Eval = Zodiac_spec.Eval
module Kb = Zodiac_kb.Kb
module Csp = Zodiac_solver.Csp
module Provider = Zodiac_provider.Provider
module Cidr = Zodiac_util.Cidr
module Arm = Zodiac_cloud.Arm

type options = { consider_others : bool; minimize_changes : bool }

let default_options = { consider_others = true; minimize_changes = true }

type result = {
  program : Program.t;
  violated_soft : string list;
  attr_changes : int;
  topo_changes : int;
}

(* ------------------------------------------------------------------ *)
(* Mutable slots                                                       *)
(* ------------------------------------------------------------------ *)

(* A slot addresses one mutable position: a dotted attribute path, or a
   sub-attribute of one element of a repeated-block collection. *)
type slot =
  | Flat of Resource.id * string
  | Elem of Resource.id * string * int * string

let slot_resource = function Flat (rid, _) | Elem (rid, _, _, _) -> rid

let slot_name = function
  | Flat (rid, path) -> Printf.sprintf "%s.%s" (Resource.id_to_string rid) path
  | Elem (rid, coll, i, sub) ->
      Printf.sprintf "%s.%s[%d].%s" (Resource.id_to_string rid) coll i sub

let read_slot prog slot =
  match slot with
  | Flat (rid, path) -> (
      match Program.find prog rid with
      | Some r -> Resource.get r path
      | None -> Value.Null)
  | Elem (rid, coll, i, sub) -> (
      match Program.find prog rid with
      | None -> Value.Null
      | Some r -> (
          match Resource.attr r coll with
          | Some (Value.List items) when i < List.length items -> (
              match List.nth items i with
              | Value.Block fields ->
                  Option.value ~default:Value.Null (List.assoc_opt sub fields)
              | _ -> Value.Null)
          | _ -> Value.Null))

let write_slot prog slot v =
  match slot with
  | Flat (rid, path) -> Program.update prog rid (fun r -> Resource.set r path v)
  | Elem (rid, coll, i, sub) ->
      Program.update prog rid (fun r ->
          match Resource.attr r coll with
          | Some (Value.List items) when i < List.length items ->
              let items =
                List.mapi
                  (fun j item ->
                    if j <> i then item
                    else
                      match item with
                      | Value.Block fields ->
                          let fields =
                            if List.mem_assoc sub fields then
                              List.map
                                (fun (k, old) -> if String.equal k sub then (k, v) else (k, old))
                                fields
                            else fields @ [ (sub, v) ]
                          in
                          Value.Block fields
                      | other -> other)
                  items
              in
              Resource.set r coll (Value.List items)
          | _ -> r)

(* ------------------------------------------------------------------ *)
(* Domains                                                             *)
(* ------------------------------------------------------------------ *)

(* Fresh-name source for synthesized resources/values. Domain-local, and
   reset at every [negative] entry, so the names a mutation uses depend
   only on that mutation's own inputs — never on how many mutations ran
   before it or on which domain it runs. Names only need to be unique
   within one mutant program. *)
let fresh_counter = Domain.DLS.new_key (fun () -> ref 0)

let reset_fresh () = Domain.DLS.get fresh_counter := 0

let fresh_string prefix =
  let r = Domain.DLS.get fresh_counter in
  incr r;
  Printf.sprintf "%s-zn%d" prefix !r

(* Integer constants compared against [attr] anywhere in the checks. *)
let int_constants_for checks rtype attr =
  let acc = ref [] in
  let add i = if not (List.mem i !acc) then acc := i :: !acc in
  let scan_term relevant = function
    | Check.Const (Value.Int i) when relevant -> List.iter add [ i; i + 1; max 0 (i - 1) ]
    | _ -> ()
  in
  let rec scan_expr (check : Check.t) = function
    | Check.Cmp (_, t1, t2) | Check.Func (_, t1, t2) ->
        let mentions t =
          match t with
          | Check.Attr { Check.var; attr = a } ->
              Check.strip_indices a = attr
              && (match Check.binding_type check var with
                 | Some ty -> String.equal ty rtype
                 | None -> false)
          | _ -> false
        in
        let rel = mentions t1 || mentions t2 in
        scan_term rel t1;
        scan_term rel t2
    | Check.Not e -> scan_expr check e
    | Check.And es -> List.iter (scan_expr check) es
    | Check.Conn _ | Check.Path _ | Check.Coconn _ | Check.Copath _ -> ()
  in
  List.iter
    (fun (c : Check.t) ->
      scan_expr c c.Check.cond;
      scan_expr c c.Check.stmt)
    checks;
  !acc

(* Candidate values for a slot, original first. *)
let slot_domain provider kb checks prog slot =
  let original = read_slot prog slot in
  let rid = slot_resource slot in
  let rtype = rid.Resource.rtype in
  let attr =
    match slot with
    | Flat (_, path) -> path
    | Elem (_, coll, _, sub) -> coll ^ "." ^ sub
  in
  let info = Kb.attr_info kb ~rtype ~attr in
  let optional =
    match info with
    | Some { Kb.requirement = Some Schema.Optional; _ } -> true
    | Some { Kb.requirement = None; _ } -> true
    | _ -> false
  in
  let format = match info with Some i -> i.Kb.format | None -> Schema.Free_string in
  let base =
    match format with
    | Schema.Enum values -> List.map (fun s -> Value.Str s) values
    | Schema.Region ->
        (* regions already used in the program (so added resources can
           align), plus a couple of foreign ones (to break alignment) *)
        let in_program =
          List.filter_map
            (fun r ->
              match Resource.get r "location" with
              | Value.Str s -> Some (Value.Str s)
              | _ -> None)
            (Program.resources prog)
        in
        let foreign =
          List.filteri (fun i _ -> i < 2) provider.Provider.regions
          |> List.map (fun r -> Value.Str r)
        in
        in_program @ foreign
    | Schema.Cidr_format -> (
        (* the original, its adjacent sibling, CIDRs of same-attr peers
           (to manufacture overlaps), and a clearly-foreign block *)
        let peers =
          List.concat_map
            (fun r ->
              if String.equal r.Resource.rtype rtype then
                match Resource.get r attr with
                | Value.Str s -> (
                    match Cidr.of_string s with Some c -> [ c ] | None -> [])
                | _ -> []
              else [])
            (Program.resources prog)
        in
        match original with
        | Value.Str s -> (
            match Cidr.of_string s with
            | Some c ->
                List.map
                  (fun c -> Value.Str (Cidr.to_string c))
                  (c :: Cidr.adjacent c :: peers)
                @ [ Value.Str "192.168.250.0/24" ]
            | None -> [ Value.Str "192.168.250.0/24" ])
        | _ -> [ Value.Str "192.168.250.0/24" ])
    | Schema.Name_format ->
        (* reserved names give name checks something to bite on *)
        List.map (fun (n, _) -> Value.Str n) provider.Provider.reserved_names
        @ [ Value.Str (fresh_string "res") ]
    | Schema.Port_format | Schema.Id_format | Schema.Free_string -> (
        match info with
        | Some i ->
            List.filteri (fun idx _ -> idx < 3) i.Kb.observed |> List.map fst
        | None -> [])
  in
  let base =
    match original with
    | Value.Bool b -> [ Value.Bool b; Value.Bool (not b) ]
    | Value.Int i ->
        List.map
          (fun v -> Value.Int v)
          (List.sort_uniq Int.compare
             ((i :: i + 1 :: max 0 (i - 1) :: int_constants_for checks rtype attr)))
    | _ -> base
  in
  let with_null = if optional then base @ [ Value.Null ] else base in
  let dedup =
    List.fold_left
      (fun acc v -> if List.exists (Value.equal v) acc then acc else acc @ [ v ])
      []
      ((original :: with_null)
      @ (match format with
        | Schema.Enum _ | Schema.Region | Schema.Cidr_format | Schema.Name_format ->
            []
        | Schema.Port_format | Schema.Id_format | Schema.Free_string -> (
            (* give non-null alternatives to currently-null free slots *)
            match original with
            | Value.Null -> [ Value.Str (fresh_string "val") ]
            | _ -> [])))
  in
  dedup

(* ------------------------------------------------------------------ *)
(* Virtual resource additions for aggregation targets                  *)
(* ------------------------------------------------------------------ *)

let rename_suffix prog suffix =
  (* rename every resource with a suffix, rewriting references *)
  let resources = Program.resources prog in
  let renames =
    List.map
      (fun r ->
        let id = Resource.id r in
        (id, { id with Resource.rname = id.Resource.rname ^ suffix }))
      resources
  in
  let renamed =
    List.map
      (fun r ->
        let r =
          List.fold_left
            (fun r (old_id, new_id) -> Resource.rename_refs ~old_id ~new_id r)
            r renames
        in
        { r with Resource.rname = r.Resource.rname ^ suffix })
      resources
  in
  Program.of_resources renamed

let reserved_names provider = List.map fst provider.Provider.reserved_names

let freshen_names provider prog =
  (* give every resource a fresh, unique "name" attribute value —
     except provider-reserved names (GatewaySubnet, ...), which carry
     semantics and are unique per parent anyway *)
  Program.of_resources
    (List.map
       (fun r ->
         match Resource.attr r "name" with
         | Some (Value.Str s) when not (List.mem s (reserved_names provider)) ->
             Resource.set r "name" (Value.Str (fresh_string s))
         | _ -> r)
       (Program.resources prog))

(* Region of the majority of a program's resources. *)
let dominant_region prog =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match Resource.get r "location" with
      | Value.Str loc ->
          Hashtbl.replace counts loc
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts loc))
      | _ -> ())
    (Program.resources prog);
  Hashtbl.fold
    (fun loc c best ->
      match best with
      | Some (_, c') when c' >= c -> best
      | _ -> Some (loc, c))
    counts None
  |> Option.map fst

(* Duplicate [src] (a resource of [prog]) with a fresh local name and a
   fresh "name" attribute; returns the duplicate. *)
let duplicate prog src_id =
  match Program.find prog src_id with
  | None -> None
  | Some r ->
      let rname = Program.fresh_name prog r.Resource.rtype in
      let dup = { r with Resource.rname = rname } in
      let dup =
        match Resource.attr dup "name" with
        | Some (Value.Str s) -> Resource.set dup "name" (Value.Str (fresh_string s))
        | _ -> dup
      in
      (* fresh nested ip_config / os_disk names to avoid collisions *)
      let dup =
        List.fold_left
          (fun dup path ->
            match Resource.get dup path with
            | Value.Str s when String.length s > 0 ->
                Resource.set dup path (Value.Str (fresh_string s))
            | _ -> dup)
          dup [ "os_disk.name" ]
      in
      Some dup

type addition_plan = {
  new_program : Program.t;
  added : Resource.id list;
}

(* Raise indegree(r, tau): r gains references to duplicated tau
   resources through the list attribute it already uses. *)
let raise_indegree prog r_id tau need =
  let graph = Graph.build prog in
  let existing =
    List.filter
      (fun (e : Graph.edge) -> String.equal e.Graph.dst.Resource.rtype tau)
      (Graph.edges_from graph r_id)
  in
  match existing with
  | [] -> None
  | edge :: _ -> (
      let list_attr = edge.Graph.src_attr in
      let rec add_copies prog added n =
        if n = 0 then Some (prog, added)
        else
          match duplicate prog edge.Graph.dst with
          | None -> None
          | Some dup ->
              let prog = Program.add prog dup in
              let dup_id = Resource.id dup in
              let prog =
                Program.update prog r_id (fun r ->
                    match Resource.get r list_attr with
                    | Value.List items ->
                        Resource.set r list_attr
                          (Value.List
                             (items
                             @ [
                                 Value.Ref
                                   {
                                     Value.rtype = dup_id.Resource.rtype;
                                     rname = dup_id.Resource.rname;
                                     attr = edge.Graph.dst_attr;
                                   };
                               ]))
                    | _ -> r)
              in
              add_copies prog (dup_id :: added) (n - 1)
      in
      match add_copies prog [] need with
      | Some (new_program, added) -> Some { new_program; added }
      | None -> None)

(* Raise outdegree(r, tau): duplicate existing referencing resources of
   type tau (keeping their reference to r). *)
let raise_outdegree prog r_id tau need =
  let graph = Graph.build prog in
  let existing =
    List.filter
      (fun (e : Graph.edge) -> String.equal e.Graph.src.Resource.rtype tau)
      (Graph.edges_to graph r_id)
  in
  match existing with
  | [] -> None
  | edge :: _ -> (
      let rec add_copies prog added n =
        if n = 0 then Some (prog, added)
        else
          match duplicate prog edge.Graph.src with
          | None -> None
          | Some dup -> add_copies (Program.add prog dup) (Resource.id dup :: added) (n - 1)
      in
      match add_copies prog [] need with
      | Some (new_program, added) -> Some { new_program; added }
      | None -> None)

(* Attach a resource of a type other than [tau] to r: instantiate a
   donor pattern from the corpus and remap its reference. *)
let attach_foreign ~provider ~kb ~donors prog (r_id : Resource.id) tau =
  let dst_type = r_id.Resource.rtype in
  let kinds =
    List.filter
      (fun (k : Kb.conn_kind) ->
        String.equal k.Kb.dst_type dst_type && not (String.equal k.Kb.src_type tau)
        && provider.Provider.find_schema k.Kb.src_type <> None)
      (Kb.conn_kinds kb)
  in
  let try_kind (k : Kb.conn_kind) =
    (* find a donor program containing such an edge *)
    List.find_map
      (fun (_, donor) ->
        let graph = Graph.build donor in
        List.find_map
          (fun (e : Graph.edge) ->
            if
              String.equal e.Graph.src.Resource.rtype k.Kb.src_type
              && String.equal e.Graph.src_attr k.Kb.src_attr
              && String.equal e.Graph.dst.Resource.rtype dst_type
            then begin
              (* donor closure of the source, excluding the old target's
                 own subtree where possible *)
              let closure = Mdc.prune donor ~keep:[ e.Graph.src ] in
              let closure = rename_suffix closure "_zn" in
              let closure = freshen_names provider closure in
              (* align the donor's regions with the target program *)
              let closure =
                match dominant_region prog with
                | None -> closure
                | Some region ->
                    Program.of_resources
                      (List.map
                         (fun r ->
                           match Resource.get r "location" with
                           | Value.Str _ ->
                               Resource.set r "location" (Value.Str region)
                           | _ -> r)
                         (Program.resources closure))
              in
              let src' =
                {
                  e.Graph.src with
                  Resource.rname = e.Graph.src.Resource.rname ^ "_zn";
                }
              in
              (* remap the donor edge so it points at r *)
              let closure =
                Program.update closure src' (fun r ->
                    Resource.rename_refs
                      ~old_id:{ e.Graph.dst with Resource.rname = e.Graph.dst.Resource.rname ^ "_zn" }
                      ~new_id:r_id r)
              in
              (* merge; drop donor resources that became unreferenced *)
              let merged =
                List.fold_left Program.add prog (Program.resources closure)
              in
              let pruned =
                Mdc.prune merged
                  ~keep:(src' :: List.map Resource.id (Program.resources prog))
              in
              let added =
                List.filter_map
                  (fun r ->
                    let id = Resource.id r in
                    if Program.mem prog id then None else Some id)
                  (Program.resources pruned)
              in
              if added = [] then None else Some { new_program = pruned; added }
            end
            else None)
          (Graph.edges graph))
      donors
  in
  List.find_map try_kind kinds

(* ------------------------------------------------------------------ *)
(* Strategy selection                                                  *)
(* ------------------------------------------------------------------ *)

let witness_resource (tp : Testcase.tp) var =
  List.assoc_opt var tp.Testcase.witness

(* Plan topology additions needed to make the target's statement
   falsifiable; returns the augmented program and added ids. *)
let plan_additions ~provider ~kb ~donors (tp : Testcase.tp) (target : Check.t) =
  let prog = tp.Testcase.program in
  let graph = Graph.build prog in
  let rec plan expr =
    match expr with
    | Check.Cmp (op, Check.Indeg (var, Graph.Type tau), Check.Const (Value.Int k)) -> (
        match witness_resource tp var with
        | None -> None
        | Some rid ->
            let current = Graph.indegree graph rid (Graph.Type tau) in
            let needed =
              match op with
              | Check.Le -> (k + 1) - current
              | Check.Eq -> if k = 0 then 1 else (k + 1) - current
              | Check.Lt -> k - current
              | Check.Ne | Check.Ge | Check.Gt -> -1
            in
            if needed <= 0 then Some { new_program = prog; added = [] }
            else raise_indegree prog rid tau needed)
    | Check.Cmp (op, Check.Outdeg (var, spec), Check.Const (Value.Int k)) -> (
        match witness_resource tp var with
        | None -> None
        | Some rid -> (
            match (spec, op) with
            | Graph.Type tau, (Check.Le | Check.Eq) ->
                let current = Graph.outdegree graph rid (Graph.Type tau) in
                let needed = (k + 1) - current in
                if needed <= 0 then Some { new_program = prog; added = [] }
                else raise_outdegree prog rid tau needed
            | Graph.Not_type tau, Check.Eq when k = 0 ->
                attach_foreign ~provider ~kb ~donors prog rid tau
            | _ -> None))
    | Check.And es ->
        (* violating any conjunct suffices; prefer attribute conjuncts
           (no additions), else the first satisfiable plan *)
        let attr_only =
          List.exists
            (fun e ->
              match e with
              | Check.Cmp (_, Check.Attr _, _)
              | Check.Cmp (_, _, Check.Attr _)
              | Check.Func _ | Check.Not _ ->
                  true
              | _ -> false)
            es
        in
        if attr_only then Some { new_program = prog; added = [] }
        else List.find_map plan es
    | Check.Cmp _ | Check.Func _ | Check.Not _ ->
        Some { new_program = prog; added = [] }
    | Check.Conn _ | Check.Path _ | Check.Coconn _ | Check.Copath _ ->
        (* topological statements would need edge rewiring; out of the
           currently supported mutation space *)
        None
  in
  plan target.Check.stmt

(* ------------------------------------------------------------------ *)
(* CSP assembly                                                        *)
(* ------------------------------------------------------------------ *)


(* slots referenced by a check within a program *)
let slots_of_check prog (check : Check.t) =
  let endpoints = Check.attrs_of_expr check.Check.cond @ Check.attrs_of_expr check.Check.stmt in
  List.concat_map
    (fun (e : Check.endpoint) ->
      match Check.binding_type check e.Check.var with
      | None -> []
      | Some ty ->
          let stripped = Check.strip_indices e.Check.attr in
          List.concat_map
            (fun r ->
              if not (String.equal r.Resource.rtype ty) then []
              else
                let rid = Resource.id r in
                (* indexed endpoint: one slot per element *)
                if String.contains e.Check.attr '[' then
                  match String.index_opt stripped '.' with
                  | Some i ->
                      let coll = String.sub stripped 0 i in
                      let sub =
                        String.sub stripped (i + 1) (String.length stripped - i - 1)
                      in
                      (match Resource.attr r coll with
                      | Some (Value.List items) ->
                          List.mapi (fun idx _ -> Elem (rid, coll, idx, sub)) items
                      | _ -> [])
                  | None -> []
                else [ Flat (rid, stripped) ])
            (Program.resources prog))
    endpoints

let relevant_check types (check : Check.t) =
  List.for_all
    (fun (b : Check.binding) -> List.mem b.Check.btype types)
    check.Check.bindings

(* Writing any of [values] into [slot] leaves the program's references,
   hence its graph's edges, as they were: the write rebuilds only the
   slot's top-level attribute (its collection element, for [Elem]), and
   neither that nor any written value holds a reference. *)
let write_keeps_edges prog slot values =
  let no_ref v = Value.refs v = [] in
  let rebuilt =
    match (slot, Program.find prog (slot_resource slot)) with
    | _, None -> Value.Null
    | Flat (_, path), Some r -> (
        match String.split_on_char '.' path with
        | seg :: _ -> Option.value ~default:Value.Null (Resource.attr r seg)
        | [] -> Value.Null)
    | Elem (_, coll, i, _), Some r -> (
        match Resource.attr r coll with
        | Some (Value.List items) when i < List.length items -> List.nth items i
        | _ -> Value.Null)
  in
  no_ref rebuilt && List.for_all no_ref values

let dedup_slots slots =
  List.fold_left (fun acc s -> if List.mem s acc then acc else acc @ [ s ]) [] slots

let negative ?(options = default_options) ~provider ~kb ~donors ~target ~hard
    ~soft tp =
  let defaults = Arm.defaults provider in
  reset_fresh ();
  match plan_additions ~provider ~kb ~donors tp target with
  | None -> None
  | Some { new_program = base; added } -> (
      let types = Program.types base in
      let hard = List.filter (relevant_check types) hard in
      let soft = List.filter (relevant_check types) soft in
      (* Bound the soft encoding: beyond a few dozen checks the solver
         spends its budget scoring rather than searching. Checks that
         constrain the freshly-added resources come first — they are the
         ones the mutation is most likely to trip. *)
      let added_types =
        List.sort_uniq String.compare
          (List.map (fun (id : Resource.id) -> id.Resource.rtype) added)
      in
      let binds_added (c : Check.t) =
        List.exists
          (fun (b : Check.binding) -> List.mem b.Check.btype added_types)
          c.Check.bindings
      in
      let soft =
        List.stable_sort
          (fun c1 c2 ->
            Int.compare
              (if binds_added c1 then 0 else 1)
              (if binds_added c2 then 0 else 1))
          soft
      in
      let soft = List.filteri (fun i _ -> i < 30) soft in
      let hard =
        List.stable_sort
          (fun c1 c2 ->
            Int.compare
              (if binds_added c1 then 0 else 1)
              (if binds_added c2 then 0 else 1))
          hard
      in
      let hard = List.filteri (fun i _ -> i < 40) hard in
      (* The mutation search space always spans the attributes the known
         checks talk about; the consider_others ablation only drops the
         corresponding constraints, leaving the solver free to wander. *)
      let all_checks = (target :: hard) @ soft in
      let slots = dedup_slots (List.concat_map (slots_of_check base) all_checks) in
      let hard = if options.consider_others then hard else [] in
      let soft = if options.consider_others then soft else [] in
      (* never mutate resources of unattended types *)
      let slots =
        List.filter
          (fun s ->
            provider.Provider.find_schema (slot_resource s).Resource.rtype
            <> None)
          slots
      in
      if slots = [] then None
      else begin
        let problem = Csp.create () in
        let target_slots = dedup_slots (slots_of_check base target) in
        let vars =
          List.map
            (fun slot ->
              let dom = slot_domain provider kb all_checks base slot in
              (* without change minimization the original value loses its
                 head-of-domain advantage: the solver takes whatever
                 comes first (Table 5's "no constraints" ablation) *)
              let dom =
                if options.minimize_changes then dom
                else
                  match dom with
                  | original :: rest -> rest @ [ original ]
                  | [] -> dom
              in
              let var = Csp.new_var problem ~name:(slot_name slot) dom in
              if List.mem slot target_slots then Csp.set_priority problem var 0;
              (slot, var))
            slots
        in
        let originals = List.map (fun slot -> (slot, read_slot base slot)) slots in
        if options.minimize_changes then
          List.iter
            (fun (slot, var) ->
              let original = read_slot base slot in
              let is_added =
                List.exists (Resource.equal_id (slot_resource slot)) added
              in
              Csp.set_value_cost problem var (fun v ->
                  if Value.equal v original then 0
                  else if is_added then 1
                  else
                    (* prefer minimal distance for ordered values *)
                    match (original, v) with
                    | Value.Int a, Value.Int b -> 1 + min 3 (abs (a - b))
                    | Value.Str a, Value.Str b -> (
                        match (Cidr.of_string a, Cidr.of_string b) with
                        | Some ca, Some cb ->
                            if Cidr.equal (Cidr.adjacent ca) cb then 1 else 2
                        | _ -> 2)
                    | _ -> 2))
            vars;
        (* A check only depends on the slots in its own scope, so each
           constraint materializes just those slots over the base
           program; unassigned slots keep their original values. *)
        let scoped_slots check =
          let check_slots = dedup_slots (slots_of_check base check) in
          List.filter_map
            (fun slot ->
              Option.map (fun var -> (slot, var)) (List.assoc_opt slot vars))
            check_slots
        in
        (* The solver memoizes each verdict per scope tuple, so a
           predicate runs once per tuple: it writes its scoped slots and
           evaluates the compiled check. When no write can touch a
           reference, the base graph's edges serve the written program. *)
        let base_graph = Graph.build base in
        let add_constraint ~hard:is_hard name check ~negate =
          let scoped = scoped_slots check in
          let scope = List.map snd scoped in
          let compiled = Eval.compile check in
          let keeps_edges =
            List.for_all
              (fun (slot, var) -> write_keeps_edges base slot (Csp.domain problem var))
              scoped
          in
          let pred lookup =
            let prog =
              List.fold_left
                (fun prog (slot, var) -> write_slot prog slot (lookup var))
                base scoped
            in
            let graph =
              if keeps_edges then Graph.with_program base_graph prog else Graph.build prog
            in
            Eval.holds_compiled ~defaults graph compiled <> negate
          in
          if is_hard then Csp.add_hard problem ~name scope pred
          else Csp.add_soft problem ~name ~weight:10 scope pred
        in
        add_constraint ~hard:true "target-violated" target ~negate:true;
        List.iter
          (fun h -> add_constraint ~hard:true ("hard:" ^ h.Check.cid) h ~negate:false)
          hard;
        List.iter
          (fun s -> add_constraint ~hard:false ("soft:" ^ s.Check.cid) s ~negate:false)
          soft;
        match Csp.solve ~node_budget:6_000 ~good_enough:6 problem with
        | None -> None
        | Some solution ->
            let final =
              List.fold_left
                (fun prog (slot, var) -> write_slot prog slot (Csp.value solution var))
                base vars
            in
            let final_graph = Graph.build final in
            let violated_soft =
              List.filter_map
                (fun s ->
                  if Eval.holds ~defaults final_graph s then None
                  else Some s.Check.cid)
                soft
            in
            let attr_changes =
              List.fold_left
                (fun acc (slot, original) ->
                  let is_added =
                    List.exists (Resource.equal_id (slot_resource slot)) added
                  in
                  if is_added then acc
                  else if Value.equal (read_slot final slot) original then acc
                  else acc + 1)
                0 originals
            in
            Some
              {
                program = final;
                violated_soft;
                attr_changes;
                topo_changes = List.length added;
              }
      end)
