module Value = Zodiac_iac.Value

type var = int

type constraint_ = {
  cname : string;
  scope : var list;
  pred : (var -> Value.t) -> bool;
  weight : int option;  (* None = hard *)
}

type problem = {
  mutable domains : Value.t array array;  (* var -> candidate values *)
  mutable names : string array;
  mutable value_costs : (Value.t -> int) array;
  mutable priorities : int array;  (* lower = assigned earlier *)
  mutable nvars : int;
  mutable constraints : constraint_ list;
  mutable nodes : int;
}

let initial_capacity = 16

let create () =
  {
    domains = Array.make initial_capacity [||];
    names = Array.make initial_capacity "";
    value_costs = Array.make initial_capacity (fun _ -> 0);
    priorities = Array.make initial_capacity 1;
    nvars = 0;
    constraints = [];
    nodes = 0;
  }

let ensure_capacity p =
  if p.nvars >= Array.length p.domains then begin
    let n = 2 * Array.length p.domains in
    let grow a fill =
      let b = Array.make n fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    p.domains <- grow p.domains [||];
    p.names <- grow p.names "";
    p.value_costs <- grow p.value_costs (fun _ -> 0);
    p.priorities <- grow p.priorities 1
  end

let new_var p ~name values =
  if values = [] then invalid_arg (Printf.sprintf "Csp.new_var %s: empty domain" name);
  ensure_capacity p;
  let v = p.nvars in
  p.domains.(v) <- Array.of_list values;
  p.names.(v) <- name;
  p.nvars <- p.nvars + 1;
  v

let var_name p v = p.names.(v)

let domain p v = Array.to_list p.domains.(v)

let set_value_cost p v cost = p.value_costs.(v) <- cost

let set_priority p v priority = p.priorities.(v) <- priority

let add_hard p ~name scope pred =
  p.constraints <- { cname = name; scope; pred; weight = None } :: p.constraints

let add_soft p ~name ~weight scope pred =
  p.constraints <- { cname = name; scope; pred; weight = Some weight } :: p.constraints

type solution = {
  values : Value.t array;
  total_cost : int;
  violated : string list;
}

let value s v = s.values.(v)
let cost s = s.total_cost
let violated_soft s = s.violated

exception Good_enough

(* Index tuples hashed over every position ([Hashtbl.hash] reads only
   the first ten, so long tuples differing further on would collide). *)
module Tuple_table = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )
  let hash = Array.fold_left (fun h i -> (h * 31) + i) 0
end)

(* A constraint's verdict per tuple of its scope's domain indices,
   keyed by the tuple read as a mixed-radix integer; a tuple space too
   large for an int is keyed by the index tuple itself. *)
type memo = Radix of (int, bool) Hashtbl.t | Tuple of bool Tuple_table.t

type scoped = {
  c : constraint_;
  vars : var array;  (* distinct scope variables, first occurrence order *)
  memo : memo;
  mutable verdict : bool;  (* last decided verdict on the current path *)
}

let solve ?(node_budget = 200_000) ?(good_enough = min_int) p =
  p.nodes <- 0;
  let n = p.nvars in
  let assignment = Array.make (max n 1) Value.Null in
  let index = Array.make (max n 1) 0 in
  let lookup v = assignment.(v) in
  (* Variable order is static: the assigned set at depth d is always
     the first d variables by (priority, domain size, index). *)
  let order =
    List.init n Fun.id
    |> List.stable_sort (fun a b ->
           compare
             (p.priorities.(a), Array.length p.domains.(a))
             (p.priorities.(b), Array.length p.domains.(b)))
    |> Array.of_list
  in
  let depth_of = Array.make (max n 1) 0 in
  Array.iteri (fun d v -> depth_of.(v) <- d) order;
  (* Values cheapest first, each with its domain index. *)
  let values =
    Array.init n (fun v ->
        Array.to_list p.domains.(v)
        |> List.mapi (fun i value -> (p.value_costs.(v) value, value, i))
        |> List.stable_sort (fun (c1, _, _) (c2, _, _) -> Int.compare c1 c2)
        |> Array.of_list)
  in
  let scoped c =
    let vars =
      List.fold_left (fun acc v -> if List.mem v acc then acc else v :: acc) [] c.scope
      |> List.rev |> Array.of_list
    in
    let fits =
      Array.fold_left
        (fun acc v ->
          let size = Array.length p.domains.(v) in
          if acc < 0 || acc > max_int / size then -1 else acc * size)
        1 vars
      >= 0
    in
    let memo = if fits then Radix (Hashtbl.create 16) else Tuple (Tuple_table.create 16) in
    { c; vars; memo; verdict = true }
  in
  let memoized find add table key s =
    match find table key with
    | ok -> ok
    | exception Not_found ->
        let ok = s.c.pred lookup in
        add table key ok;
        ok
  in
  let decide s =
    match s.memo with
    | Radix table ->
        memoized Hashtbl.find Hashtbl.add table
          (Array.fold_left
             (fun acc v -> (acc * Array.length p.domains.(v)) + index.(v))
             0 s.vars)
          s
    | Tuple table ->
        memoized Tuple_table.find Tuple_table.add table
          (Array.map (fun v -> index.(v)) s.vars)
          s
  in
  let constraints = List.rev_map scoped p.constraints in
  (* A constraint is decided at the depth of its deepest scope variable;
     a soft one is charged its weight once per occurrence of that
     variable in its scope. Empty-scope constraints are decided at
     complete assignments only. *)
  let hard_at = Array.make (max n 1) [] in
  let soft_at = Array.make (max n 1) [] in
  let leaf_hard = ref [] in
  let nonneg = ref true in
  List.iter
    (fun s ->
      match s.c.scope with
      | [] -> if s.c.weight = None then leaf_hard := s :: !leaf_hard
      | scope -> (
          let d = Array.fold_left (fun acc v -> max acc depth_of.(v)) 0 s.vars in
          let last = order.(d) in
          let mult = List.length (List.filter (fun v -> v = last) scope) in
          match s.c.weight with
          | None -> hard_at.(d) <- s :: hard_at.(d)
          | Some w ->
              if w < 0 then nonneg := false;
              soft_at.(d) <- (s, w * mult) :: soft_at.(d)))
    constraints;
  let hard_at = Array.map (fun l -> Array.of_list (List.rev l)) hard_at in
  let soft_at = Array.map (fun l -> Array.of_list (List.rev l)) soft_at in
  let leaf_hard = List.rev !leaf_hard in
  let softs = List.filter (fun s -> s.c.weight <> None) constraints in
  let nonneg = !nonneg in
  let best : solution option ref = ref None in
  let best_cost = ref max_int in
  let leaf lower_bound =
    if List.for_all decide leaf_hard then begin
      let violated =
        List.filter_map
          (fun s ->
            let ok = if s.c.scope = [] then decide s else s.verdict in
            if ok then None else Some s.c.cname)
          softs
      in
      best := Some { values = Array.copy assignment; total_cost = lower_bound; violated };
      best_cost := lower_bound;
      if lower_bound <= good_enough then raise Good_enough
    end
  in
  let rec search depth lower_bound =
    if p.nodes < node_budget then begin
      p.nodes <- p.nodes + 1;
      if lower_bound < !best_cost then
        if depth = n then leaf lower_bound
        else begin
          let v = order.(depth) in
          let vals = values.(v) in
          let hard = hard_at.(depth) and soft = soft_at.(depth) in
          let k = ref 0 in
          (* once the budget is spent every further child is a no-op *)
          while !k < Array.length vals && p.nodes < node_budget do
            let vcost, value, i = vals.(!k) in
            assignment.(v) <- value;
            index.(v) <- i;
            if Array.for_all decide hard then begin
              let bound = lower_bound + vcost in
              (* with non-negative weights a child already at the best
                 cost prunes on entry, so its soft verdicts are unused *)
              if nonneg && bound >= !best_cost then search (depth + 1) bound
              else begin
                let penalty = ref 0 in
                Array.iter
                  (fun (s, w) ->
                    let ok = decide s in
                    s.verdict <- ok;
                    if not ok then penalty := !penalty + w)
                  soft;
                search (depth + 1) (bound + !penalty)
              end
            end;
            incr k
          done
        end
    end
  in
  (try search 0 0 with Good_enough -> ());
  !best

let stats_nodes p = p.nodes
