(** A finite-domain constraint solver with soft constraints and
    branch-and-bound minimization — Zodiac's stand-in for Z3's MaxSMT.

    The mutation search space of §4.1 is finite: enum attributes range
    over their legal values, locations over the region list, CIDRs over
    a candidate block set, optional virtual resources over
    included/excluded. Negative-test-case generation therefore reduces
    to a weighted Max-CSP: hard constraints encode the semantic KB and
    the checks that must stay satisfied, soft constraints encode the
    checks in [R_c] that may be collaterally violated, and per-value
    costs implement change minimization (prefer the original value).

    Constraints are predicates over declared variable scopes. The
    solver runs a depth-first branch-and-bound search in a fixed
    variable order (priority class, then smallest domain, then lowest
    index), trying each variable's values cheapest first. A constraint
    is decided once, at the depth of the last of its scope variables
    in that order: a violated hard constraint prunes the branch, a
    violated soft one adds its weight (once per occurrence of that
    variable in the scope) to the lower bound, and a branch whose
    bound reaches the best cost found so far is cut. Constraints with
    an empty scope are decided at complete assignments only. There is
    no propagation to unassigned variables.

    {b Predicate contract.} A predicate may read only the variables of
    its own scope, and must be a pure function of their values. The
    solver memoizes each verdict per tuple of scope values, so a
    predicate runs at most once per scope tuple per {!solve}. *)

type problem
type var

val create : unit -> problem

val new_var : problem -> name:string -> Zodiac_iac.Value.t list -> var
(** A decision variable with a non-empty finite domain. *)

val var_name : problem -> var -> string
val domain : problem -> var -> Zodiac_iac.Value.t list

val set_value_cost :
  problem -> var -> (Zodiac_iac.Value.t -> int) -> unit
(** Cost charged when the variable takes a value (0 by default). Used
    to prefer original attribute values and minimal mutations. *)

val set_priority : problem -> var -> int -> unit
(** Variable-ordering class (default 1; lower assigned first). The
    mutation engine assigns the target check's slots priority 0 so the
    violation is decided at the top of the search tree. *)

val add_hard :
  problem -> name:string -> var list -> ((var -> Zodiac_iac.Value.t) -> bool) -> unit
(** A hard constraint over the given scope. The predicate is consulted
    once every scope variable is assigned, and only with lookups of
    scope variables (see the predicate contract above). *)

val add_soft :
  problem ->
  name:string ->
  weight:int ->
  var list ->
  ((var -> Zodiac_iac.Value.t) -> bool) ->
  unit
(** A soft constraint: violation adds [weight] to the objective. *)

type solution

val value : solution -> var -> Zodiac_iac.Value.t
val cost : solution -> int
(** Total penalty: value costs plus violated soft-constraint weights. *)

val violated_soft : solution -> string list
(** Names of soft constraints violated by the solution. *)

val solve : ?node_budget:int -> ?good_enough:int -> problem -> solution option
(** Minimize the objective subject to the hard constraints. [None]
    means UNSAT (or budget exhausted with no feasible assignment;
    default budget 200_000 nodes). When a solution with cost at most
    [good_enough] is found, the search stops immediately — with
    cheapest-value-first ordering this yields near-minimal mutations at
    a fraction of the proof-of-optimality cost. Deterministic. *)

val stats_nodes : problem -> int
(** Search nodes explored by the last [solve] call. *)
