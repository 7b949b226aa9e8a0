(** Solver-aided negative test case generation (§4.1).

    Starting from a positive test case, the mutation engine encodes a
    finite search space over the attributes relevant to the target
    check and every other known check, plus — for aggregation targets —
    duplicated or donor-instantiated "virtual" resources that raise a
    degree past its hypothesized bound. A Max-CSP solve then finds the
    cheapest mutation that

    - violates the target check (hard),
    - keeps every check in [hard] satisfied (hard — the validated set
      [R_v] plus KB well-formedness, which is built into the domains),
    - minimizes violations of the [soft] checks (the rest of [R_c]) and
      the distance from the original program.

    [None] means UNSAT: no negative test case exists without breaking
    a hard check — the signal used by the scheduler's false-positive
    and indistinguishability logic.

    For tractability the encodings are bounded: only checks relevant to
    the test case's resource types are encoded, prioritized by whether
    they constrain freshly-added resources, and capped (40 hard / 30
    soft). The final test case is always re-validated against the full
    sets by the caller, so the caps trade completeness of the UNSAT
    signal for speed, never soundness of a produced case. *)

type options = {
  consider_others : bool;
      (** encode [hard]/[soft] checks at all (Table 5 ablation) *)
  minimize_changes : bool;
      (** prefer original values and minimal distance (Table 5 ablation) *)
}

val default_options : options

type result = {
  program : Zodiac_iac.Program.t;  (** the negative test case [t_n] *)
  violated_soft : string list;  (** cids of soft checks violated *)
  attr_changes : int;  (** mutated attributes on original resources *)
  topo_changes : int;  (** virtual resources added *)
}

val negative :
  ?options:options ->
  provider:Zodiac_provider.Provider.t ->
  kb:Zodiac_kb.Kb.t ->
  donors:(string * Zodiac_iac.Program.t) list ->
  target:Zodiac_spec.Check.t ->
  hard:Zodiac_spec.Check.t list ->
  soft:Zodiac_spec.Check.t list ->
  Testcase.tp ->
  result option

(** {2 Slot writes}

    A slot is one mutable position of a program. The solver's
    predicates write their slots into the base program and, when
    {!write_keeps_edges} admits every value they can write, evaluate on
    the base graph's edges instead of rebuilding the graph. Exposed for
    the equivalence tests. *)

type slot =
  | Flat of Zodiac_iac.Resource.id * string  (** a dotted attribute path *)
  | Elem of Zodiac_iac.Resource.id * string * int * string
      (** [Elem (r, coll, i, sub)]: field [sub] of element [i] of the
          repeated block [coll] *)

val write_slot : Zodiac_iac.Program.t -> slot -> Zodiac_iac.Value.t -> Zodiac_iac.Program.t

val write_keeps_edges : Zodiac_iac.Program.t -> slot -> Zodiac_iac.Value.t list -> bool
(** Writing any of the values into the slot leaves the program's
    references, hence [Graph.edges], unchanged: neither the values nor
    the part of the resource the write rebuilds (the slot's top-level
    attribute; for [Elem], the collection element) holds a reference. *)
