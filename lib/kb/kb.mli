(** The semantic knowledge base (§3.1).

    Holds the three classes of base facts that bootstrap check mining:

    - {b Class 1 — IaC native constraints}: requirement class and type
      of every attribute, read from the provider schema files
      (here: the Azure catalogue).
    - {b Class 2 — provider-specific constraints}: enum-like value
      sets, CIDR/port formats, defaults, and reserved names, mined from
      attribute usage across the crawled corpus (plus the schema's
      declared enums).
    - {b Class 3 — resource references}: which attribute endpoints
      legally connect to which resource attributes, harvested from the
      reference patterns observed in registry examples and user
      repositories.

    The KB is the search-space regulator of Figure 7a: templates only
    instantiate enum comparisons on Class-2 enum attributes and
    connection patterns on Class-3 edges. *)

type attr_info = {
  rtype : string;
  attr : string;  (** dotted path without index markers *)
  requirement : Zodiac_iac.Schema.requirement option;  (** Class 1 *)
  format : Zodiac_iac.Schema.format;  (** declared or inferred *)
  observed : (Zodiac_iac.Value.t * int) list;
      (** distinct observed values with counts, most frequent first
          (ties broken by {!Zodiac_iac.Value.compare}). At most
          {!max_observed_values} entries — see the bounded-table note
          there. *)
  observed_index : (Zodiac_iac.Value.t, int) Hashtbl.t;
      (** the same counts as [observed], keyed for O(1) probes — the
          miner's priors hit this in nested loops, so a list scan here
          is quadratic. Treat as read-only. *)
  observed_total : int;
      (** sum of all observation counts (cached denominator) *)
  enum_values : Zodiac_iac.Value.t list;
      (** Class 2: values usable on the right of an [==] (empty when
          the attribute is not enum-like) *)
  default : Zodiac_iac.Value.t option;
  occurrences : int;  (** resources in the corpus carrying the attr *)
}

type conn_kind = {
  src_type : string;
  src_attr : string;  (** inbound endpoint path *)
  dst_type : string;
  dst_attr : string;  (** outbound endpoint path *)
  count : int;  (** occurrences across the corpus *)
}

type t

val build :
  provider:Zodiac_provider.Provider.t ->
  ?jobs:int ->
  projects:Zodiac_iac.Program.t list ->
  unit ->
  t
(** Construct the KB from provider schemas plus a corpus. The corpus is
    split into contiguous shards, per-shard statistics are gathered on up
    to [jobs] domains (default: recommended domain count), and shard
    tables are merged in shard order; all derived orderings are canonical,
    so the result is identical for every [jobs] value.
    [build ~projects () = finalize (stats_of_projects projects)]. *)

val max_observed_values : int
(** Observation tables are bounded: each (type, attribute) tracks at
    most this many distinct values — the canonically smallest by
    {!Zodiac_iac.Value.compare} — plus an exact residue (evicted count
    mass and its CIDR-ness), so the KB's footprint stays flat however
    large the corpus grows. The cap is grouping-invariant: a value in
    the cap-smallest of the whole corpus is in the cap-smallest of
    every sub-table containing it, so kept counts are exact sums under
    any sharding and [stats] keeps its monoid contract. Attributes
    whose distinct-value count stays under the cap (every real
    vocabulary, and every generated corpus up to ~2000 projects) are
    byte-identical to the unbounded semantics; [observed_total],
    presence and connection counts are exact always. *)

type stats
(** Raw monoid count tables over a corpus slice — the unit of
    sharded KB construction. Merging is exact integer addition and
    associative over any contiguous grouping, so
    [finalize (merge_stats (stats_of_projects a) (stats_of_projects b))]
    is identical to [finalize (stats_of_projects (a @ b))] — the
    property the KB pass relies on to fold checkpointed shards. *)

val stats_of_projects : ?jobs:int -> Zodiac_iac.Program.t list -> stats

val merge_stats : stats -> stats -> stats
(** [merge_stats dst src] adds [src]'s counts into [dst] (mutating it)
    and returns [dst]. [src] is unchanged. *)

val finalize : provider:Zodiac_provider.Provider.t -> stats -> t
(** Fold schema facts with the counted observations and derive the
    canonical KB (sorted observation lists, enum/CIDR inference,
    connection kinds). The stats tables are captured by the result —
    do not merge into them afterwards. *)

val write_stats : Zodiac_util.Codec.sink -> stats -> unit
(** Binary codec for the warm-start cache. Rows are written in sorted
    key order, so equal stats serialize to equal bytes. *)

val read_stats : Zodiac_util.Codec.src -> stats
(** @raise Zodiac_util.Codec.Corrupt on malformed input. *)

val stats_artifact : stats Zodiac_util.Stage.artifact
(** The KB stage's cache binding ({!write_stats}/{!read_stats}) for
    {!Zodiac_util.Stage.run}; the runner caches raw monoid stats and
    the pipeline applies {!finalize} to whatever comes back. *)

val attr_info : t -> rtype:string -> attr:string -> attr_info option

val population : t -> string -> int
(** Number of corpus resources of the given type. *)

val attrs_of_type : t -> string -> attr_info list
(** All attributes observed or declared for a type. *)

val enum_values : t -> rtype:string -> attr:string -> Zodiac_iac.Value.t list
val conn_kinds : t -> conn_kind list
val conn_kinds_from : t -> string -> conn_kind list
(** Connection kinds whose source is the given type. *)

val legal_targets : t -> src_type:string -> src_attr:string -> (string * string) list
(** Class 3: legal (dst type, dst attr) targets of an endpoint. *)

val cidr_attrs : t -> string -> string list
(** Attribute paths of a type holding CIDR values. *)

val numeric_attrs : t -> string -> string list

val defaults : Zodiac_provider.Provider.t -> Zodiac_spec.Eval.defaults
(** Class 2 defaults (delegates to the provider schema). *)

val types : t -> string list
(** Types known to the KB (union of catalogue and corpus). *)

val size : t -> int
(** Number of attribute entries. *)
