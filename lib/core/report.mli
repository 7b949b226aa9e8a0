(** Human-readable reporting over pipeline artifacts. *)

val mining_summary : Pipeline.artifacts -> string
(** The mining funnel: hypothesized, filtered, interpolated counts. *)

val validation_summary : Pipeline.artifacts -> string
(** Validated/falsified counts, per-iteration progress, deployments. *)

val category_breakdown : Zodiac_spec.Check.t list -> (string * int) list
(** Counts per check category (intra, inter w/o agg, ...). *)

val checks_listing : ?limit:int -> Zodiac_spec.Check.t list -> string
(** Pretty-printed checks, one per line. *)

val stats_section : ?telemetry:Zodiac_util.Telemetry.t -> Pipeline.artifacts -> string
(** The "Run statistics" section: cache accounting, the per-stage
    telemetry table (when a recorder with spans is given), the engine
    summary and — on Linux — the process's peak RSS. Always rendered by
    {!full} — statistics are no longer gated behind [--verbose]. The
    RSS probe runs at render time only; it never enters telemetry
    counters or artifacts. *)

val streamed_summary : Pipeline.streamed -> string
(** The streamed-mining funnel: shard/resume accounting per pass, the
    mining funnel counts, cache accounting and peak RSS. *)

val full : ?telemetry:Zodiac_util.Telemetry.t -> Pipeline.artifacts -> string
