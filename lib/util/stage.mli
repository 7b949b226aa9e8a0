(** First-class pipeline stages.

    A {!t} bundles what a cacheable Figure-2 stage {e is} — a name, the
    cache address and codec of its artifact, and a build function — and
    {!run} applies every cross-cutting concern uniformly: warm-cache
    lookup/write, job-count plumbing and a {!Telemetry} span with
    cache/parallel counters.

    {b Determinism.} [run] returns either the build's value or a cached
    artifact decoded from a sealed {!Codec} envelope; the two are
    byte-identical because the address fingerprints every input the
    artifact depends on. Telemetry observes; it never alters the
    artifact. *)

type 'a artifact = {
  write : Codec.sink -> 'a -> unit;
  read : Codec.src -> 'a;
}
(** A codec pair for the stage's output. The [read]er may raise
    {!Codec.Corrupt}; {!Cache.find} turns that into a miss. *)

type 'a t = {
  name : string;
      (** Cache stage namespace and telemetry span name; one of the
          Figure-2 stage names in the pipeline. *)
  key : string;
      (** A {!Codec.fingerprint} of every input the artifact depends
          on. *)
  size : int option;  (** Joins the cache address when present. *)
  artifact : 'a artifact;
  build : cache:Cache.t option -> telemetry:Telemetry.t -> jobs:int -> 'a;
      (** The cold path. It receives the runner's cache and telemetry
          so a build that folds shards ({!Shard_stream.fold}) can
          checkpoint each one under its own stage namespace and resume
          from them; it must also work with [cache = None]. *)
}

val run : ?cache:Cache.t -> ?telemetry:Telemetry.t -> ?jobs:int -> 'a t -> 'a
(** Execute the stage: an exact entry at [(name, key, size?)] loads
    directly; otherwise [build] runs and its value is stored there.
    Inside a telemetry span named [t.name] the runner records:
    - note ["jobs"]: the resolved job count handed to [build];
    - note ["source"]: where the artifact came from — ["uncached"]
      (no cache), ["warm"] (exact cache hit) or ["cold"] (built);
    - counters [cache.hits]/[cache.misses]/[cache.writes]: this
      stage's {!Cache.stats} delta, including the build's own
      checkpoint probes and writes;
    - counter [parallel.chunks]: the {!Parallel.chunks_scheduled}
      delta — scheduling metadata that varies with hardware, excluded
      from determinism comparisons.

    Without [?jobs] the build runs with {!Parallel.recommended_jobs}. *)
