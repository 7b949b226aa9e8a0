(** Checkpointed folds over fixed-size shards of an indexed corpus.

    The streaming counterpart of the warm-start cache: instead of
    materializing all [total] items and counting them in one pass, a
    stream loads items shard by shard ([load ~lo ~hi]), counts each
    shard into a mergeable monoid value ([count]), folds the per-shard
    values in shard order ([merge]) and drops the shard before loading
    the next one — peak memory is one shard of items plus the
    accumulated tables, independent of [total].

    Every completed shard's counted value checkpoints through {!Cache}
    under a key derived from [(key, lo, hi)], so a killed run resumes
    from the last finished shard: on the next run, checkpointed shards
    are loaded (never re-generated, never re-counted) and only the
    unfinished ones are rebuilt. A corrupted or stale checkpoint reads
    back as a miss and that shard is rebuilt — the PR-3 corruption
    guarantee, per shard.

    Correctness contract: [merge] must be an exact monoid over
    contiguous groupings — [fold] with any [shard_size] (and any mix of
    resumed and rebuilt shards) produces a result equal to counting all
    items at once. All the Zodiac counting tables (KB stats, miner
    intra/indexed/pair/num-range/inter families) satisfy this by
    integer addition, (min, max, sum) or (max, sum) merges. *)

type outcome = {
  shards : int;  (** shards in the plan *)
  resumed : int;  (** loaded from a checkpoint, not re-counted *)
  built : int;  (** loaded, counted and checkpointed this run *)
}

val no_shards : outcome
(** [{ shards = 0; resumed = 0; built = 0 }] — the outcome of a fold
    that never ran (e.g. its downstream artifact was already cached). *)

val plan : total:int -> shard_size:int -> (int * int * int) list
(** [(index, lo, hi)] triples covering [0, total) in order, each
    spanning at most [shard_size] items ([shard_size <= 0] is treated
    as one single shard; [total <= 0] yields an empty plan). *)

val shard_key : key:string -> lo:int -> hi:int -> string
(** The checkpoint cache key of the shard [\[lo, hi)] under the
    stream-wide [key] — exposed so tests and benches can address
    individual checkpoint entries. *)

val claim_name : stage:string -> key:string -> lo:int -> hi:int -> string
(** The {!Cache.try_claim} name a worker uses for the shard
    [\[lo, hi)] of [(stage, key)] — exposed so tests and benches can
    plant or inspect claims. *)

val fold :
  ?cache:Cache.t ->
  ?telemetry:Telemetry.t ->
  ?on_shard:(index:int -> shards:int -> built:bool -> unit) ->
  ?checkpoint:bool ->
  stage:string ->
  key:string ->
  write:(Codec.sink -> 'b -> unit) ->
  read:(Codec.src -> 'b) ->
  load:(lo:int -> hi:int -> 'a) ->
  count:('a -> 'b) ->
  merge:('acc -> 'b -> 'acc) ->
  init:'acc ->
  total:int ->
  shard_size:int ->
  unit ->
  'acc * outcome
(** Fold the shard plan. Per shard: probe the checkpoint
    [(stage, shard_key ~key ~lo ~hi)] — on a hit merge the stored
    value, otherwise [load], [count], checkpoint and merge. [key] must
    fingerprint everything a shard's counted value depends on besides
    its own [\[lo, hi)] range (corpus identity, counting configuration,
    any whole-corpus context such as a finalized KB).

    [telemetry] receives the [shard.*] counters ([shard.total],
    [shard.resumed], [shard.built], [shard.items] — items loaded for
    rebuilt shards) inside a [shard.fold] span. Without a [cache] the
    fold still streams (bounded memory) but nothing checkpoints.
    [on_shard] fires after each shard merges (with [built = false] for
    a checkpoint resume) — a progress hook, never part of results.

    [checkpoint] (default [true]) stores each rebuilt shard. With
    [false] existing checkpoints are still resumed but none is written:
    for a caller that stores the folded result itself, where a
    one-shard plan's checkpoint would be a second copy of it. *)

type worker_outcome = {
  w_claimed : int;  (** shards this worker won a claim for *)
  w_built : int;  (** shards it actually counted and checkpointed *)
  w_stolen : int;  (** claims taken over from a stale holder *)
  w_waits : int;  (** poll sleeps spent waiting on siblings *)
}

val fold_worker :
  cache:Cache.t ->
  ?telemetry:Telemetry.t ->
  ?stale_after:float ->
  ?poll_interval:float ->
  stage:string ->
  key:string ->
  write:(Codec.sink -> 'b -> unit) ->
  load:(lo:int -> hi:int -> 'a) ->
  count:('a -> 'b) ->
  total:int ->
  shard_size:int ->
  unit ->
  worker_outcome
(** The multi-process side of the stream: race cooperating processes
    to checkpoint every shard of the plan, without merging anything.
    Per sweep, each shard that has no checkpoint yet is claimed through
    {!Cache.try_claim} under {!claim_name} (with [stale_after] passed
    through, so a [kill -9]'d sibling's claims are taken over once they
    age past it); a won claim re-probes the checkpoint, then loads,
    counts and stores it, and is always released. When some shards are
    still held by live siblings the worker sleeps [poll_interval]
    seconds (default 0.05) between sweeps; it returns once every shard
    in the plan is checkpointed.

    Exactly-once when no claim goes stale: the [O_CREAT|O_EXCL] create
    admits one builder per shard. After a stale takeover the work may
    be duplicated — never diverging, since checkpoint bytes are a
    deterministic function of the shard and stores are atomic.

    The caller (the parent orchestration) must still run {!fold} to
    merge the checkpoints — that fold is the merge pass, and rebuilds
    inline any shard no worker finished, so completion never depends
    on worker survival.

    [telemetry] receives [mproc.claimed]/[mproc.built]/[mproc.stolen]/
    [mproc.waits] and [shard.items] inside a [shard.worker] span. *)
