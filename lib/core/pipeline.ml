module Provider = Zodiac_provider.Provider
module Providers = Zodiac_providers.Providers
module Generator = Zodiac_corpus.Generator
module Kb = Zodiac_kb.Kb
module Miner = Zodiac_mining.Miner
module Filter = Zodiac_mining.Filter
module Candidate = Zodiac_mining.Candidate
module Llm = Zodiac_oracle.Llm
module Scheduler = Zodiac_validation.Scheduler
module Arm = Zodiac_cloud.Arm
module Engine = Zodiac_engine.Engine
module Engine_stats = Zodiac_engine.Stats
module Check = Zodiac_spec.Check
module Eval = Zodiac_spec.Eval
module Graph = Zodiac_iac.Graph
module Program = Zodiac_iac.Program
module Parallel = Zodiac_util.Parallel
module Cache = Zodiac_util.Cache
module Codec = Zodiac_util.Codec
module Stage = Zodiac_util.Stage
module Shard_stream = Zodiac_util.Shard_stream
module Telemetry = Zodiac_util.Telemetry

type config = {
  provider : Provider.t;
  corpus_seed : int;
  corpus_size : int;
  violation_rate : float;
  oracle_seed : int;
  oracle_error_rate : float;
  jobs : int;
  cache_dir : string option;
  mining : Miner.config;
  thresholds : Filter.thresholds;
  scheduler : Scheduler.config;
  engine : Engine.config;
}

let default_config =
  {
    provider = Providers.default;
    corpus_seed = 20240704;
    corpus_size = 1200;
    violation_rate = 0.04;
    oracle_seed = 91;
    oracle_error_rate = 0.05;
    jobs = Parallel.recommended_jobs ();
    cache_dir = None;
    mining = Miner.default_config;
    thresholds = Filter.default_thresholds;
    scheduler = Scheduler.default_config;
    engine = Engine.default_config;
  }

let quick_config = { default_config with corpus_size = 300 }

type artifacts = {
  config : config;
  projects : Generator.project list;
  corpus : (string * Program.t) list;
  kb : Kb.t;
  mined : Candidate.t list;
  filtered : Filter.outcome;
  llm_refined : Check.t list;
  llm_rejected : int;
  candidates : Check.t list;
  validation : Scheduler.result;
  final_checks : Check.t list;
  counterexample_fps : Check.t list;
  engine_stats : Engine_stats.snapshot;
  cache_stats : Cache.stats;
}

let deploy ~provider prog = Arm.success (Arm.deploy ~provider prog)

let dedup_checks checks =
  let seen = Hashtbl.create 128 in
  List.filter
    (fun (c : Check.t) ->
      if Hashtbl.mem seen c.Check.cid then false
      else begin
        Hashtbl.replace seen c.Check.cid ();
        true
      end)
    checks

(* ---- staged execution ----------------------------------------------
   The cacheable Figure-2 artifacts (corpus, KB statistics, mined
   candidates) are [Stage.t]s run through [Stage.run], each keyed by a
   fingerprint of everything it depends on; the rest (materialize,
   filter, oracle, validate, counterexample) are plain telemetry spans.
   The runner applies warm-cache lookup/write, job plumbing and
   per-stage counters uniformly; artifacts are byte-identical for every
   [jobs] value and cold ≡ warm. *)

let cache_of config = Option.map (fun dir -> Cache.create ~dir ()) config.cache_dir

let zero_cache_stats =
  { Cache.hits = 0; misses = 0; writes = 0; write_failures = 0 }

let cache_stats_of = function
  | Some c -> Cache.stats c
  | None -> zero_cache_stats

let float_bits f = Int64.to_string (Int64.bits_of_float f)

(* Everything the corpus content depends on except its size ([jobs] is
   artifact-invariant by the Parallel contract). *)
let corpus_key config =
  Codec.fingerprint
    [
      "corpus";
      Provider.fingerprint config.provider;
      string_of_int config.corpus_seed;
      float_bits config.violation_rate;
    ]

(* The materialized-corpus identity: corpus content key plus size. *)
let tables_key config =
  Codec.fingerprint [ corpus_key config; string_of_int config.corpus_size ]

(* The mined-candidate-set address. *)
let mine_key config =
  Codec.fingerprint
    [
      tables_key config;
      string_of_bool config.mining.Miner.use_kb;
      string_of_int config.mining.Miner.min_support;
    ]

(* Miner-table checkpoints additionally key on the whole-corpus
   identity (the KB the counts consult) and [use_kb] — but not
   [min_support], which only gates emission. *)
let shard_mine_key config =
  Codec.fingerprint
    [ tables_key config; string_of_bool config.mining.Miner.use_kb ]

(* A span that also accounts the Parallel chunks scheduled inside it,
   mirroring what [Stage.run] records for cached stages. *)
let spanned telemetry name f =
  Telemetry.with_span telemetry name (fun () ->
      let c0 = Parallel.chunks_scheduled () in
      let v = f () in
      Telemetry.count telemetry "parallel.chunks"
        (Parallel.chunks_scheduled () - c0);
      v)

(* Corpus generation, cached at its exact size. *)
let corpus_stage config =
  let n = config.corpus_size in
  {
    Stage.name = "corpus";
    key = corpus_key config;
    size = Some n;
    artifact = Generator.projects_artifact;
    build =
      (fun ~cache:_ ~telemetry:_ ~jobs:_ ->
        Generator.generate_range ~provider:config.provider
          ~violation_rate:config.violation_rate ~jobs:config.jobs
          ~seed:config.corpus_seed ~lo:0 ~hi:n ());
  }

let cached_corpus ?cache ?telemetry config =
  Stage.run ?cache ?telemetry ~jobs:config.jobs (corpus_stage config)

(* ---- the mining path -----------------------------------------------
   Two passes over one shard plan of the corpus, each a [Stage.run]
   whose build is a checkpointed [Shard_stream.fold]:

     "kb"    fold per-shard KB stats; finalize once at the end.
     "mine"  fold per-shard miner tables (intra + indexed + inter) with
             the finalized KB fixed — the inter family's reserved names
             are a pure function of that KB, so they cannot be derived
             mid-stream — then emit candidates once.

   Callers differ only in [load] and the shard size: [mine_only] and
   [run] hand over the corpus they already materialized as a single
   shard; [mine_streamed] generates and materializes each shard on
   demand, so peak memory is one shard plus the accumulated tables.
   Per-shard checkpoints live under their own stage namespaces
   ("shard-kb"/"shard-mine") keyed on corpus identity and range, never
   on [min_support]: a killed run resumes by re-counting only
   unfinished shards, and re-mining at another [min_support] counts
   nothing. A one-shard KB fold without a fleet writes no checkpoint:
   the final "kb" entry is the same statistics. The final artifacts
   are byte-identical for every shard size by the monoid contract, so
   every caller shares the "kb"/"mine" addresses. *)

type mproc = {
  m_workers : int;
  m_claimed : int;
  m_built : int;
  m_stolen : int;
  m_waits : int;
  m_failed : int;
}

let no_fleet =
  {
    m_workers = 0;
    m_claimed = 0;
    m_built = 0;
    m_stolen = 0;
    m_waits = 0;
    m_failed = 0;
  }

(* [Shard_stream.fold] with the first shard's counted value as the
   accumulator, so a one-shard plan merges (and copies) nothing. *)
let fold_shards ?cache ~telemetry ?on_shard ?checkpoint ~stage ~key ~write
    ~read ~load ~count ~merge ~total ~shard_size () =
  let acc, outcome =
    Shard_stream.fold ?cache ~telemetry ?on_shard ?checkpoint ~stage ~key
      ~write ~read ~load ~count
      ~merge:(fun acc v ->
        Some (match acc with None -> v | Some a -> merge a v))
      ~init:None ~total ~shard_size ()
  in
  ((match acc with Some a -> a | None -> count []), outcome)

(* Each pass returns its artifact, its fold accounting
   ([Shard_stream.no_shards] on a warm hit) and what [fleet] reported.
   [fleet] runs before the fold, so never on a warm hit. *)
let kb_pass ?cache ~telemetry ?fleet ?on_shard config ~load ~shard_size =
  let fold = ref Shard_stream.no_shards and mproc = ref no_fleet in
  let key = corpus_key config in
  let stats =
    Stage.run ?cache ~telemetry ~jobs:config.jobs
      {
        Stage.name = "kb";
        key;
        size = Some config.corpus_size;
        artifact = Kb.stats_artifact;
        build =
          (fun ~cache ~telemetry ~jobs ->
            (* The final "kb" entry stores the same statistics a
               one-shard plan's checkpoint would, so without a fleet
               (whose workers resume from checkpoints) that checkpoint
               is not written. *)
            let checkpoint =
              Option.is_some fleet
              || List.length
                   (Shard_stream.plan ~total:config.corpus_size ~shard_size)
                 > 1
            in
            Option.iter (fun fleet -> mproc := fleet ~telemetry) fleet;
            let stats, outcome =
              fold_shards ?cache ~telemetry ?on_shard ~checkpoint
                ~stage:"shard-kb" ~key ~write:Kb.write_stats
                ~read:Kb.read_stats ~load
                ~count:(Kb.stats_of_projects ~jobs) ~merge:Kb.merge_stats
                ~total:config.corpus_size ~shard_size ()
            in
            fold := outcome;
            stats);
      }
  in
  (Kb.finalize ~provider:config.provider stats, !fold, !mproc)

let mine_pass ?cache ~telemetry ?(fleet = fun ~telemetry:_ -> no_fleet)
    ?on_shard config kb ~load ~shard_size =
  let fold = ref Shard_stream.no_shards and mproc = ref no_fleet in
  let mined =
    Stage.run ?cache ~telemetry ~jobs:config.jobs
      {
        Stage.name = "mine";
        key = mine_key config;
        size = None;
        artifact = Candidate.list_artifact;
        build =
          (fun ~cache ~telemetry ~jobs ->
            mproc := fleet ~telemetry;
            let tables, outcome =
              fold_shards ?cache ~telemetry ?on_shard ~stage:"shard-mine"
                ~key:(shard_mine_key config) ~write:Miner.write_tables
                ~read:Miner.read_tables ~load
                ~count:
                  (Miner.count_tables ~provider:config.provider ~jobs
                     config.mining kb)
                ~merge:Miner.merge_tables ~total:config.corpus_size
                ~shard_size ()
            in
            fold := outcome;
            Miner.emit_tables config.mining kb tables);
      }
  in
  (mined, !fold, !mproc)

(* Filter + oracle over mined candidates. *)
let refine ?(telemetry = Telemetry.null) config mined =
  let filtered =
    spanned telemetry "filter" (fun () ->
        let f = Filter.run ~thresholds:config.thresholds mined in
        Telemetry.count telemetry "filter.kept" (List.length f.Filter.kept);
        Telemetry.count telemetry "filter.removed"
          (List.length f.Filter.removed_confidence
          + List.length f.Filter.removed_lift);
        Telemetry.count telemetry "filter.interpolation_queue"
          (List.length f.Filter.interpolation_queue);
        f)
  in
  let refined, rejected, candidates =
    spanned telemetry "oracle" (fun () ->
        let oracle =
          Llm.create ~provider:config.provider
            ~error_rate:config.oracle_error_rate config.oracle_seed
        in
        let refined, rejected =
          List.fold_left
            (fun (refined, rejected) candidate ->
              match Llm.interpolate oracle candidate with
              | Llm.Refined check -> (check :: refined, rejected)
              | Llm.Unsupported -> (refined, rejected + 1))
            ([], 0) filtered.Filter.interpolation_queue
        in
        let candidates =
          dedup_checks
            (List.map
               (fun c -> c.Candidate.check)
               filtered.Filter.kept
            @ List.rev refined)
        in
        Telemetry.count telemetry "oracle.refined" (List.length refined);
        Telemetry.count telemetry "oracle.rejected" rejected;
        Telemetry.count telemetry "oracle.candidates" (List.length candidates);
        (List.rev refined, rejected, candidates))
  in
  (filtered, refined, rejected, candidates)

(* Engine accounting attributed to the enclosing span as counter
   deltas, so validate and counterexample each report their own
   deployments/retries/faults in the trace. *)
let engine_delta telemetry engine f =
  let before = Engine_stats.counters (Engine.stats engine) in
  let v = f () in
  let after = Engine_stats.counters (Engine.stats engine) in
  List.iter2
    (fun (k, b) (k', a) ->
      assert (String.equal k k');
      Telemetry.count telemetry k (a - b))
    before after;
  v

let empty_validation =
  {
    Scheduler.validated = [];
    falsified = [];
    iterations = [];
    deployments = 0;
  }

let mine_only ?(config = default_config) ?telemetry () =
  let cache = cache_of config in
  let telemetry = Option.value telemetry ~default:Telemetry.null in
  let projects = cached_corpus ?cache ~telemetry config in
  let programs =
    spanned telemetry "materialize" (fun () ->
        let programs =
          Miner.materialize ~provider:config.provider ~jobs:config.jobs
            (List.map (fun p -> p.Generator.program) projects)
        in
        Telemetry.count telemetry "materialize.programs" (List.length programs);
        programs)
  in
  let corpus =
    List.map2 (fun p prog -> (p.Generator.pname, prog)) projects programs
  in
  (* The materialized corpus is already in memory: mine it as one
     shard of itself. *)
  let load ~lo ~hi = List.filteri (fun i _ -> lo <= i && i < hi) programs in
  let kb, _, _ = kb_pass ?cache ~telemetry config ~load ~shard_size:0 in
  let mined, _, _ = mine_pass ?cache ~telemetry config kb ~load ~shard_size:0 in
  let filtered, llm_refined, llm_rejected, candidates =
    refine ~telemetry config mined
  in
  {
    config;
    projects;
    corpus;
    kb;
    mined;
    filtered;
    llm_refined;
    llm_rejected;
    candidates;
    validation = empty_validation;
    final_checks = [];
    counterexample_fps = [];
    engine_stats = Engine_stats.empty;
    cache_stats = cache_stats_of cache;
  }

(* ---- streaming shard pipeline --------------------------------------
   The bounded-memory counterpart of [mine_only]: the same two passes,
   but each shard's projects are generated and materialized on demand
   and dropped once counted, so peak memory is one shard of programs
   plus the accumulated tables, independent of [corpus_size]. *)

type streamed = {
  s_config : config;
  s_shard_size : int;
  s_kb : Kb.t;
  s_mined : Candidate.t list;
  s_filtered : Filter.outcome;
  s_llm_refined : Check.t list;
  s_llm_rejected : int;
  s_candidates : Check.t list;
  s_kb_fold : Shard_stream.outcome;
  s_mine_fold : Shard_stream.outcome;
  s_kb_mproc : mproc;
  s_mine_mproc : mproc;
  s_cache_stats : Cache.stats;
}

(* One shard of projects, generated and materialized on demand. The
   per-index PRNG streams make a shard's content independent of every
   other shard, so a checkpointed shard stays valid as the corpus
   grows. *)
let shard_load config ~lo ~hi =
  Miner.materialize ~provider:config.provider ~jobs:config.jobs
    (List.map
       (fun p -> p.Generator.program)
       (Generator.generate_range ~provider:config.provider
          ~violation_rate:config.violation_rate ~jobs:config.jobs
          ~seed:config.corpus_seed ~lo ~hi ()))

(* ---- multi-process worker fleet ------------------------------------
   [mine --workers N] forks N children (a re-exec of the current
   binary in the hidden worker mode, argv supplied by the caller) per
   streamed pass. Children never merge and never talk to each other:
   they race to claim and checkpoint shards into the shared cache dir
   ({!Shard_stream.fold_worker}), print one summary line on stdout and
   exit. The parent then runs the ordinary resumed fold — the merge
   pass — which also rebuilds inline any shard a crashed worker left
   unfinished, so artifacts are byte-identical to [--workers 1]
   regardless of worker fates. *)

let worker_summary (o : Shard_stream.worker_outcome) =
  Printf.sprintf "mproc-worker claimed=%d built=%d stolen=%d waits=%d"
    o.Shard_stream.w_claimed o.Shard_stream.w_built o.Shard_stream.w_stolen
    o.Shard_stream.w_waits

let parse_worker_summary line =
  match
    Scanf.sscanf line "mproc-worker claimed=%d built=%d stolen=%d waits=%d"
      (fun c b s w ->
        {
          Shard_stream.w_claimed = c;
          w_built = b;
          w_stolen = s;
          w_waits = w;
        })
  with
  | outcome -> Some outcome
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

let run_fleet ~telemetry ~pass ~workers ~worker_command =
  match worker_command with
  | Some cmd when workers > 1 ->
      let argv = cmd pass in
      Telemetry.with_span telemetry ("mproc." ^ pass) (fun () ->
          let clock =
            if Telemetry.deterministic telemetry then None
            else Some Unix.gettimeofday
          in
          let t0 = Option.map (fun c -> c ()) clock in
          let children =
            List.init workers (fun _ ->
                let r, w = Unix.pipe () in
                let pid =
                  Unix.create_process argv.(0) argv Unix.stdin w Unix.stderr
                in
                Unix.close w;
                (pid, r))
          in
          let fleet =
            List.fold_left
              (fun (i, acc) (pid, r) ->
                let ic = Unix.in_channel_of_descr r in
                let rec lines acc =
                  match input_line ic with
                  | line -> lines (line :: acc)
                  | exception End_of_file -> acc
                in
                let summary = List.find_map parse_worker_summary (lines []) in
                close_in_noerr ic;
                let status = snd (Unix.waitpid [] pid) in
                (match (clock, t0) with
                | Some c, Some t0 ->
                    Telemetry.note telemetry
                      (Printf.sprintf "worker%d.wall_seconds" i)
                      (Printf.sprintf "%.3f" (c () -. t0))
                | _ -> ());
                let acc =
                  match (status, summary) with
                  | Unix.WEXITED 0, Some o ->
                      {
                        acc with
                        m_claimed = acc.m_claimed + o.Shard_stream.w_claimed;
                        m_built = acc.m_built + o.Shard_stream.w_built;
                        m_stolen = acc.m_stolen + o.Shard_stream.w_stolen;
                        m_waits = acc.m_waits + o.Shard_stream.w_waits;
                      }
                  | _ ->
                      (* A dead or mute worker costs nothing but its
                         unfinished shards, which the merge fold
                         re-mines. *)
                      { acc with m_failed = acc.m_failed + 1 }
                in
                (i + 1, acc))
              (0, { no_fleet with m_workers = workers })
              children
            |> snd
          in
          Telemetry.count telemetry "mproc.workers" fleet.m_workers;
          Telemetry.count telemetry "mproc.claimed" fleet.m_claimed;
          Telemetry.count telemetry "mproc.built" fleet.m_built;
          Telemetry.count telemetry "mproc.stolen" fleet.m_stolen;
          Telemetry.count telemetry "mproc.waits" fleet.m_waits;
          if fleet.m_failed > 0 then
            Telemetry.count telemetry "mproc.failed" fleet.m_failed;
          fleet)
  | _ -> no_fleet

let mine_worker ?(config = default_config) ?telemetry ?stale_after ~shard_size
    ~pass () =
  let telemetry = Option.value telemetry ~default:Telemetry.null in
  let cache =
    match cache_of config with
    | Some c -> c
    | None -> invalid_arg "mine_worker: a cache directory is required"
  in
  let jobs = config.jobs in
  let n = config.corpus_size in
  let gc_before = Gc.get () in
  Gc.set { gc_before with Gc.space_overhead = 40 };
  Fun.protect ~finally:(fun () -> Gc.set gc_before) @@ fun () ->
  let load = shard_load config in
  match pass with
  | `Kb ->
      Shard_stream.fold_worker ~cache ~telemetry ?stale_after ~stage:"shard-kb"
        ~key:(corpus_key config) ~write:Kb.write_stats ~load
        ~count:(Kb.stats_of_projects ~jobs) ~total:n ~shard_size ()
  | `Mine ->
      (* The mine pass needs the finalized whole-corpus KB. By the time
         the parent spawns mine workers its KB pass is complete, so the
         KB pass here loads the final artifact (or resumes every
         checkpoint) and counts nothing. *)
      let kb, _, _ = kb_pass ~cache ~telemetry config ~load ~shard_size in
      Shard_stream.fold_worker ~cache ~telemetry ?stale_after
        ~stage:"shard-mine" ~key:(shard_mine_key config)
        ~write:Miner.write_tables ~load
        ~count:(Miner.count_tables ~provider:config.provider ~jobs config.mining kb)
        ~total:n ~shard_size ()

let mine_streamed ?(config = default_config) ?telemetry ?(workers = 1)
    ?worker_command ?progress ~shard_size () =
  let telemetry = Option.value telemetry ~default:Telemetry.null in
  let cache = cache_of config in
  (* Bounded-memory mode trades a little GC CPU for a flat footprint:
     shard churn under the default pacing (space_overhead 120) lets the
     heap balloon to several times the live set, which is exactly the
     slack streaming exists to avoid. Pacing never affects results,
     only when collections happen. Restored on exit. *)
  let gc_before = Gc.get () in
  Gc.set { gc_before with Gc.space_overhead = 40 };
  Fun.protect ~finally:(fun () -> Gc.set gc_before) @@ fun () ->
  let load = shard_load config in
  let on_shard pass =
    Option.map
      (fun f ~index ~shards ~built -> f ~pass ~index ~shards ~built)
      progress
  in
  (* Fleet first (workers checkpoint every shard into the shared cache),
     then the pass's resumed fold merges them in shard order — and
     rebuilds any shard the fleet left behind. A warm final-artifact
     hit never reaches the fleet, so no workers spawn on warm runs. *)
  let fleet pass ~telemetry = run_fleet ~telemetry ~pass ~workers ~worker_command in
  let kb, kb_fold, kb_mproc =
    kb_pass ?cache ~telemetry ~fleet:(fleet "kb") ?on_shard:(on_shard "kb")
      config ~load ~shard_size
  in
  let mined, mine_fold, mine_mproc =
    mine_pass ?cache ~telemetry ~fleet:(fleet "mine")
      ?on_shard:(on_shard "mine") config kb ~load ~shard_size
  in
  let filtered, llm_refined, llm_rejected, candidates =
    refine ~telemetry config mined
  in
  {
    s_config = config;
    s_shard_size = shard_size;
    s_kb = kb;
    s_mined = mined;
    s_filtered = filtered;
    s_llm_refined = llm_refined;
    s_llm_rejected = llm_rejected;
    s_candidates = candidates;
    s_kb_fold = kb_fold;
    s_mine_fold = mine_fold;
    s_kb_mproc = kb_mproc;
    s_mine_mproc = mine_mproc;
    s_cache_stats = cache_stats_of cache;
  }

let run ?(config = default_config) ?telemetry () =
  let telemetry = Option.value telemetry ~default:Telemetry.null in
  let m = mine_only ~config ~telemetry () in
  let { kb; corpus; candidates; _ } = m in
  let engine =
    Engine.create ~provider:config.provider ~config:config.engine ()
  in
  let deploy = Engine.oracle engine in
  let deploy_batch = Engine.oracle_batch ~jobs:config.jobs engine in
  let validation =
    spanned telemetry "validate" (fun () ->
        engine_delta telemetry engine (fun () ->
            Scheduler.run ~config:config.scheduler ~telemetry ~jobs:config.jobs
              ~deploy_batch ~provider:config.provider ~kb ~corpus ~deploy
              candidates))
  in
  let final_checks, counterexample_fps =
    spanned telemetry "counterexample" (fun () ->
        engine_delta telemetry engine (fun () ->
            let kept, exposed =
              Scheduler.counterexample_pass ~jobs:config.jobs
                ~provider:config.provider ~corpus ~deploy
                validation.Scheduler.validated
            in
            Telemetry.count telemetry "counterexample.kept" (List.length kept);
            Telemetry.count telemetry "counterexample.exposed_fps"
              (List.length exposed);
            (kept, exposed)))
  in
  {
    m with
    validation;
    final_checks;
    counterexample_fps;
    engine_stats = Engine.stats engine;
  }

type violation_report = {
  project : string;
  check : Check.t;
  resources : Zodiac_iac.Resource.id list;
}

let scan ~provider ~checks ~corpus =
  let defaults = Arm.defaults provider in
  List.concat_map
    (fun (project, prog) ->
      let graph = Graph.build prog in
      List.concat_map
        (fun check ->
          List.map
            (fun assignment ->
              { project; check; resources = List.map snd assignment })
            (Eval.violations ~defaults graph check))
        checks)
    corpus
