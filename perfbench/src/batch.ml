(* The three batch workloads: validate-600, mine-stream and mine-warm.

   Every unit of work is timed with the host's speed over it
   ({!Host.timed}). An untraced mine-stream or mine-warm run repeats its
   unit until the time budget is spent and reports the median of its
   repetitions at reference host speed; allocation is read from every
   repetition and must repeat exactly. An untraced validate-600 run
   covers a fixed number of corpora once each and reports means. A
   traced run does the unit once untraced and once with spans around
   every layer call, and reports the per-layer split plus the
   difference as tracing overhead. *)

module Pipeline = Zodiac.Pipeline
module Engine = Zodiac_engine.Engine
module Engine_stats = Zodiac_engine.Stats
module Scheduler = Zodiac_validation.Scheduler
module Cache = Zodiac_util.Cache
module Telemetry = Zodiac_util.Telemetry
module Filter = Zodiac_mining.Filter

type ctx = {
  seed : int;
  seconds : float;
  table : (int, Inputs.expected) Hashtbl.t;  (** expected.txt *)
  work : string;  (** scratch directory for caches, inside the checkout *)
  trace_file : string;  (** where a traced run writes its spans *)
  between : unit -> unit;
      (** run outside every timed region, before each untraced unit of
          work and after the last: the set-up probes *)
}

type check = { label : string; ok : bool }

type report = {
  checks : check list;
  values : (string * float) list;
  notes : string list;  (** informational lines printed before the result *)
}

let checked label ok = { label; ok }
let expected ctx member = Inputs.expected ctx.table ~member

(* One repetition of a unit of work: its wall seconds, their host
   scaling, words and checks. *)
type rep = { wall : float; slowness : float; words : float; rep_checks : check list }

(* Repeat [unit_] until adding another repetition of the last one's
   length would overrun [seconds]; at least [min_reps] times. [between]
   runs before each repetition and after the last. *)
let repeat ~seconds ?(min_reps = 2) ~between unit_ =
  let t0 = Measure.now () in
  let rec go acc i =
    between ();
    let r = unit_ i in
    let acc = r :: acc in
    if i + 1 >= min_reps && Measure.now () -. t0 +. r.wall > seconds then begin
      between ();
      List.rev acc
    end
    else go acc (i + 1)
  in
  go [] 0

(* Repetitions of one input report the median of their times at
   reference host speed; they must also allocate exactly the same words
   at jobs=1 (any drift is reported). Repetitions over different inputs
   ([~over_inputs]) report means: each input is one sample of the
   workload's cost. *)
let summarize ?(over_inputs = false) reps =
  let scaled = List.map (fun r -> r.wall /. r.slowness) reps in
  let words = List.map (fun r -> r.words) reps in
  let first = List.hd words in
  let exact = over_inputs || List.for_all (fun w -> Float.equal w first) words in
  let wall, alloc =
    if over_inputs then (Measure.mean scaled, Measure.mean words)
    else (Measure.median scaled, first)
  in
  let floats fmt xs = String.concat " " (List.map (Printf.sprintf fmt) xs) in
  ( [ ("wall_s", wall); ("alloc_mwords", alloc /. 1e6) ],
    List.concat_map (fun r -> r.rep_checks) reps,
    Printf.sprintf "reps=%d wall_s=[%s] raw wall=[%s] slowness=[%s] alloc_words=%s"
      (List.length reps) (floats "%.3f" scaled)
      (floats "%.3f" (List.map (fun r -> r.wall) reps))
      (floats "%.2f" (List.map (fun r -> r.slowness) reps))
      (if over_inputs then String.concat " " (List.map (Printf.sprintf "%.0f") words)
       else if exact then Printf.sprintf "%.0f (exact on every rep)" first
       else
         "DRIFTING " ^ String.concat " " (List.map (Printf.sprintf "%.0f") words)) )

let timed_rep f =
  Gc.compact ();
  let w0 = Measure.words () in
  let checks, t = Host.timed f in
  let words = Measure.words () -. w0 in
  { wall = t.Host.wall; slowness = t.Host.slowness; words; rep_checks = checks }

let fresh_dir ctx name =
  let dir = Filename.concat ctx.work name in
  Measure.rm_rf dir;
  Measure.mkdir_p dir;
  dir

(* ---- validate-600 ---------------------------------------------------- *)

let validate_config member = Inputs.config ~member ~projects:Inputs.validate_projects ()

(* Corpora per validate-600 run: a fixed count for a given --seconds, so
   the same seed always covers the same inputs. *)
let validate_corpora seconds = max 4 (int_of_float (seconds /. 4.))

let final_checks_json checks =
  Zodiac_util.Json.to_string (Zodiac.Checkset.to_json checks)

let validate_rep ctx member =
  timed_rep (fun () ->
      let art = Pipeline.run ~config:(validate_config member) () in
      [
        checked
          (Printf.sprintf "corpus %d: final checks match expected.txt" (Inputs.corpus_seed member))
          (String.equal
             (Inputs.checks_digest art.Pipeline.final_checks)
             (expected ctx member).Inputs.final_checks);
      ])

(* The traced composition of Pipeline.run: mine_only with a clocked
   telemetry, then the benchmark's own engine, scheduler and
   counterexample pass, with every deployment callback wrapped. *)
let validate_traced ~member sp =
  let config = validate_config member in
  let provider = config.Pipeline.provider in
  let tel = Spans.telemetry sp in
  let mo = Pipeline.mine_only ~config ~telemetry:tel () in
  let engine = Engine.create ~provider ~config:config.Pipeline.engine () in
  let deploy p = Spans.with_span sp "engine.deploy" (fun () -> Engine.oracle engine p) in
  let deploy_batch ps =
    Spans.with_span sp "engine.deploy_batch" (fun () ->
        Engine.oracle_batch ~jobs:config.Pipeline.jobs engine ps)
  in
  let validation =
    Spans.with_span sp "validation" (fun () ->
        Scheduler.run ~config:config.Pipeline.scheduler ~telemetry:tel
          ~jobs:config.Pipeline.jobs ~deploy_batch ~provider ~kb:mo.Pipeline.kb
          ~corpus:mo.Pipeline.corpus ~deploy mo.Pipeline.candidates)
  in
  let final, _exposed =
    Spans.with_span sp "counterexample" (fun () ->
        Scheduler.counterexample_pass ~jobs:config.Pipeline.jobs ~provider
          ~corpus:mo.Pipeline.corpus ~deploy validation.Scheduler.validated)
  in
  (mo, validation, Engine.stats engine, final)

let validate_layers ~member sp =
  let mo, validation, stats, final = validate_traced ~member sp in
  let engine_in_validation =
    Spans.within sp ~ancestor:"validation" "engine.deploy"
    +. Spans.within sp ~ancestor:"validation" "engine.deploy_batch"
  in
  let engine_busy = Spans.total sp "engine.deploy" +. Spans.total sp "engine.deploy_batch" in
  let busy = Spans.total sp "validation" in
  let requests = stats.Engine_stats.requests in
  let deployments = stats.Engine_stats.cache_misses in
  let candidates = List.length mo.Pipeline.candidates in
  let validated = List.length validation.Scheduler.validated in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  ( final,
    [
      ("validation.busy_s", busy);
      ("validation.self_s", busy -. engine_in_validation);
      ("validation.iterations", float_of_int (List.length validation.Scheduler.iterations));
      ("validation.candidates", float_of_int candidates);
      ("validation.validated", float_of_int validated);
      ("validation.yield", ratio validated candidates);
      ("engine.busy_s", engine_busy);
      ("engine.requests", float_of_int requests);
      ("engine.deployments", float_of_int deployments);
      ("engine.memo_hit_ratio", ratio stats.Engine_stats.cache_hits requests);
      ( "engine.ms_per_deployment",
        if deployments = 0 then 0. else engine_busy *. 1000. /. float_of_int deployments );
      ("counterexample.busy_s", Spans.total sp "counterexample");
      ("corpus.busy_s", Spans.total sp "corpus" +. Spans.total sp "materialize");
      ("kb.busy_s", Spans.total sp "kb");
      ("mining.busy_s", Spans.total sp "mine");
      ("mining.candidates", float_of_int (List.length mo.Pipeline.mined));
      ("filter.kept", float_of_int (List.length mo.Pipeline.filtered.Filter.kept));
      ("oracle.refined", float_of_int (List.length mo.Pipeline.llm_refined));
    ] )

let validate ctx ~trace =
  if not trace then
    let members =
      Inputs.validate_members ctx.table ~seed:ctx.seed ~count:(validate_corpora ctx.seconds)
    in
    let reps =
      List.map
        (fun member ->
          ctx.between ();
          validate_rep ctx member)
        members
    in
    ctx.between ();
    let values, checks, note = summarize ~over_inputs:true reps in
    { checks; values; notes = [ note ] }
  else begin
    let member = ctx.seed in
    Gc.compact ();
    let art, untraced, _ = Measure.measured (fun () -> Pipeline.run ~config:(validate_config member) ()) in
    Gc.compact ();
    let sp = Spans.create () in
    let (final, layers), traced, _ = Measure.measured (fun () -> validate_layers ~member sp) in
    Spans.write sp ctx.trace_file;
    let untraced_json = final_checks_json art.Pipeline.final_checks in
    {
      checks =
        [
          checked "untraced final checks match expected.txt"
            (String.equal (Inputs.md5 untraced_json) (expected ctx member).Inputs.final_checks);
          checked "traced final checks byte-identical to Pipeline.run"
            (String.equal (final_checks_json final) untraced_json);
        ];
      values =
        layers
        @ [
            ("trace.overhead_s", traced -. untraced);
            ("trace.spans", float_of_int (List.length (Spans.spans sp)));
          ];
      notes =
        [
          Printf.sprintf "untraced Pipeline.run %.3f s, traced composition %.3f s" untraced
            traced;
        ];
    }
  end

(* ---- mine-stream ----------------------------------------------------- *)

let mine_config ?cache_dir ctx =
  Inputs.config ?cache_dir ~member:ctx.seed ~projects:Inputs.mine_projects ()

let streamed_checks ctx (s : Pipeline.streamed) =
  [
    checked "streamed candidates match mine_only (expected.txt)"
      (String.equal
         (Inputs.candidates_digest ~mined:s.Pipeline.s_mined ~candidates:s.Pipeline.s_candidates)
         (expected ctx ctx.seed).Inputs.mined);
  ]

let stream_once ?telemetry ?progress ctx i =
  let dir = fresh_dir ctx (Printf.sprintf "stream-%d" i) in
  let s =
    Pipeline.mine_streamed ~config:(mine_config ~cache_dir:dir ctx) ?telemetry
      ?progress ~shard_size:Inputs.shard_size ()
  in
  (s, dir)

let stream_rep ctx i =
  let dir = ref "" in
  let rep =
    timed_rep (fun () ->
        let s, d = stream_once ctx i in
        dir := d;
        streamed_checks ctx s)
  in
  Measure.rm_rf !dir;
  rep

let stream ctx ~trace =
  if not trace then
    let values, checks, note =
      summarize (repeat ~seconds:ctx.seconds ~between:ctx.between (stream_rep ctx))
    in
    { checks; values; notes = [ note ] }
  else begin
    let untraced = stream_rep ctx 0 in
    Gc.compact ();
    let sp = Spans.create () in
    let marks = ref [] in
    let progress ~pass ~index:_ ~shards:_ ~built:_ = marks := (pass, Measure.now ()) :: !marks in
    let (s, dir), traced, _ =
      Measure.measured (fun () ->
          stream_once ~telemetry:(Spans.telemetry sp) ~progress ctx 1)
    in
    let written = Measure.tree_bytes dir in
    Measure.rm_rf dir;
    Spans.write sp ctx.trace_file;
    (* Shard durations: from the pass span's start to the first
       progress mark, then between consecutive marks. *)
    let shard_ms pass =
      let start = match Spans.named sp pass with s :: _ -> s.Spans.start | [] -> 0. in
      let times =
        List.rev (List.filter_map (fun (p, t) -> if p = pass then Some t else None) !marks)
      in
      let _, ds =
        List.fold_left (fun (prev, acc) t -> (t, ((t -. prev) *. 1000.) :: acc)) (start, []) times
      in
      ds
    in
    let kb_shards = shard_ms "kb" and mine_shards = shard_ms "mine" in
    let folds = s.Pipeline.s_kb_fold.shards + s.Pipeline.s_mine_fold.shards in
    let cache = s.Pipeline.s_cache_stats in
    {
      checks =
        untraced.rep_checks @ streamed_checks ctx s
        @ [
            checked "every shard reported through progress"
              (List.length kb_shards + List.length mine_shards = folds);
          ];
      values =
        [
          ("stream.kb_pass_s", Spans.total sp "kb");
          ("stream.mine_pass_s", Spans.total sp "mine");
          ("stream.shards", float_of_int folds);
          (* the mine pass holds ~90% of the streamed time *)
          ("stream.shard_p50_ms", if mine_shards = [] then 0. else Measure.median mine_shards);
          ("cache.bytes_written", float_of_int written);
          ("cache.hits", float_of_int cache.Cache.hits);
          ("cache.misses", float_of_int cache.Cache.misses);
          ("mining.candidates", float_of_int (List.length s.Pipeline.s_mined));
          ("filter.kept", float_of_int (List.length s.Pipeline.s_filtered.Filter.kept));
          ("oracle.refined", float_of_int (List.length s.Pipeline.s_llm_refined));
          ("trace.overhead_s", traced -. untraced.wall);
          ("trace.spans", float_of_int (List.length (Spans.spans sp)));
        ];
      notes =
        [ Printf.sprintf "untraced %.3f s, traced %.3f s" untraced.wall traced ];
    }
  end

(* ---- mine-warm ------------------------------------------------------- *)

let mine_checks ctx label (a : Pipeline.artifacts) =
  [
    checked label
      (String.equal
         (Inputs.candidates_digest ~mined:a.Pipeline.mined ~candidates:a.Pipeline.candidates)
         (expected ctx ctx.seed).Inputs.mined);
  ]

(* Set-up, run in a process of its own so the reloading process's peak
   RSS is the reloads' alone: a cold mine_only into a fresh cache
   directory. *)
let prime ctx dir =
  Measure.rm_rf dir;
  Measure.mkdir_p dir;
  let cold = Pipeline.mine_only ~config:(mine_config ~cache_dir:dir ctx) () in
  mine_checks ctx "cold priming run matches expected.txt" cold

(* The reload must be a pure cache read: every cached stage warm. *)
let warm_rep ctx dir ?telemetry () =
  let a = Pipeline.mine_only ~config:(mine_config ~cache_dir:dir ctx) ?telemetry () in
  mine_checks ctx "warm reload matches expected.txt" a
  @ [ checked "warm reload misses no cache entry" (a.Pipeline.cache_stats.Cache.misses = 0) ]

(* Reloads of the cache primed in [dir]. *)
let warm ctx ~trace ~dir =
  let report =
    if not trace then
      let values, checks, note =
        summarize
          (repeat ~seconds:ctx.seconds ~min_reps:5 ~between:ctx.between (fun _ ->
               timed_rep (warm_rep ctx dir)))
      in
      { checks; values; notes = [ note ] }
    else begin
      let untraced = timed_rep (warm_rep ctx dir) in
      Gc.compact ();
      let sp = Spans.create () in
      let tel = Spans.telemetry sp in
      let r0 = Measure.bytes_read () in
      let checks, traced, _ = Measure.measured (warm_rep ctx dir ~telemetry:tel) in
      let read = Measure.bytes_read () - r0 in
      Spans.write sp ctx.trace_file;
      let warm_stages =
        List.for_all
          (fun name ->
            List.exists
              (fun (s : Telemetry.span) ->
                String.equal s.Telemetry.span_name name
                && List.assoc_opt "source" s.Telemetry.notes = Some "warm")
              (Telemetry.spans tel))
          [ "corpus"; "kb"; "mine" ]
      in
      let hits, misses =
        List.fold_left
          (fun (h, m) (s : Telemetry.span) ->
            ( h + Option.value ~default:0 (Telemetry.find_counter s "cache.hits"),
              m + Option.value ~default:0 (Telemetry.find_counter s "cache.misses") ))
          (0, 0) (Telemetry.spans tel)
      in
      {
        checks =
          untraced.rep_checks @ checks
          @ [ checked "corpus, kb and mine stages loaded warm" warm_stages ];
        values =
          [
            ("corpus.load_s", Spans.total sp "corpus");
            ("kb.load_s", Spans.total sp "kb");
            ("mine.load_s", Spans.total sp "mine");
            ("cache.hits", float_of_int hits);
            ("cache.misses", float_of_int misses);
            ("cache.bytes_read", float_of_int read);
            ("trace.overhead_s", traced -. untraced.wall);
            ("trace.spans", float_of_int (List.length (Spans.spans sp)));
          ];
        notes = [ Printf.sprintf "untraced %.3f s, traced %.3f s" untraced.wall traced ];
      }
    end
  in
  Measure.rm_rf dir;
  report
