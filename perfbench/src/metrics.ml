(* The benchmark's declarations — workloads and metrics — and the result
   line every run prints. BENCHMARK.json is generated from these tables
   ([main.exe manifest]) and the self-test checks that the committed
   file still matches them. *)

module Json = Zodiac_util.Json

type metric = {
  name : string;
  unit_ : string;
  better : string;  (** "lower" or "higher" *)
  bound : float option;  (** end-to-end only *)
}

let e2e name unit_ bound = { name; unit_; better = "lower"; bound = Some bound }
let layer ?(better = "lower") name unit_ = { name; unit_; better; bound = None }

let run_seconds = 15

let workloads =
  [
    ( "validate-600",
      "cold Pipeline.run on 600 Azure projects at jobs=1: mine, validate and \
       counterexample; every validation, solver or simulator change moves it" );
    ( "mine-stream",
      "streamed mine of 5000 projects in 500-project shards into a fresh \
       cache: generation, KB and miner counting and checkpoint writes; no \
       validation" );
    ( "mine-warm",
      "warm mine_only of 5000 projects against a cache primed in set-up: \
       codec reads and the Stage cache ladder, nothing else" );
    ( "serve-scan",
      "resident daemon over a Unix socket answering seeded scan_file \
       requests, half repeats and half fresh: HCL, Eval, SARIF, protocol" );
  ]

let workload_names = List.map fst workloads

(* Metrics every workload reports on an untraced run. *)
let end_to_end =
  [
    e2e "wall_s" "s" 0.25;
    e2e "alloc_mwords" "Mwords" 0.1875;
    e2e "peak_rss_mb" "MB" 0.1875;
    e2e "setup_s" "s" 0.25;
  ]

(* Metrics every workload reports on a traced run; a layer the workload
   does not exercise reports 0. *)
let per_layer =
  [
    (* validation: Scheduler with Testcase/Mutation/Csp/Mdc inside *)
    layer "validation.busy_s" "s";
    layer "validation.self_s" "s";
    layer "validation.iterations" "count";
    layer "validation.candidates" "count";
    layer ~better:"higher" "validation.validated" "count";
    layer ~better:"higher" "validation.yield" "ratio";
    (* engine: Engine, memo, simulator *)
    layer "engine.busy_s" "s";
    layer "engine.requests" "count";
    layer "engine.deployments" "count";
    layer ~better:"higher" "engine.memo_hit_ratio" "ratio";
    layer "engine.ms_per_deployment" "ms";
    layer "counterexample.busy_s" "s";
    (* corpus, kb, mining, filter, oracle *)
    layer "corpus.busy_s" "s";
    layer "kb.busy_s" "s";
    layer "mining.busy_s" "s";
    layer "mining.candidates" "count";
    layer "filter.kept" "count";
    layer "oracle.refined" "count";
    (* streamed shard passes and checkpoint writes *)
    layer "stream.kb_pass_s" "s";
    layer "stream.mine_pass_s" "s";
    layer "stream.shards" "count";
    layer "stream.shard_p50_ms" "ms";
    layer "cache.bytes_written" "bytes";
    (* cache reads and the Stage ladder *)
    layer "corpus.load_s" "s";
    layer "kb.load_s" "s";
    layer "mine.load_s" "s";
    layer ~better:"higher" "cache.hits" "count";
    layer "cache.misses" "count";
    layer "cache.bytes_read" "bytes";
    (* per-request scan path *)
    layer "providers.detect_us" "us";
    layer "hcl.compile_us" "us";
    layer "graph.build_us" "us";
    layer "spec.eval_us" "us";
    layer "protocol.parse_us" "us";
    layer "sarif.render_us" "us";
    layer "session.handle_us" "us";
    layer ~better:"higher" "scan_cache.hit_ratio" "ratio";
    (* the daemon's own stats verb after the socket run *)
    layer "daemon.requests" "count";
    layer "daemon.files_scanned" "count";
    layer ~better:"higher" "daemon.scan_cache_hits" "count";
    layer "daemon.errors" "count";
    (* serve latency over the socket, open loop *)
    layer "p50_ms" "ms";
    layer "p99_ms" "ms";
    layer ~better:"higher" "max_rps" "1/s";
    layer "loadgen.late_p99_ms" "ms";
    layer "loadgen.late_max_ms" "ms";
    (* the run itself *)
    layer "error_rate" "ratio";
    layer "trace.overhead_s" "s";
    layer "trace.spans" "count";
    layer "host.probe_before_ms" "ms";
    layer "host.probe_after_ms" "ms";
  ]

let declared ~trace = if trace then per_layer else end_to_end

let valid_name name =
  String.length name > 0
  && String.length name <= 64
  && (match name.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       name

let valid_unit u =
  String.length u > 0
  && String.length u <= 16
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       u

let manifest () =
  let metric m =
    Json.Obj
      ([ ("name", Json.String m.name); ("unit", Json.String m.unit_);
         ("better", Json.String m.better) ]
      @ match m.bound with Some b -> [ ("bound", Json.Float b) ] | None -> [])
  in
  Json.Obj
    [
      ("command", Json.List [ Json.String "python3"; Json.String "perfbench/run.py" ]);
      ("paths", Json.List [ Json.String "perfbench" ]);
      ("run_seconds", Json.Int run_seconds);
      ( "workloads",
        Json.List
          (List.map
             (fun (name, why) ->
               Json.Obj [ ("name", Json.String name); ("why", Json.String why) ])
             workloads) );
      ("end_to_end", Json.List (List.map metric end_to_end));
      ("per_layer", Json.List (List.map metric per_layer));
    ]

(* ---- the result line ---------------------------------------------- *)

type outcome = {
  attempted : int;  (** output checks (batch) or requests (serve) *)
  failed : int;
  values : (string * float) list;
}

exception Missing_metric of string

(* The declared metrics, in declaration order, from [values]; refuses a
   run that forgot one. *)
let select ~trace values =
  List.map
    (fun m ->
      match List.assoc_opt m.name values with
      | Some v when Float.is_finite v -> (m, v)
      | _ -> raise (Missing_metric m.name))
    (declared ~trace)

let number v = Printf.sprintf "%.17g" v

let result_line ~trace o =
  let metrics =
    String.concat ", "
      (List.map
         (fun (m, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number v)
             m.unit_)
         (select ~trace o.values))
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.failed = 0 && o.attempted > 0)
    o.attempted o.failed metrics
