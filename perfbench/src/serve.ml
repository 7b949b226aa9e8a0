(* The serve-scan workload: one [zodiac serve --socket] daemon, started
   from the built binary with --jobs 1 --no-cache, driven open-loop by
   {!Loadgen} with a seeded stream of scan_file requests. Every response
   is checked against {!Scan.scan_source} run here on the same source:
   the one-shot path, with no daemon and no cache.

   Phases, in order: set-up (the daemon is spawned and timed from spawn
   to its first answered ping), warm-up (excluded from every sample), a
   fixed-rate phase of at least 1000 requests, on a traced run an
   offered-rate ladder, and bursts (all requests due at once, timing the
   daemon's capacity). Between bursts, outside every timed phase, more
   daemons are started and timed the same way, and a share of the
   output references (and, untraced, of the allocation replay) is
   computed. The traced run then replays the stream in-process through
   the public functions of each layer. *)

module Json = Zodiac_util.Json
module Provider = Zodiac_provider.Provider
module Providers = Zodiac_providers.Providers
module Session = Zodiac_serve.Session
module Server = Zodiac_serve.Server
module Scan = Zodiac_serve.Scan
module Sarif = Zodiac_serve.Sarif
module Protocol = Zodiac_serve.Protocol
module Scan_cache = Zodiac_serve.Scan_cache

type ctx = {
  seed : int;
  seconds : float;
  zodiac : string;  (** the built CLI binary *)
  work : string;
  trace_file : string;
}

let warmup = 200
let fixed_rate = 400.
let bursts = 8
let burst_size = 1000

(* The ladder: offered rates above [fixed_rate], [rung_requests] each
   (enough for a p99 with ten samples beyond it). A rung passes when
   every request is answered correctly, p99 stays under
   [p99_limit_ms], and the backlog does not grow: the last quarter's
   median latency is within twice the first quarter's plus 1 ms. *)
let rungs = [ 600.; 800.; 1200.; 1600.; 2400.; 3200. ]
let rung_requests = 1000
let p99_limit_ms = 20.

(* A phase whose requests went out more than this late (p99 of send
   time minus due time) measured the generator, not the daemon. Its
   latencies, timed from due time, include the stall rather than hide
   it; a late fixed-rate phase is flagged as invalid and a late rung
   cannot count towards max_rps. Lateness is not an output failure. *)
let late_limit_ms = 10.

let fixed_requests seconds = max 1000 (int_of_float (fixed_rate *. seconds /. 4.))

(* ---- the daemon ------------------------------------------------------ *)

type daemon = { pid : int; socket : string }

(* Daemons still running, killed on any exit path. *)
let live = ref []

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    | _ -> ()
  in
  wait ();
  live := List.filter (fun p -> p <> pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

let () = at_exit kill_all

let spawn ctx i =
  let socket = Filename.concat ctx.work (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) i) in
  (try Sys.remove socket with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv =
    [| ctx.zodiac; "serve"; "--socket"; socket; "--jobs"; "1"; "--no-cache"; "--max-clients"; "2" |]
  in
  let pid = Unix.create_process ctx.zodiac argv null null null in
  Unix.close null;
  live := pid :: !live;
  { pid; socket }

(* Blocking request/response on a fresh connection. *)
let call socket line =
  let fd = Loadgen.connect socket in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let msg = line ^ "\n" in
      let rec send off =
        if off < String.length msg then
          send (off + Unix.write_substring fd msg off (String.length msg - off))
      in
      send 0;
      let buf = Buffer.create 256 and b = Bytes.create 4096 in
      let rec recv () =
        match Unix.read fd b 0 (Bytes.length b) with
        | 0 -> Buffer.contents buf
        | n -> (
            Buffer.add_subbytes buf b 0 n;
            match String.index_opt (Buffer.contents buf) '\n' with
            | Some i -> String.sub (Buffer.contents buf) 0 i
            | None -> recv ())
      in
      recv ())

(* Seconds from [t0] until the daemon answers a ping. *)
let ready d ~t0 =
  let rec attempt () =
    match call d.socket {|{"id":0,"method":"ping"}|} with
    | line when String.length line > 0 -> Measure.now () -. t0
    | _ -> failwith "daemon closed the connection before answering ping"
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (fun p -> p <> d.pid) !live;
            failwith "daemon exited before answering ping");
        if Measure.now () -. t0 > 30. then failwith "daemon not ready after 30 s";
        Unix.sleepf 0.0005;
        attempt ()
  in
  attempt ()

let stop d =
  ignore (call d.socket {|{"id":0,"method":"shutdown"}|});
  reap d.pid

(* A timed start-up: spawn to the first answered ping, scaled to
   reference host speed by a tick just before and just after it. *)
let start ctx i =
  let (d, dt), t =
    Host.timed ~sampling:false (fun () ->
        let t0 = Measure.now () in
        let d = spawn ctx i in
        (d, ready d ~t0))
  in
  (d, dt /. t.Host.slowness)

(* A set-up probe: a daemon started, timed and stopped again. *)
let probe ctx i =
  let d, dt = start ctx i in
  stop d;
  dt

(* ---- output checks ---------------------------------------------------- *)

let ground_truth =
  List.map (fun p -> (p.Provider.name, Scan.ground_truth_entries p)) Providers.all

let entries provider = List.assoc provider.Provider.name ground_truth

(* The expected SARIF of one request: the one-shot scan of its source
   under the provider it was generated for. *)
let reference (r : Inputs.request) =
  match Scan.scan_source ~provider:r.Inputs.provider ~checks:(entries r.Inputs.provider)
          ~file:r.Inputs.path r.Inputs.source with
  | Ok findings -> Some (Json.to_string (Sarif.document findings))
  | Error _ -> None

(* A response is correct when it is [ok] and its result is the
   reference SARIF, byte for byte. Missing replies, errors, [busy] and
   deadlines all fail. *)
let response_ok expected line =
  match (expected, Json.of_string_result line) with
  | Some sarif, Ok json ->
      Json.member "ok" json = Json.Bool true
      && String.equal (Json.to_string (Json.member "result" json)) sarif
  | _ -> false

(* ---- phases ---------------------------------------------------------- *)

type phase = { name : string; reqs : Inputs.request array; out : Loadgen.outcome }

let drive ~conns d ~name reqs due =
  let lines = Array.map (fun r -> Inputs.request_line r ^ "\n") reqs in
  Gc.compact ();
  { name; reqs; out = Loadgen.run ~socket:d.socket ~conns ~lines ~due () }

let at_rate d ~name ~rate reqs = drive ~conns:2 d ~name reqs (Loadgen.schedule ~rate (Array.length reqs))

(* Wall seconds from the burst's due time to its last response; a
   burst with replies missing (already failed) counts until the
   generator gave up on it. *)
let burst_wall p =
  let o = p.out in
  let last =
    if Array.for_all Float.is_finite o.Loadgen.received then
      Array.fold_left Float.max Float.neg_infinity o.Loadgen.received
    else o.Loadgen.due.(0) +. Loadgen.drain
  in
  last -. o.Loadgen.due.(0)

let failures p refs =
  let bad = ref 0 in
  Array.iteri
    (fun i (r : Inputs.request) ->
      if not (response_ok (Hashtbl.find refs r.Inputs.index) p.out.Loadgen.responses.(i)) then
        incr bad)
    p.reqs;
  !bad

(* A tail percentile, or — when too few replies arrived for one, which
   only a phase with missing (and so failed) replies can cause — the
   largest sample, with the refusal noted. *)
let tail pct xs notes =
  match Measure.percentile pct xs with
  | Ok v -> v
  | Error e ->
      notes := Printf.sprintf "p%g refused (%s): reporting the maximum" pct e :: !notes;
      List.fold_left Float.max 0. xs

let on_schedule p =
  match Measure.percentile 99. (Loadgen.lateness p.out) with
  | Ok v -> v <= late_limit_ms
  | Error _ -> false

let rung_passes p refs =
  let lat = Array.of_list (Loadgen.latencies p.out) in
  let n = Array.length lat in
  n = Array.length p.reqs
  && on_schedule p
  && failures p refs = 0
  && (match Measure.percentile 99. (Array.to_list lat) with
     | Ok v -> v < p99_limit_ms
     | Error _ -> false)
  &&
  let quarter lo = Measure.median (Array.to_list (Array.sub lat lo (n / 4))) in
  quarter (n - (n / 4)) <= (2. *. quarter 0) +. 1.

(* ---- in-process replay ---------------------------------------------------- *)

let session () =
  match Session.create { Session.default_config with Session.jobs = 1 } with
  | Ok s -> s
  | Error e -> failwith e

(* The daemon's request path composed from the layers' public
   functions, each call wrapped by [span] (a no-op when untraced). The
   rendered SARIF of each request is returned for checking. *)
type wrap = { span : 'a. string -> (unit -> 'a) -> 'a }

let replay_layers { span } reqs =
  let cache = Scan_cache.create ~checks:(entries Providers.default) () in
  let out =
    Array.map
      (fun (r : Inputs.request) ->
        let line = Inputs.request_line r in
        match span "protocol.parse" (fun () -> Protocol.parse ~max_bytes:(1 lsl 20) line) with
        | Ok { Protocol.verb = Protocol.Scan_file { path; source = Some src }; _ } ->
            let provider =
              span "providers.detect" (fun () ->
                  Option.value ~default:Providers.default (Providers.detect_source src))
            in
            let checks = entries provider in
            let tag = Provider.fingerprint provider in
            let findings =
              match span "scan_cache.find" (fun () -> Scan_cache.find cache ~tag ~mode:"hcl" ~file:path src) with
              | Some findings -> Ok findings
              | None -> (
                  match
                    span "hcl.compile" (fun () ->
                        Zodiac_hcl.Compile.compile_string ~type_map:provider.Provider.of_terraform src)
                  with
                  | Error e -> Error e
                  | Ok (prog, _) ->
                      let graph = span "graph.build" (fun () -> Zodiac_iac.Graph.build prog) in
                      let defaults = Zodiac_cloud.Arm.defaults provider in
                      span "spec.eval" (fun () ->
                          List.iter
                            (fun (e : Scan.check_entry) ->
                              ignore (Zodiac_spec.Eval.violations ~defaults graph e.Scan.check))
                            checks);
                      let found =
                        span "scan.findings" (fun () -> Scan.scan_source ~provider ~checks ~file:path src)
                      in
                      Result.iter (Scan_cache.add cache ~tag ~mode:"hcl" src) found;
                      found)
            in
            (match findings with
            | Ok f -> Some (span "sarif.render" (fun () -> Json.to_string (Sarif.document f)))
            | Error _ -> None)
        | _ -> None)
      reqs
  in
  (out, Scan_cache.hits cache, Scan_cache.misses cache)

(* ---- the workload --------------------------------------------------------- *)

type result = {
  checks : int * int;  (** attempted, failed *)
  values : (string * float) list;
  notes : string list;
}

let run ctx ~trace =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* A roomy minor heap and lazy major GC keep the generator's own
     collection pauses out of its send schedule. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 22; space_overhead = 400 };
  Measure.mkdir_p ctx.work;
  let n_fixed = fixed_requests ctx.seconds in
  let n_ladder = if trace then List.length rungs * rung_requests else 0 in
  let total = warmup + n_fixed + (bursts * burst_size) + n_ladder in
  let all = Inputs.requests ~seed:ctx.seed ~count:total in
  let slice lo n = Array.sub all lo n in
  (* Set-up: the daemon that serves the run, then two probes; one more
     probe follows each burst, so the median start-up samples the whole
     run. *)
  let d, first = start ctx 0 in
  let second = probe ctx 1 in
  let setups = ref [ probe ctx 2; second; first ] in
  let warm = at_rate d ~name:"warm-up" ~rate:fixed_rate (slice 0 warmup) in
  let fixed = at_rate d ~name:"fixed" ~rate:fixed_rate (slice warmup n_fixed) in
  let after_fixed = warmup + n_fixed in
  let ladder =
    if not trace then []
    else
      List.mapi
        (fun i rate ->
          at_rate d ~name:(Printf.sprintf "rung-%.0f" rate) ~rate
            (slice (after_fixed + (i * rung_requests)) rung_requests))
        rungs
  in
  let after_ladder = after_fixed + n_ladder in
  (* After each burst: a set-up probe, the references of a share of the
     stream, and, untraced, the allocation of serving that share
     in-process on one domain — exact, where the daemon's own is not
     observable from outside. Doing this work between the bursts spreads
     them over ten seconds of a host whose speed changes from second to
     second. The host's speed is sampled through each burst (the
     generator retries a system call a timer signal interrupts), and the
     median burst at reference host speed is reported. *)
  let refs = Hashtbl.create total in
  let replay = if trace then None else Some (session ()) in
  let words = ref 0. in
  let gap b =
    setups := probe ctx (3 + b) :: !setups;
    let lo = b * total / bursts and hi = (b + 1) * total / bursts in
    let share = Array.sub all lo (hi - lo) in
    Array.iter (fun (r : Inputs.request) -> Hashtbl.replace refs r.Inputs.index (reference r)) share;
    Option.iter
      (fun s ->
        let (), _, w =
          Measure.measured (fun () ->
              Array.iter (fun r -> ignore (Server.handle_line s (Inputs.request_line r))) share)
        in
        words := !words +. w)
      replay
  in
  let burst_phases =
    List.init bursts (fun b ->
        let reqs = slice (after_ladder + (b * burst_size)) burst_size in
        let p, t =
          Host.timed ~sides:5 (fun () ->
              drive ~conns:1 d ~name:(Printf.sprintf "burst-%d" b) reqs (Loadgen.burst burst_size))
        in
        gap b;
        (p, t.Host.slowness))
  in
  let burst_phases, slowness = List.split burst_phases in
  let setups = List.rev !setups in
  let stats =
    match call d.socket {|{"id":0,"method":"stats"}|} with
    | line -> Json.of_string_result line
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  let rss = Measure.peak_rss_mb ~pid:(string_of_int d.pid) () in
  stop d;
  (* Output checks, outside every timed phase. *)
  let phases = (warm :: fixed :: ladder) @ burst_phases in
  let failed_in = List.map (fun p -> (p, failures p refs)) phases in
  let attempted = List.fold_left (fun acc p -> acc + Array.length p.reqs) 0 phases in
  let failed = List.fold_left (fun acc (_, f) -> acc + f) 0 failed_in in
  let lat = Loadgen.latencies fixed.out in
  let late = Loadgen.lateness fixed.out in
  let refusals = ref [] in
  let p50 = if lat = [] then 0. else Measure.median lat and p99 = tail 99. lat refusals in
  let late_p99 = tail 99. late refusals and late_max = List.fold_left Float.max 0. late in
  let walls = List.map burst_wall burst_phases in
  let scaled = List.map2 ( /. ) walls slowness in
  let notes =
    List.rev !refusals
    @ [
      Printf.sprintf "setup_s=[%s]" (String.concat " " (List.map (Printf.sprintf "%.4f") setups));
      Printf.sprintf
        "fixed %.0f rps x %d: p50_ms=%.3f p99_ms=%.3f late_p99_ms=%.3f late_max_ms=%.3f (%s)"
        fixed_rate n_fixed p50 p99 late_p99 late_max
        (if on_schedule fixed then "generator on schedule"
         else "GENERATOR LATE: these latencies are invalid");
      Printf.sprintf "bursts of %d: wall_s=[%s] raw wall=[%s] slowness=[%s]" burst_size
        (String.concat " " (List.map (Printf.sprintf "%.4f") scaled))
        (String.concat " " (List.map (Printf.sprintf "%.4f") walls))
        (String.concat " " (List.map (Printf.sprintf "%.2f") slowness));
    ]
  in
  if not trace then begin
    {
      checks = (attempted, failed);
      values =
        [
          ("wall_s", Measure.median scaled);
          ("alloc_mwords", !words /. 1e6);
          ("peak_rss_mb", rss);
          ("setup_s", Measure.median setups);
        ];
      notes;
    }
  end
  else begin
    (* The highest rung of an unbroken passing run from the fixed rate
       up; nothing passes above a rung that failed. *)
    let passing =
      List.fold_left
        (fun (best, still) (rate, p) ->
          if still && rung_passes p refs then (rate, true) else (best, false))
        (if rung_passes fixed refs then (fixed_rate, true) else (0., false))
        (List.combine rungs ladder)
    in
    let daemon key =
      match stats with
      | Ok json -> Json.member key (Json.member "result" json)
      | Error _ -> Json.Null
    in
    let int_of j = float_of_int (Option.value ~default:0 (Json.int_value j)) in
    let daemon_requests =
      match daemon "requests" with
      | Json.Obj kvs -> List.fold_left (fun acc (_, v) -> acc +. int_of v) 0. kvs
      | _ -> 0.
    in
    (* In-process replay of the fixed-rate stream: untraced, traced, and
       through Session.handle. *)
    let stream = slice 0 after_fixed in
    let expected = Array.map (fun (r : Inputs.request) -> Hashtbl.find refs r.Inputs.index) stream in
    Gc.compact ();
    let _, untraced, _ = Measure.measured (fun () -> replay_layers { span = (fun _ f -> f ()) } stream) in
    Gc.compact ();
    let sp = Spans.create () in
    let (out, hits, misses), traced, _ =
      Measure.measured (fun () -> replay_layers { span = (fun name f -> Spans.with_span sp name f) } stream)
    in
    let replay_failed = ref 0 in
    Array.iteri (fun i e -> if out.(i) <> e || e = None then incr replay_failed) expected;
    let s = session () in
    Array.iter
      (fun r ->
        match Protocol.parse ~max_bytes:(1 lsl 20) (Inputs.request_line r) with
        | Ok req -> ignore (Spans.with_span sp "session.handle" (fun () -> Session.handle s req.Protocol.verb))
        | Error _ -> incr replay_failed)
      stream;
    Spans.write sp ctx.trace_file;
    let per_call name =
      let n = Spans.count sp name in
      if n = 0 then 0. else Spans.total sp name *. 1e6 /. float_of_int n
    in
    let n_stream = Array.length stream in
    {
      checks = (attempted + (2 * n_stream), failed + !replay_failed);
      values =
        [
          ("providers.detect_us", per_call "providers.detect");
          ("hcl.compile_us", per_call "hcl.compile");
          ("graph.build_us", per_call "graph.build");
          ("spec.eval_us", per_call "spec.eval");
          ("protocol.parse_us", per_call "protocol.parse");
          ("sarif.render_us", per_call "sarif.render");
          ("session.handle_us", per_call "session.handle");
          ("scan_cache.hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)));
          ("daemon.requests", daemon_requests);
          ("daemon.files_scanned", int_of (daemon "files_scanned"));
          ("daemon.scan_cache_hits", int_of (Json.member "hits" (daemon "scan_cache")));
          ("daemon.errors", int_of (daemon "errors"));
          ("p50_ms", p50);
          ("p99_ms", p99);
          ("max_rps", fst passing);
          ("loadgen.late_p99_ms", late_p99);
          ("loadgen.late_max_ms", late_max);
          ("trace.overhead_s", traced -. untraced);
          ("trace.spans", float_of_int (List.length (Spans.spans sp)));
        ];
      notes =
        notes
        @ List.map
            (fun (p, f) ->
              let lat = Loadgen.latencies p.out in
              Printf.sprintf "%s: %d requests, %d failed, p50_ms=%.3f p99_ms=%s" p.name
                (Array.length p.reqs) f
                (if lat = [] then Float.nan else Measure.median lat)
                (match Measure.percentile 99. lat with
                | Ok v -> Printf.sprintf "%.3f" v
                | Error _ -> "n/a"))
            failed_in
        @ [ Printf.sprintf "replay untraced %.3f s, traced %.3f s" untraced traced ];
    }
  end
