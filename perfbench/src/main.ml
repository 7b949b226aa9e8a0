(* Benchmark entry point (normally started through perfbench/run.py).

     main.exe run --workload W --seed N --seconds S --trace 0|1
                  --zodiac CLI --expected FILE --work DIR
     main.exe manifest          print BENCHMARK.json
     main.exe record            print expected.txt for the corpus family
     main.exe prime ...         mine-warm set-up: prime a cache directory

   [run] prints informational lines prefixed with "# " and, last, one
   JSON result line. *)

open Perfbench
module Json = Zodiac_util.Json
module Pipeline = Zodiac.Pipeline

let usage () =
  prerr_endline
    "usage: main.exe run --workload W --seed N --seconds S --trace 0|1 --zodiac CLI \
     --expected FILE --work DIR";
  exit 2

let options args =
  let rec go acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key -> go ((key, value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] args

let get opts key =
  match List.assoc_opt key opts with
  | Some v -> v
  | None ->
      prerr_endline ("missing " ^ key);
      usage ()

let int_opt opts key =
  match int_of_string_opt (get opts key) with Some n -> n | None -> usage ()

let workload_of opts =
  let w = get opts "--workload" in
  if List.mem w Metrics.workload_names then w
  else begin
    prerr_endline ("unknown workload " ^ w ^ "; one of " ^ String.concat ", " Metrics.workload_names);
    exit 2
  end

(* Run [prog] with [argv] to its exit; its whole stdout. *)
let spawn prog argv =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process prog (Array.of_list (prog :: argv)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  out

let forward opts keys = List.concat_map (fun k -> [ k; get opts k ]) keys

(* validate-600 and mine-stream set-up: the program's own start-up,
   timed from spawn to exit of the built CLI's [rules] verb, which
   starts the runtime, parses its command line and loads the provider's
   rule tables. A round of [probes_per_round] runs before every unit of
   work and after the last, so the median samples the whole run rather
   than one instant of a host whose speed changes from second to
   second. Each time is scaled to reference host speed by a tick just
   before and just after it. *)
let probes_per_round = 5

let setup_round zodiac times () =
  for _ = 1 to probes_per_round do
    let out, t = Host.timed ~sampling:false (fun () -> spawn zodiac [ "rules" ]) in
    if out = "" then failwith "set-up probe: zodiac rules printed nothing";
    times := Host.scaled t :: !times
  done

(* mine-warm set-up: [n] priming processes, each a cold mine_only into
   a fresh cache directory; the last directory is kept for the reloads.
   Returns it, the spawn-to-exit times scaled by the host slowness each
   priming process sampled over its own work, and whether every priming
   run matched expected.txt. *)
let primes opts ~work ~n =
  let runs =
    List.init n (fun i ->
        let dir = Filename.concat work (Printf.sprintf "warm-%d" i) in
        let out, t =
          Host.timed ~sampling:false ~sides:0 (fun () ->
              spawn Sys.executable_name
                ("prime" :: "--dir" :: dir :: forward opts [ "--seed"; "--expected" ]))
        in
        if i < n - 1 then Measure.rm_rf dir;
        match Scanf.sscanf_opt out "ok %f" Fun.id with
        | Some slowness -> (dir, t.Host.wall /. slowness, true)
        | None -> (dir, t.Host.wall, false))
  in
  let dir, _, _ = List.nth runs (n - 1) in
  (dir, List.map (fun (_, dt, _) -> dt) runs, List.map (fun (_, _, ok) -> ok) runs)

let run opts =
  let workload = workload_of opts in
  let seed = int_opt opts "--seed" in
  let seconds = float_of_int (int_opt opts "--seconds") in
  let trace = match get opts "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  let work = get opts "--work" in
  Measure.mkdir_p work;
  let trace_file = Filename.concat work (Printf.sprintf "trace-%s-%d.json" workload seed) in
  let probe_before = Measure.host_probe_ms () in
  let setups = ref [] in
  let batch ?(between = ignore) () =
    {
      Batch.seed;
      seconds;
      table = Inputs.load_expected (get opts "--expected");
      work;
      trace_file;
      between;
    }
  in
  let probed run =
    let report = run (batch ~between:(setup_round (get opts "--zodiac") setups) ()) ~trace in
    (* A traced run does not probe between its units; its set-up is
       probed once, after them. *)
    if !setups = [] then setup_round (get opts "--zodiac") setups ();
    (report, Measure.median !setups)
  in
  let attempted, failed, values, notes =
    match workload with
    | "serve-scan" ->
        let r =
          Serve.run { Serve.seed; seconds; zodiac = get opts "--zodiac"; work; trace_file } ~trace
        in
        (fst r.Serve.checks, snd r.Serve.checks, r.Serve.values, r.Serve.notes)
    | w ->
        let report, setup =
          match w with
          | "validate-600" -> probed Batch.validate
          | "mine-stream" -> probed Batch.stream
          | _ ->
              let dir, times, oks = primes opts ~work ~n:3 in
              let report = Batch.warm (batch ()) ~trace ~dir in
              let primed =
                List.mapi
                  (fun i ok -> { Batch.label = Printf.sprintf "priming run %d matches expected.txt" i; ok })
                  oks
              in
              ( { report with Batch.checks = primed @ report.Batch.checks;
                  notes = Printf.sprintf "priming runs [%s] s"
                            (String.concat " " (List.map (Printf.sprintf "%.3f") times))
                          :: report.Batch.notes },
                Measure.median times )
        in
        let checks = report.Batch.checks in
        ( List.length checks,
          List.length (List.filter (fun c -> not c.Batch.ok) checks),
          report.Batch.values
          @ [ ("peak_rss_mb", Measure.peak_rss_mb ()); ("setup_s", setup) ],
          report.Batch.notes
          @ List.filter_map
              (fun c -> if c.Batch.ok then None else Some ("FAILED check: " ^ c.Batch.label))
              checks )
  in
  let probe_after = Measure.host_probe_ms () in
  let values =
    values
    @ [
        ("error_rate", float_of_int failed /. float_of_int (max 1 attempted));
        ("host.probe_before_ms", probe_before);
        ("host.probe_after_ms", probe_after);
      ]
  in
  (* A traced run reports every per-layer metric; a layer the workload
     does not exercise reads 0. *)
  let values =
    if trace then
      values
      @ List.filter_map
          (fun m ->
            if List.mem_assoc m.Metrics.name values then None else Some (m.Metrics.name, 0.))
          Metrics.per_layer
    else values
  in
  List.iter (fun n -> print_endline ("# " ^ n)) notes;
  Printf.printf "# host probe: %.3f ms before, %.3f ms after\n" probe_before probe_after;
  if trace then Printf.printf "# spans written to %s\n" trace_file;
  print_endline (Metrics.result_line ~trace { Metrics.attempted; failed; values })

(* expected.txt: one line per family member. *)
let record () =
  print_endline "# corpus_seed validate-600-final-checks mine-5000-candidates validate-600-words";
  for member = 0 to Inputs.family - 1 do
    Gc.compact ();
    let v, _, words =
      Measure.measured (fun () ->
          Pipeline.run ~config:(Inputs.config ~member ~projects:Inputs.validate_projects ()) ())
    in
    let m = Pipeline.mine_only ~config:(Inputs.config ~member ~projects:Inputs.mine_projects ()) () in
    Printf.printf "%d %s %s %.0f\n%!" (Inputs.corpus_seed member)
      (Inputs.checks_digest v.Pipeline.final_checks)
      (Inputs.candidates_digest ~mined:m.Pipeline.mined ~candidates:m.Pipeline.candidates)
      words
  done

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "manifest" :: _ -> print_endline (Json.to_string ~pretty:true (Metrics.manifest ()))
  | "prime" :: args ->
      let opts = options args in
      let ctx =
        {
          Batch.seed = int_opt opts "--seed";
          seconds = 0.;
          table = Inputs.load_expected (get opts "--expected");
          work = Filename.dirname (get opts "--dir");
          trace_file = "";
          between = ignore;
        }
      in
      let checks, t = Host.timed (fun () -> Batch.prime ctx (get opts "--dir")) in
      if List.for_all (fun c -> c.Batch.ok) checks then Printf.printf "ok %.17g\n" t.Host.slowness
      else print_endline "failed"
  | "run" :: args -> run (options args)
  | "record" :: _ -> record ()
  | _ -> usage ()
