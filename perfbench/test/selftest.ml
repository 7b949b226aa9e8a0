(* Self-tests of the benchmark itself (python3 perfbench/run.py --selftest).

   - BENCHMARK.json is exactly what the declarations generate;
   - metric names and units are well formed and unique;
   - the percentile helper is right on a fixed sample and refuses a
     tail percentile with fewer than ten samples beyond it;
   - allocation repeats exactly across two in-process runs of a small
     configuration at jobs=1, measured as the workloads measure it:
     with the host-speed timer sampling inside the timed region;
   - the host-speed timer ticks while a timed region runs, and the
     region's wall time leaves the ticks out;
   - every workload, untraced and traced, prints a result line carrying
     every declared metric with its unit, and passes its output checks
     (skipped with --quick). *)

open Perfbench
module Json = Zodiac_util.Json
module Pipeline = Zodiac.Pipeline

let failures = ref 0

let check label ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") label;
  if not ok then incr failures

let manifest_matches file =
  let text = In_channel.with_open_bin file In_channel.input_all in
  check "BENCHMARK.json matches the declarations"
    (match Json.of_string_result text with
    | Ok json -> Json.equal json (Metrics.manifest ())
    | Error _ -> false)

let names () =
  let all = Metrics.end_to_end @ Metrics.per_layer in
  let names = List.map (fun m -> m.Metrics.name) all @ Metrics.workload_names in
  check "names match [A-Za-z0-9_.-]+ and start with a letter or digit"
    (List.for_all Metrics.valid_name names);
  check "metric names are unique"
    (List.length (List.sort_uniq compare names) = List.length names);
  check "units are well formed" (List.for_all (fun m -> Metrics.valid_unit m.Metrics.unit_) all);
  check "setup_s is an end-to-end metric in s, lower is better"
    (List.exists
       (fun m -> m.Metrics.name = "setup_s" && m.Metrics.unit_ = "s" && m.Metrics.better = "lower")
       Metrics.end_to_end);
  check "every end-to-end bound is in (0, 0.25]"
    (List.for_all
       (fun m -> match m.Metrics.bound with Some b -> b > 0. && b <= 0.25 | None -> false)
       Metrics.end_to_end)

let percentiles () =
  let sample n = List.init n (fun i -> float_of_int (n - i)) in
  check "p99 of 1..1000 is 990" (Measure.percentile 99. (sample 1000) = Ok 990.);
  check "p50 of 1..1000 is 500" (Measure.percentile 50. (sample 1000) = Ok 500.);
  check "p99 of 999 samples is refused (9 beyond)"
    (Result.is_error (Measure.percentile 99. (sample 999)));
  check "p90 of 100 samples is 90" (Measure.percentile 90. (sample 100) = Ok 90.);
  check "p90 of 99 samples is refused" (Result.is_error (Measure.percentile 90. (sample 99)));
  check "median of an odd sample" (Measure.median [ 3.; 1.; 2. ] = 2.);
  check "median of an even sample" (Measure.median [ 4.; 1.; 3.; 2. ] = 2.5)

let alloc_repeats () =
  let config = Inputs.config ~member:5 ~projects:120 () in
  let words () =
    (Batch.timed_rep (fun () ->
         ignore (Pipeline.run ~config ());
         []))
      .Batch.words
  in
  (* The first run in a process also pays the library's one-off lazy
     initialisation; from the second on, every run must allocate the
     same words. *)
  let first = words () in
  let a = words () in
  let b = words () in
  Printf.printf "     Pipeline.run at 120 projects: %.0f (first in process), %.0f, %.0f words\n"
    first a b;
  check "alloc_mwords repeats exactly at jobs=1" (Float.equal a b && a > 0.)

let host_sampling () =
  let before = !Host.count in
  let busy () =
    let t0 = Measure.now () in
    while Measure.now () -. t0 < 0.3 do
      ignore (Sys.opaque_identity (Host.chains ()))
    done
  in
  let t0 = Measure.now () in
  let (), t = Host.timed busy in
  let region = Measure.now () -. t0 in
  let ticks = !Host.count - before in
  Printf.printf "     0.3 s region: %d ticks, wall %.3f s, slowness %.2f\n" ticks t.Host.wall
    t.Host.slowness;
  check "the host-speed timer ticks inside a timed region" (ticks >= 2 + 4);
  check "a timed region's wall time leaves its ticks out"
    (t.Host.wall > 0. && t.Host.wall < region && t.Host.slowness > 0.)

(* ---- full runs ---------------------------------------------------- *)

let last_line text =
  match List.rev (List.filter (fun l -> l <> "") (String.split_on_char '\n' text)) with
  | l :: _ -> l
  | [] -> ""

let run_workload ~main ~common workload trace =
  let argv =
    Array.of_list
      ([ main; "run"; "--workload"; workload; "--seed"; "1"; "--seconds"; "1"; "--trace";
         (if trace then "1" else "0") ]
      @ common)
  in
  let ic = Unix.open_process_args_in main argv in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let label = Printf.sprintf "%s --trace %d" workload (if trace then 1 else 0) in
  check (label ^ " exits 0") (status = Unix.WEXITED 0);
  match Json.of_string_result (last_line out) with
  | Error e -> check (label ^ " result line parses: " ^ e) false
  | Ok json ->
      let keys = match json with Json.Obj kvs -> List.map fst kvs | _ -> [] in
      check (label ^ " result has exactly correct/attempted/failed/metrics")
        (keys = [ "correct"; "attempted"; "failed"; "metrics" ]);
      check (label ^ " is correct with no failed check")
        (Json.member "correct" json = Json.Bool true
        && Json.member "failed" json = Json.Int 0
        && Option.value ~default:0 (Json.int_value (Json.member "attempted" json)) >= 1);
      let metrics = match Json.member "metrics" json with Json.Obj kvs -> kvs | _ -> [] in
      let declared = Metrics.declared ~trace in
      check (label ^ " emits exactly the declared metrics")
        (List.map fst metrics = List.map (fun m -> m.Metrics.name) declared);
      check (label ^ " gives each metric its declared unit and a number")
        (List.for_all
           (fun m ->
             match List.assoc_opt m.Metrics.name metrics with
             | Some v ->
                 Json.member "unit" v = Json.String m.Metrics.unit_
                 && Option.is_some (Json.float_value (Json.member "value" v))
             | None -> false)
           declared);
      if not trace then
        check (label ^ " end-to-end metrics are never 0")
          (List.for_all
             (fun (_, v) -> Json.float_value (Json.member "value" v) <> Some 0.)
             metrics)

let () =
  let rec opts acc = function
    | "--quick" :: rest -> opts (("--quick", "") :: acc) rest
    | k :: v :: rest -> opts ((k, v) :: acc) rest
    | _ -> acc
  in
  let o = opts [] (List.tl (Array.to_list Sys.argv)) in
  manifest_matches (List.assoc "--manifest-file" o);
  names ();
  percentiles ();
  alloc_repeats ();
  host_sampling ();
  if not (List.mem_assoc "--quick" o) then begin
    let main = Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "src/main.exe" in
    let common =
      List.concat_map
        (fun k -> [ k; List.assoc k o ])
        [ "--zodiac"; "--expected"; "--work" ]
    in
    List.iter
      (fun w -> List.iter (run_workload ~main ~common w) [ false; true ])
      Metrics.workload_names
  end;
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end;
  print_endline "all self-tests passed"
