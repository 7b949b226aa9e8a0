(* Streaming shard pipeline tests: [Shard_stream.plan] unit cases, the
   shard-boundary invariance properties (fold at any shard size ≡
   monolithic, for corpus stats, the KB and every miner table family),
   checkpointed resume after a mid-run crash, corrupted-checkpoint
   fallback, a stage whose build folds checkpointed shards, the bounded
   observation table's grouping invariance past its cap, and the
   peak-RSS probe. *)

module Shard_stream = Zodiac_util.Shard_stream
module Stage = Zodiac_util.Stage
module Cache = Zodiac_util.Cache
module Codec = Zodiac_util.Codec
module Telemetry = Zodiac_util.Telemetry
module Rss = Zodiac_util.Rss
module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program
module Generator = Zodiac_corpus.Generator
module Kb = Zodiac_kb.Kb
module Miner = Zodiac_mining.Miner
module Candidate = Zodiac_mining.Candidate

let provider = Zodiac_azure.Azure.provider

(* ------------- helpers ------------------------------------------------ *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    (try
       Array.iter
         (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
         (Sys.readdir dir)
     with Sys_error _ -> ());
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let with_cache_dir name f =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* A small generated corpus shared by the invariance checks. *)
let corpus_n = 60

let projects =
  Miner.materialize ~provider
    (List.map
       (fun p -> p.Generator.program)
       (Generator.generate_range ~provider ~seed:7 ~lo:0 ~hi:corpus_n ()))

let slice lo hi = List.filteri (fun i _ -> i >= lo && i < hi) projects

let bytes_of write v =
  let b = Codec.sink () in
  write b v;
  Codec.contents b

let stats_bytes s = bytes_of Kb.write_stats s

(* Fold the shared corpus at [shard_size] through [Shard_stream.fold]
   with no cache; [load] slices the materialized list so every grouping
   sees identical projects. *)
let fold_stats ?cache ~shard_size () =
  Shard_stream.fold ?cache ~stage:"t-kb" ~key:"t-kb" ~write:Kb.write_stats
    ~read:Kb.read_stats
    ~load:(fun ~lo ~hi -> slice lo hi)
    ~count:Kb.stats_of_projects ~merge:Kb.merge_stats
    ~init:(Kb.stats_of_projects []) ~total:corpus_n ~shard_size ()

let fold_tables ?cache kb ~shard_size () =
  Shard_stream.fold ?cache ~stage:"t-mine" ~key:"t-mine"
    ~write:Miner.write_tables ~read:Miner.read_tables
    ~load:(fun ~lo ~hi -> slice lo hi)
    ~count:(Miner.count_tables ~provider Miner.default_config kb)
    ~merge:Miner.merge_tables
    ~init:(Miner.count_tables ~provider Miner.default_config kb [])
    ~total:corpus_n ~shard_size ()

(* ------------- plan units ---------------------------------------------- *)

let test_plan () =
  Alcotest.(check (list (triple int int int)))
    "empty corpus" [] (Shard_stream.plan ~total:0 ~shard_size:10);
  Alcotest.(check (list (triple int int int)))
    "shard_size 0 degenerates to one shard"
    [ (0, 0, 7) ]
    (Shard_stream.plan ~total:7 ~shard_size:0);
  Alcotest.(check (list (triple int int int)))
    "remainder shard is short"
    [ (0, 0, 4); (1, 4, 8); (2, 8, 10) ]
    (Shard_stream.plan ~total:10 ~shard_size:4);
  let plan = Shard_stream.plan ~total:1000 ~shard_size:64 in
  Alcotest.(check int) "shard count" 16 (List.length plan);
  Alcotest.(check bool)
    "ranges tile the corpus" true
    (List.for_all2
       (fun (i, lo, hi) (i', lo', _) -> i' = i + 1 && lo' = hi && hi > lo)
       (List.filteri (fun i _ -> i < 15) plan)
       (List.tl plan))

let test_shard_key () =
  let k1 = Shard_stream.shard_key ~key:"a" ~lo:0 ~hi:10 in
  let k2 = Shard_stream.shard_key ~key:"a" ~lo:10 ~hi:20 in
  let k3 = Shard_stream.shard_key ~key:"b" ~lo:0 ~hi:10 in
  Alcotest.(check bool) "ranges distinct" true (k1 <> k2);
  Alcotest.(check bool) "keys distinct" true (k1 <> k3)

(* ------------- shard-boundary invariance (qcheck) ----------------------- *)

let prop_shard_size_invariant =
  QCheck.Test.make ~name:"fold at any shard size ≡ monolithic" ~count:20
    QCheck.(pair (int_range 1 70) (int_range 1 70))
    (fun (k, k') ->
      let mono, _ = fold_stats ~shard_size:corpus_n () in
      let a, oa = fold_stats ~shard_size:k () in
      let b, _ = fold_stats ~shard_size:k' () in
      oa.Shard_stream.shards = (corpus_n + k - 1) / k
      && String.equal (stats_bytes mono) (stats_bytes a)
      && String.equal (stats_bytes mono) (stats_bytes b))

let prop_tables_invariant =
  QCheck.Test.make ~name:"miner tables fold ≡ monolithic mine" ~count:12
    QCheck.(int_range 1 70)
    (fun k ->
      let kb = Kb.finalize ~provider (fst (fold_stats ~shard_size:k ())) in
      let tables, _ = fold_tables kb ~shard_size:k () in
      let streamed = Miner.emit_tables Miner.default_config kb tables in
      let mono = Miner.mine ~provider ~config:Miner.default_config kb projects in
      String.equal
        (bytes_of (Codec.write_list Candidate.write) streamed)
        (bytes_of (Codec.write_list Candidate.write) mono))

(* ------------- checkpointed resume -------------------------------------- *)

exception Crash

let test_resume_after_crash () =
  with_cache_dir "zodiac-test-stream-resume" (fun dir ->
      let cache = Cache.create ~dir () in
      let reference, _ = fold_stats ~shard_size:13 () in
      (* Crash after two shards have been counted and checkpointed. *)
      let calls = ref 0 in
      (try
         ignore
           (Shard_stream.fold ~cache ~stage:"t-kb" ~key:"t-kb"
              ~write:Kb.write_stats ~read:Kb.read_stats
              ~load:(fun ~lo ~hi -> slice lo hi)
              ~count:(fun ps ->
                incr calls;
                if !calls > 2 then raise Crash;
                Kb.stats_of_projects ps)
              ~merge:Kb.merge_stats ~init:(Kb.stats_of_projects [])
              ~total:corpus_n ~shard_size:13 ());
         Alcotest.fail "crash did not propagate"
       with Crash -> ());
      (* The rerun resumes the two finished shards and counts the rest. *)
      let resumed, outcome = fold_stats ~cache ~shard_size:13 () in
      Alcotest.(check int) "shards" 5 outcome.Shard_stream.shards;
      Alcotest.(check int) "resumed" 2 outcome.Shard_stream.resumed;
      Alcotest.(check int) "built" 3 outcome.Shard_stream.built;
      Alcotest.(check bool)
        "resumed fold ≡ uncached fold" true
        (String.equal (stats_bytes reference) (stats_bytes resumed));
      (* A second full run resumes everything. *)
      let warm, outcome = fold_stats ~cache ~shard_size:13 () in
      Alcotest.(check int) "all resumed" 5 outcome.Shard_stream.resumed;
      Alcotest.(check bool)
        "warm fold ≡ uncached fold" true
        (String.equal (stats_bytes reference) (stats_bytes warm)))

let test_corrupt_checkpoint_fallback () =
  with_cache_dir "zodiac-test-stream-corrupt" (fun dir ->
      let cache = Cache.create ~dir () in
      let reference, _ = fold_stats ~cache ~shard_size:20 () in
      Array.iter
        (fun f ->
          let path = Filename.concat dir f in
          let ic = open_in_bin path in
          let n = in_channel_length ic in
          let data = Bytes.of_string (really_input_string ic n) in
          close_in ic;
          let mid = n / 2 in
          Bytes.set data mid
            (Char.chr (Char.code (Bytes.get data mid) lxor 0xff));
          let oc = open_out_bin path in
          output_bytes oc data;
          close_out oc)
        (Sys.readdir dir);
      let rebuilt, outcome = fold_stats ~cache ~shard_size:20 () in
      Alcotest.(check int) "nothing resumed" 0 outcome.Shard_stream.resumed;
      Alcotest.(check int) "all rebuilt" 3 outcome.Shard_stream.built;
      Alcotest.(check bool)
        "rebuilt fold ≡ original" true
        (String.equal (stats_bytes reference) (stats_bytes rebuilt)))

(* ------------- a stage whose build folds shards ------------------------ *)

(* The build folds four-item shards through the cache [Stage.run] hands
   it, so a cold run also leaves per-shard checkpoints behind. *)
let streamed_stage ?(folds = ref 0) () =
  let int_list = Codec.read_list Codec.read_int in
  let write_ints b xs = Codec.write_list Codec.write_int b xs in
  {
    Stage.name = "toy-stream";
    key = Codec.fingerprint [ "toy-stream" ];
    size = None;
    artifact = { Stage.write = write_ints; read = int_list };
    build =
      (fun ~cache ~telemetry ~jobs:_ ->
        incr folds;
        fst
          (Shard_stream.fold ?cache ~telemetry ~stage:"toy-shard"
             ~key:"toy-shard" ~write:write_ints ~read:int_list
             ~load:(fun ~lo ~hi -> List.init (hi - lo) (fun i -> lo + i))
             ~count:(List.map (fun i -> i * i))
             ~merge:(fun acc xs -> acc @ xs)
             ~init:[] ~total:10 ~shard_size:4 ()));
  }

let test_stage_streamed_warm () =
  with_cache_dir "zodiac-test-stream-stage" (fun dir ->
      let cache = Cache.create ~dir () in
      let folds = ref 0 in
      let traced f =
        let t = Telemetry.create () in
        ignore (f t);
        t
      in
      let source_of f =
        match Telemetry.spans (traced f) with
        | s :: _ -> List.assoc_opt "source" s.Telemetry.notes
        | [] -> None
      in
      Alcotest.(check (option string))
        "no cache -> uncached" (Some "uncached")
        (source_of (fun telemetry ->
             Stage.run ~telemetry (streamed_stage ~folds ())));
      Alcotest.(check (option string))
        "first cached run -> cold" (Some "cold")
        (source_of (fun telemetry ->
             Stage.run ~cache ~telemetry (streamed_stage ~folds ())));
      Alcotest.(check (option string))
        "second cached run -> warm" (Some "warm")
        (source_of (fun telemetry ->
             Stage.run ~cache ~telemetry (streamed_stage ~folds ())));
      Alcotest.(check int) "warm run did not fold" 2 !folds;
      (* without the final artifact, the build resumes every checkpoint
         the cold run left and counts nothing *)
      Array.iter
        (fun f ->
          if String.starts_with ~prefix:"toy-stream-" f then
            Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      let t =
        traced (fun telemetry ->
            Stage.run ~cache ~telemetry (streamed_stage ~folds ()))
      in
      let total name =
        Option.value ~default:0 (List.assoc_opt name (Telemetry.totals t))
      in
      Alcotest.(check int) "all shards resumed" 3 (total "shard.resumed");
      Alcotest.(check int) "no shard rebuilt" 0 (total "shard.built"))

(* ------------- bounded observation table -------------------------------- *)

(* Push one attribute past the cap and check that (a) the cap is
   enforced with an exact residue and enum inference stays off, and
   (b) stats are byte-identical whether counted whole or in slices —
   the grouping invariance the streamed KB fold relies on. *)
let test_observation_cap () =
  let n = Kb.max_observed_values + 150 in
  let mk i =
    Program.of_resources
      [
        Resource.make "SA" (Printf.sprintf "sa%05d" i)
          [ ("name", Value.Str (Printf.sprintf "sa%05d" i)) ];
      ]
  in
  let all = List.init n mk in
  let whole = Kb.stats_of_projects all in
  let halves =
    Kb.merge_stats
      (Kb.stats_of_projects (List.filteri (fun i _ -> i < n / 3) all))
      (Kb.stats_of_projects (List.filteri (fun i _ -> i >= n / 3) all))
  in
  Alcotest.(check bool)
    "capped stats grouping-invariant" true
    (String.equal (stats_bytes whole) (stats_bytes halves));
  match Kb.attr_info (Kb.finalize ~provider whole) ~rtype:"SA" ~attr:"name" with
  | None -> Alcotest.fail "SA.name missing"
  | Some info ->
      Alcotest.(check int)
        "kept entries at the cap" Kb.max_observed_values
        (List.length info.Kb.observed);
      Alcotest.(check int) "total counts whole corpus" n info.Kb.observed_total;
      Alcotest.(check (list bool))
        "capped attribute is not enum-like" []
        (List.map (fun _ -> true) info.Kb.enum_values)

(* ------------- peak RSS probe ------------------------------------------- *)

let test_rss_probe () =
  match Rss.peak_rss_kb () with
  | None -> () (* not a Linux /proc — probe reports None, nothing to check *)
  | Some kb ->
      Alcotest.(check bool) "peak is positive" true (kb > 0);
      ignore (Rss.reset_peak ());
      (match Rss.peak_rss_kb () with
      | Some kb' -> Alcotest.(check bool) "still readable" true (kb' > 0)
      | None -> Alcotest.fail "probe vanished after reset")

let () =
  Alcotest.run "stream"
    [
      ( "plan",
        [
          Alcotest.test_case "plan" `Quick test_plan;
          Alcotest.test_case "shard keys" `Quick test_shard_key;
        ] );
      ( "invariance",
        [
          QCheck_alcotest.to_alcotest prop_shard_size_invariant;
          QCheck_alcotest.to_alcotest prop_tables_invariant;
        ] );
      ( "checkpoints",
        [
          Alcotest.test_case "resume after crash" `Quick
            test_resume_after_crash;
          Alcotest.test_case "corrupt checkpoint fallback" `Quick
            test_corrupt_checkpoint_fallback;
        ] );
      ( "stage",
        [ Alcotest.test_case "streamed stage paths" `Quick
            test_stage_streamed_warm ] );
      ( "kb-cap",
        [ Alcotest.test_case "bounded observation table" `Quick
            test_observation_cap ] );
      ("rss", [ Alcotest.test_case "probe" `Quick test_rss_probe ]);
    ]
