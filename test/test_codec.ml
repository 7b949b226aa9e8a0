(* Codec and warm-start cache tests: exact round-trips (qcheck over the
   primitives and real pipeline artifacts), the KB stats monoid/delta
   property, corruption and stale-version fallback, cold-vs-warm
   pipeline equality, and re-mining a warm cache at another
   [min_support] without counting. *)

module Codec = Zodiac_util.Codec
module Cache = Zodiac_util.Cache
module Telemetry = Zodiac_util.Telemetry
module Generator = Zodiac_corpus.Generator
module Kb = Zodiac_kb.Kb
module Miner = Zodiac_mining.Miner
module Candidate = Zodiac_mining.Candidate
module Check = Zodiac_spec.Check
module Pipeline = Zodiac.Pipeline

let roundtrip write read v =
  let b = Codec.sink () in
  write b v;
  read (Codec.src_of_string (Codec.contents b))

let bytes_of write v =
  let b = Codec.sink () in
  write b v;
  Codec.contents b

(* ------------- primitive round-trips (qcheck) ------------------------- *)

let prop_int_roundtrip =
  QCheck.Test.make ~name:"int round-trips" ~count:500
    QCheck.(
      frequency
        [
          (4, int); (1, small_signed_int);
          (1, oneofl [ min_int; max_int; 0; -1; 1; min_int + 1; max_int - 1 ]);
        ])
    (fun i -> roundtrip Codec.write_int Codec.read_int i = i)

let prop_float_roundtrip =
  QCheck.Test.make ~name:"float round-trips bit-exactly" ~count:500
    QCheck.(
      frequency
        [ (4, float); (1, oneofl [ 0.0; -0.0; infinity; neg_infinity; nan ]) ])
    (fun f ->
      Int64.equal
        (Int64.bits_of_float (roundtrip Codec.write_float Codec.read_float f))
        (Int64.bits_of_float f))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"string round-trips" ~count:300 QCheck.string (fun s ->
      String.equal (roundtrip Codec.write_string Codec.read_string s) s)

let prop_list_option_roundtrip =
  QCheck.Test.make ~name:"int option list round-trips" ~count:300
    QCheck.(list (option int))
    (fun xs ->
      roundtrip
        (Codec.write_list (Codec.write_option Codec.write_int))
        (Codec.read_list (Codec.read_option Codec.read_int))
        xs
      = xs)

let prop_table_canonical =
  QCheck.Test.make ~name:"tables serialize insertion-order independently"
    ~count:100
    QCheck.(list (pair small_string int))
    (fun rows ->
      (* same bindings, opposite insertion orders *)
      let mk rows =
        let t = Hashtbl.create 16 in
        List.iter (fun (k, v) -> Hashtbl.replace t k v) rows;
        t
      in
      let fwd = mk rows and bwd = mk (List.rev rows) in
      (* replace semantics: last binding wins in fwd, first in bwd, so
         only compare when the keys are distinct *)
      let distinct =
        List.length rows
        = List.length (List.sort_uniq compare (List.map fst rows))
      in
      QCheck.assume distinct;
      String.equal
        (bytes_of (Codec.write_table Codec.write_string Codec.write_int) fwd)
        (bytes_of (Codec.write_table Codec.write_string Codec.write_int) bwd))

(* ------------- artifact round-trips ----------------------------------- *)

let provider = Zodiac_azure.Azure.provider
let projects = Generator.generate ~provider ~seed:7 ~count:12 ()

let test_project_roundtrip () =
  let decoded =
    roundtrip
      (Codec.write_list Generator.write_project)
      (Codec.read_list Generator.read_project)
      projects
  in
  Alcotest.(check int)
    "count" (List.length projects) (List.length decoded);
  List.iter2
    (fun (p : Generator.project) (q : Generator.project) ->
      Alcotest.(check string) "pname" p.Generator.pname q.Generator.pname;
      Alcotest.(check string) "scenario" p.Generator.scenario q.Generator.scenario;
      Alcotest.(check (list string)) "injected" p.Generator.injected q.Generator.injected)
    projects decoded;
  (* write o read o write = write: the serialized form is a fixed point *)
  Alcotest.(check bool)
    "bytes stable" true
    (String.equal
       (bytes_of (Codec.write_list Generator.write_project) projects)
       (bytes_of (Codec.write_list Generator.write_project) decoded))

let programs =
  Miner.materialize ~provider (List.map (fun p -> p.Generator.program) projects)

let test_kb_stats_roundtrip_and_monoid () =
  let full = Kb.stats_of_projects programs in
  let k = List.length programs / 2 in
  let prefix = List.filteri (fun i _ -> i < k) programs in
  let tail = List.filteri (fun i _ -> i >= k) programs in
  let merged =
    Kb.merge_stats (Kb.stats_of_projects prefix) (Kb.stats_of_projects tail)
  in
  Alcotest.(check bool)
    "merge of prefix+delta serializes identically to full" true
    (String.equal (bytes_of Kb.write_stats merged) (bytes_of Kb.write_stats full));
  let decoded = roundtrip Kb.write_stats Kb.read_stats full in
  Alcotest.(check bool)
    "stats round-trip bytes" true
    (String.equal (bytes_of Kb.write_stats decoded) (bytes_of Kb.write_stats full));
  let kb_full = Kb.finalize ~provider full and kb_dec = Kb.finalize ~provider decoded in
  Alcotest.(check int) "kb size" (Kb.size kb_full) (Kb.size kb_dec);
  Alcotest.(check (list string)) "kb types" (Kb.types kb_full) (Kb.types kb_dec);
  Alcotest.(check int)
    "conn kinds"
    (List.length (Kb.conn_kinds kb_full))
    (List.length (Kb.conn_kinds kb_dec))

let test_candidate_roundtrip () =
  let kb = Kb.build ~provider ~projects:programs () in
  let mined = Miner.mine ~provider kb programs in
  Alcotest.(check bool) "mined something" true (mined <> []);
  List.iter
    (fun (c : Candidate.t) ->
      let d = roundtrip Candidate.write Candidate.read c in
      Alcotest.(check string) "cid" c.Candidate.check.Check.cid d.Candidate.check.Check.cid;
      Alcotest.(check string) "template" c.Candidate.template_id d.Candidate.template_id;
      Alcotest.(check int) "support" c.Candidate.support d.Candidate.support;
      Alcotest.(check bool)
        "confidence bits" true
        (Int64.equal
           (Int64.bits_of_float c.Candidate.confidence)
           (Int64.bits_of_float d.Candidate.confidence));
      Alcotest.(check bool)
        "lift bits" true
        (Int64.equal
           (Int64.bits_of_float c.Candidate.lift)
           (Int64.bits_of_float d.Candidate.lift));
      Alcotest.(check bool)
        "needs_interpolation" c.Candidate.needs_interpolation
        d.Candidate.needs_interpolation;
      Alcotest.(check bool)
        "check bytes" true
        (String.equal (bytes_of Check.write c.Candidate.check)
           (bytes_of Check.write d.Candidate.check)))
    mined

(* ------------- envelope invalidation ---------------------------------- *)

let test_envelope () =
  let sealed = Codec.encode ~stage:"t" (fun b -> Codec.write_int b 42) in
  (match Codec.decode ~stage:"t" sealed Codec.read_int with
  | Ok v -> Alcotest.(check int) "decodes" 42 v
  | Error e -> Alcotest.failf "decode failed: %s" e);
  Alcotest.(check bool)
    "stage mismatch rejected" true
    (Result.is_error (Codec.decode ~stage:"other" sealed Codec.read_int));
  (* corrupt one payload byte: the checksum must catch it *)
  let corrupt = Bytes.of_string sealed in
  let mid = Bytes.length corrupt / 2 in
  Bytes.set corrupt mid
    (Char.chr (Char.code (Bytes.get corrupt mid) lxor 0x01));
  Alcotest.(check bool)
    "corruption rejected" true
    (Result.is_error
       (Codec.decode ~stage:"t" (Bytes.to_string corrupt) Codec.read_int));
  (* a stale codec version (byte 4, right after the 4-byte magic) must
     be rejected even with an intact payload *)
  let stale = Bytes.of_string sealed in
  Bytes.set stale 4 (Char.chr (Char.code (Bytes.get stale 4) lxor 0x7f));
  Alcotest.(check bool)
    "stale version rejected" true
    (Result.is_error
       (Codec.decode ~stage:"t" (Bytes.to_string stale) Codec.read_int))

(* ------------- cache store ------------------------------------------- *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let with_tmp_cache name f =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_cache_store () =
  with_tmp_cache "zodiac-test-cache" (fun dir ->
      let c = Cache.create ~dir () in
      Alcotest.(check (option int))
        "empty cache misses" None
        (Cache.find c ~stage:"s" ~key:"k" Codec.read_int);
      Cache.store c ~stage:"s" ~key:"k" (fun b -> Codec.write_int b 7);
      Alcotest.(check (option int))
        "store then find" (Some 7)
        (Cache.find c ~stage:"s" ~key:"k" Codec.read_int);
      Cache.store c ~stage:"s" ~key:"k" ~size:10 (fun b -> Codec.write_int b 10);
      Cache.store c ~stage:"s" ~key:"k" ~size:3 (fun b -> Codec.write_int b 3);
      Alcotest.(check (option int))
        "sized entry" (Some 3)
        (Cache.find c ~stage:"s" ~key:"k" ~size:3 Codec.read_int);
      Alcotest.(check (option int))
        "sizes address distinct entries" (Some 10)
        (Cache.find c ~stage:"s" ~key:"k" ~size:10 Codec.read_int);
      let s = Cache.stats c in
      Alcotest.(check int) "writes counted" 3 s.Cache.writes;
      (* corrupt every file on disk: every find must degrade to a miss *)
      Array.iter
        (fun f ->
          let path = Filename.concat dir f in
          let ic = open_in_bin path in
          let n = in_channel_length ic in
          let data = Bytes.of_string (really_input_string ic n) in
          close_in ic;
          Bytes.set data (n / 2)
            (Char.chr (Char.code (Bytes.get data (n / 2)) lxor 0xff));
          let oc = open_out_bin path in
          output_bytes oc data;
          close_out oc)
        (Sys.readdir dir);
      Alcotest.(check (option int))
        "corrupt entry is a miss" None
        (Cache.find c ~stage:"s" ~key:"k" Codec.read_int))

(* ------------- cold vs warm pipeline ---------------------------------- *)

let test_pipeline_warm_equals_cold () =
  with_tmp_cache "zodiac-test-warm" (fun dir ->
      let config =
        {
          Pipeline.default_config with
          Pipeline.corpus_size = 60;
          cache_dir = Some dir;
        }
      in
      let cids (a : Pipeline.artifacts) =
        List.map (fun (c : Check.t) -> c.Check.cid) a.Pipeline.candidates
      in
      let corpus_bytes (a : Pipeline.artifacts) =
        bytes_of (Codec.write_list Generator.write_project) a.Pipeline.projects
      in
      let cold = Pipeline.mine_only ~config () in
      let warm = Pipeline.mine_only ~config () in
      Alcotest.(check (list string)) "candidate cids" (cids cold) (cids warm);
      Alcotest.(check int)
        "mined count"
        (List.length cold.Pipeline.mined)
        (List.length warm.Pipeline.mined);
      Alcotest.(check int) "kb size" (Kb.size cold.Pipeline.kb) (Kb.size warm.Pipeline.kb);
      Alcotest.(check bool)
        "corpus bytes identical" true
        (String.equal (corpus_bytes cold) (corpus_bytes warm));
      Alcotest.(check bool)
        "warm run hit the cache" true
        (warm.Pipeline.cache_stats.Cache.hits > 0);
      Alcotest.(check int)
        "warm run never missed" 0 warm.Pipeline.cache_stats.Cache.misses;
      (* a grown corpus is a new cache address: the run over the warm
         cache must still match a cold run at the larger size *)
      let grown = { config with Pipeline.corpus_size = 75 } in
      let rebuilt = Pipeline.mine_only ~config:grown () in
      let cold75 =
        Pipeline.mine_only ~config:{ grown with Pipeline.cache_dir = None } ()
      in
      Alcotest.(check (list string))
        "grown-corpus candidate cids" (cids cold75) (cids rebuilt);
      Alcotest.(check bool)
        "grown-corpus corpus bytes identical" true
        (String.equal (corpus_bytes cold75) (corpus_bytes rebuilt)))

(* Re-mining a warm cache at another [min_support] resumes the
   miner-table checkpoint (which [min_support] does not key) instead of
   counting, and still equals a cold run at that [min_support]. *)
let test_remine_min_support () =
  with_tmp_cache "zodiac-test-remine" (fun dir ->
      let config =
        {
          Pipeline.default_config with
          Pipeline.corpus_size = 60;
          cache_dir = Some dir;
        }
      in
      ignore (Pipeline.mine_only ~config ());
      let remine =
        {
          config with
          Pipeline.mining =
            { config.Pipeline.mining with Miner.min_support = 7 };
        }
      in
      let telemetry = Telemetry.create () in
      let warm = Pipeline.mine_only ~config:remine ~telemetry () in
      let total name =
        Option.value ~default:0 (List.assoc_opt name (Telemetry.totals telemetry))
      in
      Alcotest.(check int) "no shard built" 0 (total "shard.built");
      Alcotest.(check int) "mine checkpoint resumed" 1 (total "shard.resumed");
      let cold =
        Pipeline.mine_only ~config:{ remine with Pipeline.cache_dir = None } ()
      in
      let mined_bytes (a : Pipeline.artifacts) =
        bytes_of (Codec.write_list Candidate.write) a.Pipeline.mined
      in
      Alcotest.(check bool)
        "mined bytes equal a cold run" true
        (String.equal (mined_bytes cold) (mined_bytes warm));
      Alcotest.(check (list string))
        "candidate cids"
        (List.map (fun (c : Check.t) -> c.Check.cid) cold.Pipeline.candidates)
        (List.map (fun (c : Check.t) -> c.Check.cid) warm.Pipeline.candidates))

(* A cold cached run mines its corpus as one shard; the final "kb"
   entry then holds the KB statistics, and no "shard-kb" checkpoint
   duplicates it. Warm runs still load every artifact byte for byte. *)
let test_kb_stats_stored_once () =
  with_tmp_cache "zodiac-test-kb-once" (fun dir ->
      let config =
        {
          Pipeline.default_config with
          Pipeline.corpus_size = 60;
          cache_dir = Some dir;
        }
      in
      let artifact_bytes (a : Pipeline.artifacts) =
        ( (Kb.size a.Pipeline.kb, Kb.conn_kinds a.Pipeline.kb),
          bytes_of (Codec.write_list Candidate.write) a.Pipeline.mined,
          List.map (fun (c : Check.t) -> c.Check.cid) a.Pipeline.candidates )
      in
      let cold = Pipeline.mine_only ~config () in
      let entries prefix =
        List.length
          (List.filter (String.starts_with ~prefix) (Array.to_list (Sys.readdir dir)))
      in
      Alcotest.(check int) "one final kb entry" 1 (entries "kb-");
      Alcotest.(check int) "no shard-kb checkpoint" 0 (entries "shard-kb-");
      Alcotest.(check int) "shard-mine checkpoint kept" 1 (entries "shard-mine-");
      let warm = Pipeline.mine_only ~config () in
      let again = Pipeline.mine_only ~config () in
      Alcotest.(check bool)
        "warm = cold bytes" true
        (artifact_bytes cold = artifact_bytes warm);
      Alcotest.(check bool)
        "second warm = cold bytes" true
        (artifact_bytes cold = artifact_bytes again);
      Alcotest.(check int) "warm run never missed" 0 again.Pipeline.cache_stats.Cache.misses)

let () =
  Alcotest.run "codec"
    [
      ( "primitives",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_int_roundtrip; prop_float_roundtrip; prop_string_roundtrip;
            prop_list_option_roundtrip; prop_table_canonical;
          ] );
      ( "artifacts",
        [
          Alcotest.test_case "corpus projects round-trip" `Quick
            test_project_roundtrip;
          Alcotest.test_case "kb stats round-trip + monoid" `Quick
            test_kb_stats_roundtrip_and_monoid;
          Alcotest.test_case "mined candidates round-trip" `Quick
            test_candidate_roundtrip;
        ] );
      ( "envelope",
        [ Alcotest.test_case "seal, corrupt, stale version" `Quick test_envelope ] );
      ( "cache",
        [ Alcotest.test_case "store/find/sizes/corrupt" `Quick test_cache_store ] );
      ( "pipeline",
        [
          Alcotest.test_case "cold = warm = incremental" `Slow
            test_pipeline_warm_equals_cold;
          Alcotest.test_case "re-mine at another min_support" `Slow
            test_remine_min_support;
          Alcotest.test_case "kb statistics stored once" `Slow
            test_kb_stats_stored_once;
        ] );
    ]
