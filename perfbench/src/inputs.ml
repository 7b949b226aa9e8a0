(* Workload inputs, all derived from the benchmark's [--seed]: pipeline
   configurations for the batch workloads, the serve request stream,
   and the digests the output checks compare. *)

module Pipeline = Zodiac.Pipeline
module Checkset = Zodiac.Checkset
module Json = Zodiac_util.Json
module Prng = Zodiac_util.Prng
module Provider = Zodiac_provider.Provider
module Providers = Zodiac_providers.Providers
module Generator = Zodiac_corpus.Generator
module Candidate = Zodiac_mining.Candidate

(* ---- batch workloads ------------------------------------------------ *)

(* Corpus seeds form a family of [family] consecutive seeds starting at
   the CLI default (member 0 is exactly [zodiac validate]'s corpus); the
   expected-digest file records every member, so each run's output can
   be checked against a reference recorded outside the timed path.
   [corpus_seed ~member] maps any integer onto the family. *)
let family = 32
let corpus_seed member = Pipeline.default_config.corpus_seed + (((member mod family) + family) mod family)


let validate_projects = 600
let mine_projects = 5000
let shard_size = 500

let config ?cache_dir ~member ~projects () =
  {
    Pipeline.default_config with
    corpus_seed = corpus_seed member;
    corpus_size = projects;
    jobs = 1;
    cache_dir;
  }

let md5 s = Digest.to_hex (Digest.string s)

(* Digest of the final check set as [zodiac validate -o] would save it. *)
let checks_digest checks = md5 (Json.to_string (Checkset.to_json checks))

(* Digest of the mined candidates and the deduplicated validation input. *)
let candidates_digest ~mined ~candidates =
  md5
    (String.concat "\n" (List.map Candidate.describe mined)
    ^ "\n--\n"
    ^ Json.to_string (Checkset.to_json candidates))

(* expected.txt: one line per family member,
   "<corpus_seed> <validate-600 final checks> <mine-5000 candidates> <words>"
   — two digests and the words a cold validate-600 run of the member
   allocates at jobs=1, which only serves to stratify (below). *)
type expected = { final_checks : string; mined : string; validate_words : int }

let load_expected path =
  match open_in path with
  | exception Sys_error e -> failwith ("expected digests: " ^ e)
  | ic ->
      let table = Hashtbl.create family in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" && line.[0] <> '#' then
             Scanf.sscanf line "%d %s %s %d" (fun s v m words ->
                 Hashtbl.replace table s { final_checks = v; mined = m; validate_words = words })
         done
       with End_of_file -> close_in ic);
      table

(* Validation cost varies between corpora, so a run of [count] corpora
   draws one member from each of [count] cost strata: the family sorted
   by recorded allocation (which tracks validate time closely, and is
   exact) and cut into [count] consecutive slices. Strata are paired:
   where a seed takes the k-th cheapest member of one stratum, it takes
   the k-th dearest of the next, so a run's total work varies little
   between seeds. Consecutive seeds walk the strata; every member is
   used by some seed. The dearest stratum runs first: later, cheaper
   corpora then fit in the heap it grew, so the run's peak RSS follows
   its member rather than the order of the rest. *)
let validate_members table ~seed ~count =
  let ranked =
    List.sort
      (fun a b -> compare (fst a) (fst b))
      (List.init family (fun m ->
           match Hashtbl.find_opt table (corpus_seed m) with
           | Some e -> ((e.validate_words, m), m)
           | None -> failwith "expected.txt does not cover the corpus family"))
  in
  let members = Array.of_list (List.map snd ranked) in
  let pairs = count / 2 in
  List.rev @@ List.init count (fun i ->
      let lo = i * family / count and hi = (i + 1) * family / count in
      let size = hi - lo in
      let rank = (((seed + (i / 2 * size / max 1 pairs)) mod size) + size) mod size in
      members.(lo + if i mod 2 = 1 then size - 1 - rank else rank))

let expected table ~member =
  match Hashtbl.find_opt table (corpus_seed member) with
  | Some e -> e
  | None ->
      failwith
        (Printf.sprintf "expected.txt has no entry for corpus seed %d"
           (corpus_seed member))

(* ---- serve-scan request stream --------------------------------------- *)

type request = {
  index : int;
  path : string;
  source : string;
  provider : Provider.t;  (** the backend the source was generated for *)
}

let aws = Option.get (Providers.find "aws")
let azure = Providers.default

(* [count] scan_file requests with a fixed composition, so runs differ
   in content but not in mix: odd requests repeat the bytes of an
   earlier fresh request (uniformly chosen) and hit the daemon's scan
   cache; even requests are fresh HCL rendered from a newly generated
   project, every fifth of them AWS. Fresh sources carry a unique header
   comment so they always miss. *)
let requests ~seed ~count =
  let rng = Prng.create ((seed * 31) + 7) in
  let fresh = Array.make ((count + 1) / 2) None in
  Array.init count (fun index ->
      let path = Printf.sprintf "req-%05d.tf" index in
      if index mod 2 = 1 then
        match fresh.(Prng.int rng ((index + 1) / 2)) with
        | Some earlier -> { earlier with index; path }
        | None -> assert false
      else begin
        let provider = if index mod 10 = 0 then aws else azure in
        let project =
          Generator.generate_one ~provider (Prng.derive (seed + 1_000_003) index) index
        in
        let hcl =
          Zodiac_hcl.Compile.program_to_hcl ~type_name:provider.Provider.to_terraform
            project.Generator.program
        in
        let source =
          Printf.sprintf "# %s request %d (%s)\n%s" provider.Provider.name index
            project.Generator.scenario hcl
        in
        let r = { index; path; source; provider } in
        fresh.(index / 2) <- Some r;
        r
      end)

let request_line r =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int r.index);
         ("method", Json.String "scan_file");
         ( "params",
           Json.Obj [ ("path", Json.String r.path); ("source", Json.String r.source) ] );
       ])
