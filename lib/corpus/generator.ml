module Prng = Zodiac_util.Prng
module Program = Zodiac_iac.Program
module Provider = Zodiac_provider.Provider
module Build = Provider.Build

type project = {
  pname : string;
  scenario : string;
  program : Zodiac_iac.Program.t;
  injected : string list;
}

let scenario_names = Provider.scenario_names

(* ------------- violation injection ----------------------------------- *)

(* Each injector returns the mutated program when applicable; try them
   in a shuffled order until one fires. *)
let inject injectors rng prog =
  let shuffled = Prng.shuffle_list rng injectors in
  let rec try_injectors = function
    | [] -> (prog, None)
    | (label, injector) :: rest -> (
        match injector rng prog with
        | Some mutated -> (mutated, Some label)
        | None -> try_injectors rest)
  in
  try_injectors shuffled

(* ------------- top level --------------------------------------------- *)

let generate_one ~provider ?(violation_rate = 0.04) rng index =
  let scenario_name, builder =
    Prng.weighted rng
      (List.map (fun (w, s) -> (w, s)) provider.Provider.scenarios)
  in
  let ctx = Build.new_ctx ~regions:provider.Provider.regions rng in
  builder ctx;
  provider.Provider.add_unattended ctx;
  let program = Program.of_resources ctx.Build.resources in
  let program, injected =
    if Prng.chance rng violation_rate then
      let program, label = inject provider.Provider.injectors rng program in
      (program, Option.to_list label)
    else (program, [])
  in
  {
    pname = Printf.sprintf "repo-%04d-%s" index scenario_name;
    scenario = scenario_name;
    program;
    injected;
  }

let generate_range ~provider ?(violation_rate = 0.04) ?jobs ~seed ~lo ~hi () =
  (* Each project gets its own generator derived from [(seed, index)], so
     projects are independent work items: the corpus is identical whether
     they are built sequentially, across domains, or — because indices
     below [lo] are never touched — one shard at a time. corpus(seed, n)
     is a strict prefix of corpus(seed, m) for n < m, which is what lets
     a shard checkpoint resume a run over a larger corpus. *)
  Zodiac_util.Parallel.map ?jobs
    (fun i -> generate_one ~provider ~violation_rate (Prng.derive seed i) i)
    (List.init (max 0 (hi - lo)) (fun k -> lo + k))

let generate ~provider ?(violation_rate = 0.04) ?jobs ~seed ~count () =
  generate_range ~provider ~violation_rate ?jobs ~seed ~lo:0 ~hi:count ()

let conforming ~provider ?jobs ~seed ~count () =
  generate ~provider ~violation_rate:0.0 ?jobs ~seed ~count ()

module Codec = Zodiac_util.Codec

let write_project b p =
  Codec.write_string b p.pname;
  Codec.write_string b p.scenario;
  Program.write b p.program;
  Codec.write_list Codec.write_string b p.injected

let read_project s =
  let pname = Codec.read_string s in
  let scenario = Codec.read_string s in
  let program = Program.read s in
  let injected = Codec.read_list Codec.read_string s in
  { pname; scenario; program; injected }

let projects_artifact =
  {
    Zodiac_util.Stage.write = (fun b ps -> Codec.write_list write_project b ps);
    read = Codec.read_list read_project;
  }
