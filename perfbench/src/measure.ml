(* Clocks, allocation and memory probes, order statistics and the
   host-speed probe. Everything here observes the process from outside
   the library: no library code is instrumented. *)

let now = Unix.gettimeofday

(* Words allocated so far by the whole process (minor + major − promoted:
   promoted words are counted once, as minor). Direct major-heap
   allocations reach the counters only when a major cycle accounts
   them, so a full major collection runs first; then the count is exact
   at jobs=1. Callers read it outside their timed region. *)
let words () =
  Gc.full_major ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* [f ()] with its wall seconds and allocated words. *)
let measured f =
  let w0 = words () in
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  (v, t1 -. t0, words () -. w0)

(* ---- order statistics ---------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Median of a non-empty sample (mean of the two middle values when
   the sample is even). *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.median: empty sample"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  if xs = [] then invalid_arg "Measure.mean: empty sample"
  else List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the sample at or below it. A tail percentile is only meaningful when
   enough samples lie beyond it, so it is refused (with the sample
   count it would need) when fewer than [min_beyond] samples rank
   above it. *)
let min_beyond = 10

let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
  let beyond = n - rank in
  if n = 0 || beyond < min_beyond then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it, %d samples leave %d" p
         min_beyond n (max 0 beyond))
  else Ok a.(rank - 1)

(* ---- memory ---------------------------------------------------------- *)

(* A numeric field (in kB) of /proc/<pid>/status, e.g. VmHWM. *)
let status_kb ?(pid = "self") field =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
      let prefix = field ^ ":" in
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line when String.starts_with ~prefix line ->
            Scanf.sscanf_opt
              (String.sub line (String.length prefix)
                 (String.length line - String.length prefix))
              " %d" Fun.id
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

let peak_rss_mb ?pid () =
  match status_kb ?pid "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "peak RSS unavailable: /proc/<pid>/status has no VmHWM"

(* Bytes this process has read through syscalls (rchar of
   /proc/self/io) — the cache's codec reads, seen from outside. *)
let bytes_read () =
  match open_in "/proc/self/io" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line -> (
            match Scanf.sscanf_opt line "%s@: %d" (fun k v -> (k, v)) with
            | Some ("rchar", v) -> v
            | _ -> scan ())
      in
      let v = scan () in
      close_in ic;
      v

(* ---- host-speed probe ----------------------------------------------- *)

(* A fixed stdlib-only kernel — integer PRNG, sort, hash table and
   buffer traffic — timed before and after each run. It shares the
   host with the workload but no code with the program, so a slow
   probe marks a slow host rather than a regression. *)
let probe_kernel () =
  let n = 200_000 in
  let state = ref 0x2545F491 in
  let next () =
    state := (!state * 1103515245) + 12345;
    (!state lsr 16) land 0x3FFFFFFF
  in
  let a = Array.init n (fun _ -> next ()) in
  Array.sort compare a;
  let h = Hashtbl.create 1024 in
  Array.iter (fun x -> Hashtbl.replace h (x land 0xFFFF) x) a;
  let b = Buffer.create 4096 in
  for i = 0 to 50_000 do
    Buffer.add_string b (string_of_int (a.(i mod n) + Hashtbl.length h));
    if Buffer.length b > 65536 then Buffer.clear b
  done;
  Buffer.length b + Hashtbl.length h

(* Median of three kernel timings, in ms. *)
let host_probe_ms () =
  median
    (List.init 3 (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (probe_kernel ()));
         (now () -. t0) *. 1000.))

(* ---- files ------------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Total bytes of the regular files under [path]. *)
let rec tree_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc n -> acc + tree_bytes (Filename.concat path n))
        0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0
