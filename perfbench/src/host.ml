(* Host speed, sampled while the work runs.

   The benchmark shares its host. Whole stretches of tens of seconds
   run about 1.5× slower than others, and a run of 15 s can fall
   entirely inside one, so neither the fastest nor the median of a
   run's repetitions escapes them. Each unit of work is therefore timed
   together with the host's speed over the same stretch of time: a
   fixed tick is timed by an interval timer every [interval] seconds
   while the unit runs, once just before and once just after it. The
   unit's wall time divided by the mean tick over the reference tick
   (its [slowness]) is its time at reference host speed.

   The tick is an in-place quicksort of 4096 ints plus an integer loop
   with four independent chains: throughput-bound, branchy code, like
   the program's own, which is what slows down in a slow stretch.
   Pointer chasing over 4–32 MB and single-chain arithmetic were tried
   and hardly slowed at all when the program slowed by half. The tick
   does not allocate, so sampling inside a timed region leaves its
   allocation count exact. It shares no code with the program: a faster
   program does not make the tick faster. *)

external now_ns : unit -> (int[@untagged]) = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

(* ---- the tick -------------------------------------------------------- *)

let n_sort = 4096

let unsorted =
  let s = ref 99 in
  Array.init n_sort (fun _ ->
      s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
      !s)

let scratch = Array.make n_sort 0

let rec quicksort a lo hi =
  if hi - lo > 16 then begin
    let p = Array.unsafe_get a ((lo + hi) / 2) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while Array.unsafe_get a !i < p do incr i done;
      while Array.unsafe_get a !j > p do decr j done;
      if !i <= !j then begin
        let t = Array.unsafe_get a !i in
        Array.unsafe_set a !i (Array.unsafe_get a !j);
        Array.unsafe_set a !j t;
        incr i;
        decr j
      end
    done;
    quicksort a lo !j;
    quicksort a !i hi
  end
  else
    for k = lo + 1 to hi do
      let v = Array.unsafe_get a k in
      let m = ref (k - 1) in
      while !m >= lo && Array.unsafe_get a !m > v do
        Array.unsafe_set a (!m + 1) (Array.unsafe_get a !m);
        decr m
      done;
      Array.unsafe_set a (!m + 1) v
    done

let chains () =
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 in
  for i = 1 to 400_000 do
    a := ((!a * 1103515245) + i) land 0xFFFFFFFF;
    b := (!b lxor (!b lsl 5)) + i;
    c := (!c + !a) lxor (!c lsr 3);
    d := !d + if !a land 1 = 0 then !b else !c
  done;
  !a + !b + !c + !d

let tick () =
  Array.blit unsorted 0 scratch 0 n_sort;
  quicksort scratch 0 (n_sort - 1);
  scratch.(n_sort / 2) + chains ()

(* The tick's time in ns on the reference host (the 2-CPU container the
   benchmark was tuned on) in a fast stretch, so that scaled times read
   close to the wall times seen there. Only ratios between runs matter. *)
let reference_ns = 1_600_000.

(* ---- samples --------------------------------------------------------- *)

let capacity = 1 lsl 16
let started = Array.make capacity 0
let cost = Array.make capacity 0
let count = ref 0
let sink = ref 0

(* One timed tick. Safe inside a signal handler: nothing here
   allocates. *)
let sample () =
  let i = !count in
  if i < capacity then begin
    let t0 = now_ns () in
    sink := !sink + tick ();
    let t1 = now_ns () in
    started.(i) <- t0;
    cost.(i) <- t1 - t0;
    count := i + 1
  end

let interval = 0.05

let arm on =
  let v = if on then interval else 0. in
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = v; it_value = v })

let () = Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample ()))

(* ---- timing ---------------------------------------------------------- *)

type timing = {
  wall : float;  (** seconds of the unit's own work: the region minus the ticks inside it *)
  slowness : float;  (** mean tick over the region, as a multiple of [reference_ns] *)
}

let scaled t = t.wall /. t.slowness

(* [f ()] timed with the host's speed: [sides] ticks just before and
   just after it and, when [sampling], a tick every [interval] seconds
   while it runs. Without [sampling] no timer fires, so [f] may block
   in system calls that a signal would interrupt. *)
let timed ?(sampling = true) ?(sides = 1) f =
  let first = !count in
  for _ = 1 to sides do sample () done;
  let inside = !count in
  if sampling then arm true;
  let t0 = now_ns () in
  let v = Fun.protect ~finally:(fun () -> if sampling then arm false) f in
  let t1 = now_ns () in
  let outside = !count in
  for _ = 1 to sides do sample () done;
  let sum ?(within = fun _ -> true) lo hi =
    let s = ref 0 in
    for i = lo to hi - 1 do
      if within started.(i) then s := !s + cost.(i)
    done;
    !s
  in
  let n = !count - first in
  let slowness =
    if n = 0 then 1. else float_of_int (sum first !count) /. float_of_int n /. reference_ns
  in
  let ticks_inside = sum ~within:(fun t -> t >= t0 && t < t1) inside outside in
  let wall = float_of_int (t1 - t0 - ticks_inside) /. 1e9 in
  (v, { wall; slowness })
