type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int seed) }

let derive seed index =
  (* Jump directly to the [index]-th gamma step of the stream rooted at
     [seed], then mix once more so adjacent indices decorrelate. Unlike
     [split] on a shared generator this needs no sequential threading, so
     per-index streams can be created independently on any domain. *)
  let root = mix (Int64.of_int seed) in
  let jump = Int64.mul golden_gamma (Int64.of_int (index + 1)) in
  { state = mix (Int64.add root jump) }

let copy t = { state = t.state }

let next64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = next64 t }

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Mask to non-negative and reduce; modulo bias is negligible for the
     small bounds used throughout Zodiac. *)
  let v = Int64.to_int (next64 t) land max_int in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next64 t) 1L = 1L

let chance t p = float t 1.0 < p

let choose_list t xs =
  match xs with
  | [] -> invalid_arg "Prng.choose_list: empty list"
  | _ -> List.nth xs (int t (List.length xs))

let weighted t items =
  let total = List.fold_left (fun acc (w, _) -> acc + max 0 w) 0 items in
  if total <= 0 then invalid_arg "Prng.weighted: no positive weight";
  let k = int t total in
  let rec pick acc = function
    | [] -> invalid_arg "Prng.weighted: unreachable"
    | (w, x) :: rest ->
        let acc = acc + max 0 w in
        if k < acc then x else pick acc rest
  in
  pick 0 items

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let shuffle_list t xs =
  let arr = Array.of_list xs in
  shuffle t arr;
  Array.to_list arr

let sample t k xs =
  let arr = Array.of_list xs in
  shuffle t arr;
  let n = min k (Array.length arr) in
  Array.to_list (Array.sub arr 0 n)
