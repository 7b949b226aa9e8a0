module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program
module Graph = Zodiac_iac.Graph
module Schema = Zodiac_iac.Schema
module Check = Zodiac_spec.Check
module Kb = Zodiac_kb.Kb
module Defaults = Zodiac_cloud.Defaults
module Provider = Zodiac_provider.Provider
module Cidr = Zodiac_util.Cidr
module Parallel = Zodiac_util.Parallel
module Codec = Zodiac_util.Codec

type config = { use_kb : bool; min_support : int }

let default_config = { use_kb = true; min_support = 4 }

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let incr_tbl tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let get_count tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key)

(* ---- shard-table merges -------------------------------------------
   Counting runs as shard-then-merge when [jobs > 1]: each chunk of the
   corpus fills private tables, merged in chunk order. Every merge below
   is an exact monoid on integers (addition, or (min, max, sum)), so the
   merged counts are independent of the chunking. *)

let add_count tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let merge_counts dst src = Hashtbl.iter (add_count dst) src

(* (denominator, numerator) statistics *)
let merge_stats dst src =
  Hashtbl.iter
    (fun k (d, s) ->
      let d0, s0 = Option.value ~default:(0, 0) (Hashtbl.find_opt dst k) in
      Hashtbl.replace dst k (d0 + d, s0 + s))
    src

let count_sharded ?jobs count merge programs =
  match Parallel.chunks ?jobs programs with
  | [] -> count []
  | [ chunk ] -> count chunk
  | chunks -> (
      match Parallel.map ?jobs count chunks with
      | first :: rest -> List.fold_left merge first rest
      | [] -> assert false)

let lift_of conf prior =
  let prior = Float.max prior 1e-6 in
  Float.min (conf /. prior) 1000.0

(* Statement prior for equality between two attribute populations:
   sum over values of P1(v) * P2(v), from the KB's observation tables. *)
let eq_baseline kb (ta, xa) (tb, yb) =
  match
    (Kb.attr_info kb ~rtype:ta ~attr:xa, Kb.attr_info kb ~rtype:tb ~attr:yb)
  with
  | Some i1, Some i2 ->
      let total1 = i1.Kb.observed_total in
      let total2 = i2.Kb.observed_total in
      if total1 = 0 || total2 = 0 then 0.0
      else
        (* iterate the canonically-sorted list (stable float summation
           order) but probe the other side's hash index: O(n) not O(n^2) *)
        List.fold_left
          (fun acc (v, c1) ->
            match Hashtbl.find_opt i2.Kb.observed_index v with
            | Some c2 ->
                acc
                +. (float_of_int c1 /. float_of_int total1)
                   *. (float_of_int c2 /. float_of_int total2)
            | None -> acc)
          0.0 i1.Kb.observed
  | _ -> 0.0

(* P(attr = v) over the whole type population: resources lacking the
   attribute count as "not equal". *)
let value_prior kb rtype attr v =
  match Kb.attr_info kb ~rtype ~attr with
  | None -> 0.0
  | Some info ->
      let population = max (Kb.population kb rtype) 1 in
      Float.min 1.0
        (float_of_int
           (Option.value ~default:0 (Hashtbl.find_opt info.Kb.observed_index v))
        /. float_of_int population)

let presence_prior kb rtype attr =
  match Kb.attr_info kb ~rtype ~attr with
  | None -> 0.0
  | Some info ->
      let population = max (Kb.population kb rtype) 1 in
      Float.min 1.0 (float_of_int info.Kb.occurrences /. float_of_int population)

let is_scalar = function
  | Value.Str _ | Value.Bool _ -> true
  | Value.Int _ | Value.Null | Value.List _ | Value.Block _ | Value.Ref _ -> false

(* Attribute paths of a resource that do not traverse a repeated-block
   collection (those belong to the indexed family). *)
let flat_paths provider r =
  let schema = provider.Provider.find_schema r.Resource.rtype in
  List.filter
    (fun path ->
      match schema with
      | None -> true
      | Some s -> (
          (* exclude the path if any prefix is a list-of-blocks *)
          let segments = String.split_on_char '.' path in
          let rec check prefix = function
            | [] -> true
            | seg :: rest -> (
                let p = if prefix = "" then seg else prefix ^ "." ^ seg in
                match Schema.find_attr s p with
                | Some { Schema.atype = Schema.T_list (Schema.T_block _); _ } -> false
                | _ -> check p rest)
          in
          check "" segments))
    (Resource.attr_paths r)

(* Facts about one resource used by the intra families. *)
type fact = F_val of string * Value.t | F_present of string

let facts_of_resource provider cfg kb r =
  let rtype = r.Resource.rtype in
  List.concat_map
    (fun path ->
      let values = Resource.get_all r path in
      let enum_ok v =
        if cfg.use_kb then List.mem v (Kb.enum_values kb ~rtype ~attr:path)
        else is_scalar v
      in
      let val_facts =
        List.filter_map
          (fun v -> if is_scalar v && enum_ok v then Some (F_val (path, v)) else None)
          values
      in
      let presence_ok =
        if not cfg.use_kb then true
        else
          match Kb.attr_info kb ~rtype ~attr:path with
          | Some { Kb.requirement = Some Schema.Optional; _ } -> true
          | Some { Kb.requirement = None; _ } -> true
          | _ -> false
      in
      let present_facts = if values <> [] && presence_ok then [ F_present path ] else [] in
      let dedup xs =
        List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs
      in
      dedup (val_facts @ present_facts))
    (flat_paths provider r)

(* Check constructors. *)
let attr_term var attr = Check.Attr { Check.var; attr }

let fact_cond var = function
  | F_val (attr, v) -> Check.Cmp (Check.Eq, attr_term var attr, Check.Const v)
  | F_present attr -> Check.Cmp (Check.Ne, attr_term var attr, Check.Const Value.Null)

let intra_check ty cond stmt =
  Check.make ~source:Check.Mined [ { Check.var = "r"; btype = ty } ] cond stmt

(* ------------------------------------------------------------------ *)
(* Intra-resource mining                                               *)
(* ------------------------------------------------------------------ *)

type intra_counts = {
  n_by_type : (string, int) Hashtbl.t;
  single : (string * fact, int) Hashtbl.t;
  pair : (string * fact * fact, int) Hashtbl.t;
  num_range : (string * fact * string, int * int * int) Hashtbl.t;
      (* (type, cond fact, numeric attr) -> (min, max, count) *)
}

let count_intra provider cfg kb programs =
  let n_by_type : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let single : (string * fact, int) Hashtbl.t = Hashtbl.create 1024 in
  let pair : (string * fact * fact, int) Hashtbl.t = Hashtbl.create 4096 in
  let num_range : (string * fact * string, int * int * int) Hashtbl.t =
    Hashtbl.create 256
  in
  let observe r =
    let ty = r.Resource.rtype in
    incr_tbl n_by_type ty;
    let facts = facts_of_resource provider cfg kb r in
    List.iter (fun f -> incr_tbl single (ty, f)) facts;
    List.iter
      (fun f1 ->
        List.iter
          (fun f2 ->
            let attr_of = function F_val (a, _) | F_present a -> a in
            if not (String.equal (attr_of f1) (attr_of f2)) then
              incr_tbl pair (ty, f1, f2))
          facts)
      facts;
    (* numeric observations conditioned on each fact (and on the
       numeric attribute's own presence) *)
    let numeric_attrs =
      List.filter_map
        (fun path ->
          match Resource.get_all r path with
          | [ Value.Int i ] -> Some (path, i)
          | _ -> None)
        (flat_paths provider r)
    in
    List.iter
      (fun (npath, i) ->
        let update cond_fact =
          let key = (ty, cond_fact, npath) in
          let lo, hi, c =
            Option.value ~default:(i, i, 0) (Hashtbl.find_opt num_range key)
          in
          Hashtbl.replace num_range key (min lo i, max hi i, c + 1)
        in
        update (F_present npath);
        List.iter
          (fun f ->
            match f with
            | F_val (a, _) when not (String.equal a npath) -> update f
            | F_val _ | F_present _ -> ())
          facts)
      numeric_attrs
  in
  List.iter (fun p -> List.iter observe (Program.resources p)) programs;
  { n_by_type; single; pair; num_range }

(* Codec for the intra counting tables. [min_support] only gates
   emission, never counting, so a cached table serves every support
   threshold; the key must cover corpus identity and [use_kb] (which
   changes which facts are counted). *)
let write_fact b = function
  | F_val (attr, v) ->
      Codec.write_byte b 0;
      Codec.write_string b attr;
      Value.write b v
  | F_present attr ->
      Codec.write_byte b 1;
      Codec.write_string b attr

let read_fact s =
  match Codec.read_byte s with
  | 0 ->
      let attr = Codec.read_string s in
      F_val (attr, Value.read s)
  | 1 -> F_present (Codec.read_string s)
  | n -> Codec.corrupt "bad fact tag %d" n

let write_intra b (c : intra_counts) =
  Codec.write_table Codec.write_string Codec.write_int b c.n_by_type;
  Codec.write_table
    (fun b (ty, f) ->
      Codec.write_string b ty;
      write_fact b f)
    Codec.write_int b c.single;
  Codec.write_table
    (fun b (ty, f1, f2) ->
      Codec.write_string b ty;
      write_fact b f1;
      write_fact b f2)
    Codec.write_int b c.pair;
  Codec.write_table
    (fun b (ty, f, attr) ->
      Codec.write_string b ty;
      write_fact b f;
      Codec.write_string b attr)
    (fun b (lo, hi, n) ->
      Codec.write_int b lo;
      Codec.write_int b hi;
      Codec.write_int b n)
    b c.num_range

let read_intra s =
  let n_by_type = Codec.read_table Codec.read_string Codec.read_int s in
  let single =
    Codec.read_table
      (fun s ->
        let ty = Codec.read_string s in
        let f = read_fact s in
        (ty, f))
      Codec.read_int s
  in
  let pair =
    Codec.read_table
      (fun s ->
        let ty = Codec.read_string s in
        let f1 = read_fact s in
        let f2 = read_fact s in
        (ty, f1, f2))
      Codec.read_int s
  in
  let num_range =
    Codec.read_table
      (fun s ->
        let ty = Codec.read_string s in
        let f = read_fact s in
        let attr = Codec.read_string s in
        (ty, f, attr))
      (fun s ->
        let lo = Codec.read_int s in
        let hi = Codec.read_int s in
        let n = Codec.read_int s in
        (lo, hi, n))
      s
  in
  { n_by_type; single; pair; num_range }

let merge_intra dst src =
  merge_counts dst.n_by_type src.n_by_type;
  merge_counts dst.single src.single;
  merge_counts dst.pair src.pair;
  Hashtbl.iter
    (fun k (lo, hi, c) ->
      let merged =
        match Hashtbl.find_opt dst.num_range k with
        | None -> (lo, hi, c)
        | Some (lo0, hi0, c0) -> (min lo lo0, max hi hi0, c0 + c)
      in
      Hashtbl.replace dst.num_range k merged)
    src.num_range;
  dst

(* Candidate emission from final merged tables. Emission is a pure
   function of (config, KB, counts): iteration order over the hash
   tables may vary with how the counts were sharded and merged, but the
   emitted multiset does not, and [Candidate.dedup]'s total preference
   order makes the downstream artifact independent of it — the same
   argument that already covers [jobs]-invariance covers shard-boundary
   invariance. *)
let emit_intra cfg kb { n_by_type; single; pair; num_range } =
  let out = ref [] in
  let emit c = out := c :: !out in
  let fact_stmt_prior ty = function
    | F_val (attr, v) -> value_prior kb ty attr v
    | F_present attr -> presence_prior kb ty attr
  in
  (* positive implications from witnessed pairs *)
  Hashtbl.iter
    (fun (ty, f1, f2) c ->
      let support = get_count single (ty, f1) in
      if support >= cfg.min_support then begin
        let conf = float_of_int c /. float_of_int support in
        let prior = fact_stmt_prior ty f2 in
        let template_id =
          match (f1, f2) with
          | F_val _, F_val _ -> "INTRA-EQ-EQ"
          | F_val _, F_present _ -> "INTRA-EQ-NOTNULL"
          | F_present _, F_val _ -> "INTRA-NOTNULL-EQ"
          | F_present _, F_present _ -> "INTRA-NOTNULL-NOTNULL"
        in
        emit
          (Candidate.make ~template_id ~support ~confidence:conf
             ~lift:(lift_of conf prior)
             (intra_check ty (fact_cond "r" f1) (fact_cond "r" f2)))
      end)
    pair;
  (* negative implications: X => Y != v / Y == null, emitted when the
     co-occurrence is (nearly) absent yet Y=v (resp. Y present) is
     globally common. *)
  let singles_by_type : (string, fact list) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (ty, f) _ ->
      Hashtbl.replace singles_by_type ty
        (f :: Option.value ~default:[] (Hashtbl.find_opt singles_by_type ty)))
    single;
  Hashtbl.iter
    (fun (ty, f1) support ->
      if support >= cfg.min_support then
        let n = float_of_int (get_count n_by_type ty) in
        List.iter
          (fun f2 ->
            let attr_of = function F_val (a, _) | F_present a -> a in
            if not (String.equal (attr_of f1) (attr_of f2)) then begin
              let co = get_count pair (ty, f1, f2) in
              let conf = 1.0 -. (float_of_int co /. float_of_int support) in
              let global = float_of_int (get_count single (ty, f2)) /. Float.max n 1.0 in
              (* only interesting when Y is otherwise common *)
              if conf >= 0.95 && global >= 0.05 then
                match f2 with
                | F_val (attr, v) ->
                    let prior = 1.0 -. value_prior kb ty attr v in
                    emit
                      (Candidate.make ~template_id:"INTRA-EQ-NE" ~support
                         ~confidence:conf ~lift:(lift_of conf prior)
                         (intra_check ty (fact_cond "r" f1)
                            (Check.Cmp (Check.Ne, attr_term "r" attr, Check.Const v))))
                | F_present attr ->
                    let prior = 1.0 -. presence_prior kb ty attr in
                    emit
                      (Candidate.make ~template_id:"INTRA-EQ-NULL" ~support
                         ~confidence:conf ~lift:(lift_of conf prior)
                         (intra_check ty (fact_cond "r" f1)
                            (Check.Cmp (Check.Eq, attr_term "r" attr, Check.Const Value.Null))))
            end)
          (Option.value ~default:[] (Hashtbl.find_opt singles_by_type ty)))
    single;
  (* quantitative ranges -> interpolation candidates *)
  Hashtbl.iter
    (fun (ty, f, npath) (lo, hi, c) ->
      if c >= cfg.min_support then begin
        let template_le, template_ge =
          match f with
          | F_val _ -> ("ENUM-NUM-LE", "ENUM-NUM-GE")
          | F_present _ -> ("PRESENT-NUM-LE", "PRESENT-NUM-GE")
        in
        let mk template op bound =
          Candidate.make ~needs_interpolation:true ~template_id:template ~support:c
            ~confidence:1.0 ~lift:1.0
            (intra_check ty (fact_cond "r" f)
               (Check.Cmp (op, attr_term "r" npath, Check.Const (Value.Int bound))))
        in
        (* Only bounded ranges are plausible constraints. *)
        if hi < 1_000_000 then emit (mk template_le Check.Le hi);
        if lo > 0 then emit (mk template_ge Check.Ge lo)
      end)
    num_range;
  !out

(* ------------------------------------------------------------------ *)
(* Indexed (repeated-block) mining                                     *)
(* ------------------------------------------------------------------ *)

type indexed_counts = {
  (* (type, coll, x, y) -> (cond pairs, cond&stmt pairs) for EQ-NE;
     (type, coll, y) -> (pairs, distinct pairs) for NE *)
  eqne : (string * string * string * string, int * int) Hashtbl.t;
  ne : (string * string * string, int * int) Hashtbl.t;
  elem_values : (string * string * string, (Value.t, int) Hashtbl.t) Hashtbl.t;
}

let count_indexed programs =
  (* collection path -> per-resource element lists *)
  let collections r =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Value.List items
          when List.length items >= 1
               && List.for_all (function Value.Block _ -> true | _ -> false) items ->
            Some (name, List.map (function Value.Block f -> f | _ -> []) items)
        | _ -> None)
      r.Resource.attrs
  in
  let eqne : (string * string * string * string, int * int) Hashtbl.t =
    Hashtbl.create 128
  in
  let ne : (string * string * string, int * int) Hashtbl.t = Hashtbl.create 128 in
  let elem_values : (string * string * string, (Value.t, int) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 128
  in
  let observe r =
    let ty = r.Resource.rtype in
    List.iter
      (fun (coll, elems) ->
        let keys elem = List.filter (fun (_, v) -> is_scalar v || (match v with Value.Int _ -> true | _ -> false)) elem in
        List.iter
          (fun elem ->
            List.iter
              (fun (sub, v) ->
                let tbl =
                  match Hashtbl.find_opt elem_values (ty, coll, sub) with
                  | Some t -> t
                  | None ->
                      let t = Hashtbl.create 8 in
                      Hashtbl.replace elem_values (ty, coll, sub) t;
                      t
                in
                incr_tbl tbl v)
              (keys elem))
          elems;
        List.iteri
          (fun i e1 ->
            List.iteri
              (fun j e2 ->
                if i <> j then begin
                  let a1 = keys e1 and a2 = keys e2 in
                  List.iter
                    (fun (sub, v1) ->
                      match List.assoc_opt sub a2 with
                      | None -> ()
                      | Some v2 ->
                          (* unconditional distinctness of sub *)
                          let p, d = Option.value ~default:(0, 0) (Hashtbl.find_opt ne (ty, coll, sub)) in
                          Hashtbl.replace ne (ty, coll, sub)
                            (p + 1, d + if Value.equal v1 v2 then 0 else 1);
                          (* conditioned on equality of sub, distinctness of others *)
                          if Value.equal v1 v2 then
                            List.iter
                              (fun (sub2, w1) ->
                                if not (String.equal sub2 sub) then
                                  match List.assoc_opt sub2 a2 with
                                  | None -> ()
                                  | Some w2 ->
                                      let p, d =
                                        Option.value ~default:(0, 0)
                                          (Hashtbl.find_opt eqne (ty, coll, sub, sub2))
                                      in
                                      Hashtbl.replace eqne (ty, coll, sub, sub2)
                                        ( p + 1,
                                          d + if Value.equal w1 w2 then 0 else 1 ))
                              a1)
                    a1
                end)
              elems)
          elems)
      (collections r)
  in
  List.iter (fun p -> List.iter observe (Program.resources p)) programs;
  { eqne; ne; elem_values }

let merge_indexed dst src =
  merge_stats dst.eqne src.eqne;
  merge_stats dst.ne src.ne;
  Hashtbl.iter
    (fun k tbl ->
      match Hashtbl.find_opt dst.elem_values k with
      | None -> Hashtbl.replace dst.elem_values k (Hashtbl.copy tbl)
      | Some into -> merge_counts into tbl)
    src.elem_values;
  dst

(* Codec for the indexed counting tables — a pure function of the
   materialized corpus, so the cache key is the corpus key alone. *)
let write_indexed b (c : indexed_counts) =
  Codec.write_table
    (fun b (ty, coll, x, y) ->
      Codec.write_string b ty;
      Codec.write_string b coll;
      Codec.write_string b x;
      Codec.write_string b y)
    (fun b (p, d) ->
      Codec.write_int b p;
      Codec.write_int b d)
    b c.eqne;
  Codec.write_table
    (fun b (ty, coll, y) ->
      Codec.write_string b ty;
      Codec.write_string b coll;
      Codec.write_string b y)
    (fun b (p, d) ->
      Codec.write_int b p;
      Codec.write_int b d)
    b c.ne;
  Codec.write_table
    (fun b (ty, coll, sub) ->
      Codec.write_string b ty;
      Codec.write_string b coll;
      Codec.write_string b sub)
    (Codec.write_table Value.write Codec.write_int)
    b c.elem_values

let read_indexed s =
  let int_pair s =
    let p = Codec.read_int s in
    let d = Codec.read_int s in
    (p, d)
  in
  let eqne =
    Codec.read_table
      (fun s ->
        let ty = Codec.read_string s in
        let coll = Codec.read_string s in
        let x = Codec.read_string s in
        let y = Codec.read_string s in
        (ty, coll, x, y))
      int_pair s
  in
  let triple s =
    let ty = Codec.read_string s in
    let coll = Codec.read_string s in
    let y = Codec.read_string s in
    (ty, coll, y)
  in
  let ne = Codec.read_table triple int_pair s in
  let elem_values =
    Codec.read_table triple (Codec.read_table Value.read Codec.read_int) s
  in
  { eqne; ne; elem_values }

let emit_indexed cfg { eqne; ne; elem_values } =
  let distinct_prior tbl =
    (* probability two random elements differ, from the value table;
       summed in sorted-value order so the float result is independent
       of the merged table's insertion order *)
    let counts =
      Hashtbl.fold (fun v c acc -> (v, c) :: acc) tbl []
      |> List.sort (fun (v1, _) (v2, _) -> Value.compare v1 v2)
    in
    let total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
    if total = 0 then 0.5
    else
      1.0
      -. List.fold_left
           (fun acc (_, c) ->
             let p = float_of_int c /. float_of_int total in
             acc +. (p *. p))
           0.0 counts
  in
  let out = ref [] in
  Hashtbl.iter
    (fun (ty, coll, sub, sub2) (p, d) ->
      if p >= cfg.min_support then begin
        let conf = float_of_int d /. float_of_int p in
        let prior =
          match Hashtbl.find_opt elem_values (ty, coll, sub2) with
          | Some tbl -> distinct_prior tbl
          | None -> 0.5
        in
        let ep path = attr_term "r" path in
        let check =
          intra_check ty
            (Check.Cmp
               ( Check.Eq,
                 ep (Printf.sprintf "%s[i].%s" coll sub),
                 ep (Printf.sprintf "%s[j].%s" coll sub) ))
            (Check.Cmp
               ( Check.Ne,
                 ep (Printf.sprintf "%s[i].%s" coll sub2),
                 ep (Printf.sprintf "%s[j].%s" coll sub2) ))
        in
        out :=
          Candidate.make ~template_id:"IDX-EQ-NE" ~support:p ~confidence:conf
            ~lift:(lift_of conf prior) check
          :: !out
      end)
    eqne;
  Hashtbl.iter
    (fun (ty, coll, sub) (p, d) ->
      if p >= cfg.min_support then begin
        let conf = float_of_int d /. float_of_int p in
        let prior =
          match Hashtbl.find_opt elem_values (ty, coll, sub) with
          | Some tbl -> distinct_prior tbl
          | None -> 0.5
        in
        let ep path = attr_term "r" path in
        let check =
          intra_check ty
            (Check.Cmp
               ( Check.Ne,
                 ep (Printf.sprintf "%s[i].%s" coll sub),
                 Check.Const Value.Null ))
            (Check.Cmp
               ( Check.Ne,
                 ep (Printf.sprintf "%s[i].%s" coll sub),
                 ep (Printf.sprintf "%s[j].%s" coll sub) ))
        in
        out :=
          Candidate.make ~template_id:"IDX-NE" ~support:p ~confidence:conf
            ~lift:(lift_of conf prior) check
          :: !out
      end)
    ne;
  !out

(* ------------------------------------------------------------------ *)
(* Inter-resource mining                                               *)
(* ------------------------------------------------------------------ *)

type conn_key = string * string * string * string (* src ty, src attr, dst ty, dst attr *)

let scalar_paths r =
  List.filter (fun p -> is_scalar (Resource.get r p)) (Resource.attr_paths r)

type inter_counts = {
  edgecount : (conn_key, int) Hashtbl.t;
  paireq : (conn_key * string * string, int) Hashtbl.t;
  dstval : (conn_key * string * Value.t, int) Hashtbl.t;
  srcval : (conn_key * string * Value.t, int) Hashtbl.t;
  dstnull : (conn_key * string, int) Hashtbl.t;
  cond2 : (conn_key * string * Value.t, int) Hashtbl.t;
  both2 : (conn_key * string * Value.t * string * Value.t, int) Hashtbl.t;
  containc : (conn_key * string * string, int * int) Hashtbl.t;
  sibcount : (conn_key, int) Hashtbl.t;
  sib_nooverlap : (conn_key * string, int * int) Hashtbl.t;
  sib_ne : (conn_key * string, int * int) Hashtbl.t;
  assoc_eq : (conn_key * conn_key * string * string, int * int) Hashtbl.t;
  assoc_count : (conn_key * conn_key, int) Hashtbl.t;
  outdeg_one : (conn_key, int) Hashtbl.t;
  outdeg_excl : (conn_key, int) Hashtbl.t;
  copath_pairs : (string * string * string, int * int) Hashtbl.t;
  patheq : (string * string * string * string, int * int) Hashtbl.t;
  deg_max :
    (string * string * Value.t * string * [ `In | `Out ], int * int) Hashtbl.t;
  name_excl : (string * string * string, int * int) Hashtbl.t;
}

(* [reserved_names] is read-only during counting, so it is shared across
   shards rather than merged. *)
let count_inter provider cfg kb reserved_names programs =
  let edgecount : (conn_key, int) Hashtbl.t = Hashtbl.create 128 in
  let paireq : (conn_key * string * string, int) Hashtbl.t = Hashtbl.create 512 in
  let dstval : (conn_key * string * Value.t, int) Hashtbl.t = Hashtbl.create 512 in
  let srcval : (conn_key * string * Value.t, int) Hashtbl.t = Hashtbl.create 512 in
  let dstnull : (conn_key * string, int) Hashtbl.t = Hashtbl.create 512 in
  let cond2 : (conn_key * string * Value.t, int) Hashtbl.t = Hashtbl.create 512 in
  let both2 : (conn_key * string * Value.t * string * Value.t, int) Hashtbl.t =
    Hashtbl.create 512
  in
  let containc : (conn_key * string * string, int * int) Hashtbl.t = Hashtbl.create 64 in
  let sibcount : (conn_key, int) Hashtbl.t = Hashtbl.create 64 in
  let sib_nooverlap : (conn_key * string, int * int) Hashtbl.t = Hashtbl.create 64 in
  let sib_ne : (conn_key * string, int * int) Hashtbl.t = Hashtbl.create 64 in
  let assoc_eq : (conn_key * conn_key * string * string, int * int) Hashtbl.t =
    Hashtbl.create 128
  in
  let assoc_count : (conn_key * conn_key, int) Hashtbl.t = Hashtbl.create 64 in
  let outdeg_one : (conn_key, int) Hashtbl.t = Hashtbl.create 64 in
  let outdeg_excl : (conn_key, int) Hashtbl.t = Hashtbl.create 64 in
  let copath_pairs : (string * string * string, int * int) Hashtbl.t =
    Hashtbl.create 64
  in
  let patheq : (string * string * string * string, int * int) Hashtbl.t =
    (* (src ty, dst ty, src attr, dst attr) -> (pairs, equal) *)
    Hashtbl.create 256
  in
  let deg_max :
      (string * string * Value.t * string * [ `In | `Out ], int * int) Hashtbl.t =
    Hashtbl.create 256
  in
  let name_excl : (string * string * string, int * int) Hashtbl.t = Hashtbl.create 32 in
  let enum_facts r =
    let ty = r.Resource.rtype in
    List.filter_map
      (fun path ->
        let v = Resource.get r path in
        if is_scalar v && (not cfg.use_kb || List.mem v (Kb.enum_values kb ~rtype:ty ~attr:path))
        then Some (path, v)
        else None)
      (flat_paths provider r)
  in
  let observe_program prog =
    let graph = Graph.build prog in
    let edges = Graph.edges graph in
    let find id = Program.find prog id in
    List.iter
      (fun (e : Graph.edge) ->
        match (find e.Graph.src, find e.Graph.dst) with
        | Some a, Some b ->
            let k =
              ( e.Graph.src.Resource.rtype,
                e.Graph.src_attr,
                e.Graph.dst.Resource.rtype,
                e.Graph.dst_attr )
            in
            incr_tbl edgecount k;
            (* equality join between a and b attributes *)
            let b_by_value = Hashtbl.create 16 in
            List.iter
              (fun p -> Hashtbl.add b_by_value (Resource.get b p) p)
              (scalar_paths b);
            List.iter
              (fun pa ->
                let va = Resource.get a pa in
                List.iter
                  (fun pb -> incr_tbl paireq (k, pa, pb))
                  (Hashtbl.find_all b_by_value va))
              (scalar_paths a);
            (* dst/src enum values *)
            List.iter (fun (p, v) -> incr_tbl dstval (k, p, v)) (enum_facts b);
            List.iter (fun (p, v) -> incr_tbl srcval (k, p, v)) (enum_facts a);
            (* reserved dst names *)
            (match Resource.get b "name" with
            | Value.Str s when Hashtbl.mem reserved_names (b.Resource.rtype, s) ->
                incr_tbl dstval (k, "name", Value.Str s)
            | _ -> ());
            (* dst null-ness of optional attrs known to the KB *)
            List.iter
              (fun (info : Kb.attr_info) ->
                if
                  info.Kb.requirement = Some Schema.Optional
                  && Value.is_null (Resource.get b info.Kb.attr)
                  && (not (String.contains info.Kb.attr '.'))
                then incr_tbl dstnull (k, info.Kb.attr))
              (Kb.attrs_of_type kb b.Resource.rtype);
            (* conditional: src enum -> dst enum *)
            List.iter
              (fun (pa, va) ->
                incr_tbl cond2 (k, pa, va);
                List.iter
                  (fun (pb, vb) -> incr_tbl both2 (k, pa, va, pb, vb))
                  (enum_facts b))
              (enum_facts a);
            (* containment between CIDR attributes *)
            List.iter
              (fun ca ->
                let va = Resource.get_all a ca in
                List.iter
                  (fun cb ->
                    let vb = Resource.get_all b cb in
                    if va <> [] && vb <> [] then begin
                      let cidrs vs =
                        List.concat_map
                          (fun v ->
                            match v with
                            | Value.Str s -> Option.to_list (Cidr.of_string s)
                            | Value.List items ->
                                List.filter_map
                                  (function
                                    | Value.Str s -> Cidr.of_string s | _ -> None)
                                  items
                            | _ -> [])
                          vs
                      in
                      let ca_c = cidrs va and cb_c = cidrs vb in
                      if ca_c <> [] && cb_c <> [] then begin
                        let contained =
                          List.for_all
                            (fun x -> List.exists (fun y -> Cidr.contains y x) cb_c)
                            ca_c
                        in
                        let d, s =
                          Option.value ~default:(0, 0)
                            (Hashtbl.find_opt containc (k, ca, cb))
                        in
                        Hashtbl.replace containc (k, ca, cb)
                          (d + 1, s + if contained then 1 else 0)
                      end
                    end)
                  (Kb.cidr_attrs kb b.Resource.rtype))
              (Kb.cidr_attrs kb a.Resource.rtype);
            (* aggregation facts per edge *)
            let same_ty = Graph.Type e.Graph.src.Resource.rtype in
            let od = Graph.outdegree graph e.Graph.dst same_ty in
            if od = 1 then incr_tbl outdeg_one k;
            let od_other =
              Graph.outdegree graph e.Graph.dst
                (Graph.Not_type e.Graph.src.Resource.rtype)
            in
            if od_other = 0 then incr_tbl outdeg_excl k
        | _ -> ())
      edges;
    (* sibling analysis: group in-edges per (dst resource, kind) *)
    let sib_groups = Hashtbl.create 16 in
    List.iter
      (fun (e : Graph.edge) ->
        let k =
          ( e.Graph.src.Resource.rtype,
            e.Graph.src_attr,
            e.Graph.dst.Resource.rtype,
            e.Graph.dst_attr )
        in
        Hashtbl.replace sib_groups
          (e.Graph.dst, k)
          (e.Graph.src
          :: Option.value ~default:[] (Hashtbl.find_opt sib_groups (e.Graph.dst, k))))
      edges;
    Hashtbl.iter
      (fun ((_dst : Resource.id), (k : conn_key)) srcs ->
        let src_ty, _, _, _ = k in
        let resources = List.filter_map find srcs in
        List.iteri
          (fun i a ->
            List.iteri
              (fun j b ->
                if i < j then begin
                  incr_tbl sibcount k;
                  (* CIDR disjointness *)
                  List.iter
                    (fun cattr ->
                      match
                        ( (Resource.get a cattr : Value.t),
                          (Resource.get b cattr : Value.t) )
                      with
                      | Value.Str sa, Value.Str sb -> (
                          match (Cidr.of_string sa, Cidr.of_string sb) with
                          | Some c1, Some c2 ->
                              let d, s =
                                Option.value ~default:(0, 0)
                                  (Hashtbl.find_opt sib_nooverlap (k, cattr))
                              in
                              Hashtbl.replace sib_nooverlap (k, cattr)
                                (d + 1, s + if Cidr.overlap c1 c2 then 0 else 1)
                          | _ -> ())
                      | _ -> ())
                    (Kb.cidr_attrs kb src_ty);
                  (* attribute distinctness *)
                  List.iter
                    (fun p ->
                      let va = Resource.get a p and vb = Resource.get b p in
                      if is_scalar va && is_scalar vb then begin
                        let d, s =
                          Option.value ~default:(0, 0)
                            (Hashtbl.find_opt sib_ne (k, p))
                        in
                        Hashtbl.replace sib_ne (k, p)
                          (d + 1, s + if Value.equal va vb then 0 else 1)
                      end)
                    (scalar_paths a)
                end)
              resources)
          resources)
      sib_groups;
    (* association analysis: resources with two outgoing reference kinds *)
    List.iter
      (fun c ->
        let outs = Graph.edges_from graph (Resource.id c) in
        List.iter
          (fun (e1 : Graph.edge) ->
            List.iter
              (fun (e2 : Graph.edge) ->
                if
                  not (String.equal e1.Graph.src_attr e2.Graph.src_attr)
                  && not (Resource.equal_id e1.Graph.dst e2.Graph.dst)
                then begin
                  let k1 =
                    ( c.Resource.rtype,
                      e1.Graph.src_attr,
                      e1.Graph.dst.Resource.rtype,
                      e1.Graph.dst_attr )
                  and k2 =
                    ( c.Resource.rtype,
                      e2.Graph.src_attr,
                      e2.Graph.dst.Resource.rtype,
                      e2.Graph.dst_attr )
                  in
                  incr_tbl assoc_count (k1, k2);
                  match (find e1.Graph.dst, find e2.Graph.dst) with
                  | Some a, Some b ->
                      (* compare attributes that share a path or are
                         name-formatted on both sides *)
                      List.iter
                        (fun pa ->
                          List.iter
                            (fun pb ->
                              let comparable =
                                String.equal pa pb
                                ||
                                let name_like ty p =
                                  match Kb.attr_info kb ~rtype:ty ~attr:p with
                                  | Some { Kb.format = Schema.Name_format; _ } -> true
                                  | _ -> false
                                in
                                name_like a.Resource.rtype pa
                                && name_like b.Resource.rtype pb
                              in
                              if comparable then begin
                                let va = Resource.get a pa and vb = Resource.get b pb in
                                if is_scalar va && is_scalar vb then begin
                                  let d, s =
                                    Option.value ~default:(0, 0)
                                      (Hashtbl.find_opt assoc_eq (k1, k2, pa, pb))
                                  in
                                  Hashtbl.replace assoc_eq (k1, k2, pa, pb)
                                    (d + 1, s + if Value.equal va vb then 1 else 0)
                                end
                              end)
                            (scalar_paths b))
                        (scalar_paths a)
                  | _ -> ()
                end)
              outs)
          outs)
      (Program.resources prog);
    (* path-based attribute agreement: reachable pairs with matching
       scalar attributes (e.g. NIC and VPC two hops apart agreeing on
       location) *)
    List.iter
      (fun r1 ->
        let id1 = Resource.id r1 in
        List.iter
          (fun (id2 : Resource.id) ->
            if not (String.equal id1.Resource.rtype id2.Resource.rtype) then
              match find id2 with
              | None -> ()
              | Some r2 ->
                  (* compare attributes sharing a dotted path; the shared
                     name keeps the family small and meaningful *)
                  List.iter
                    (fun pa ->
                      let va = Resource.get r1 pa in
                      let vb = Resource.get r2 pa in
                      if is_scalar va && is_scalar vb then begin
                        let key =
                          (id1.Resource.rtype, id2.Resource.rtype, pa, pa)
                        in
                        let d, e =
                          Option.value ~default:(0, 0) (Hashtbl.find_opt patheq key)
                        in
                        Hashtbl.replace patheq key
                          (d + 1, e + if Value.equal va vb then 1 else 0)
                      end)
                    (scalar_paths r1))
          (Graph.reachable_from graph id1))
      (Program.resources prog);
    (* copath overlap: resources reaching two same-type CIDR-bearing nodes *)
    List.iter
      (fun t ->
        let reach = Graph.reachable_from graph (Resource.id t) in
        List.iteri
          (fun i (v1 : Resource.id) ->
            List.iteri
              (fun j (v2 : Resource.id) ->
                if i < j && String.equal v1.Resource.rtype v2.Resource.rtype then
                  match (find v1, find v2) with
                  | Some r1, Some r2 ->
                      List.iter
                        (fun cattr ->
                          let c1 =
                            match Resource.get r1 cattr with
                            | Value.Str s -> Cidr.of_string s
                            | Value.List (Value.Str s :: _) -> Cidr.of_string s
                            | _ -> None
                          and c2 =
                            match Resource.get r2 cattr with
                            | Value.Str s -> Cidr.of_string s
                            | Value.List (Value.Str s :: _) -> Cidr.of_string s
                            | _ -> None
                          in
                          match (c1, c2) with
                          | Some c1, Some c2 ->
                              let key = (t.Resource.rtype, v1.Resource.rtype, cattr) in
                              let d, s =
                                Option.value ~default:(0, 0)
                                  (Hashtbl.find_opt copath_pairs key)
                              in
                              Hashtbl.replace copath_pairs key
                                (d + 1, s + if Cidr.overlap c1 c2 then 0 else 1)
                          | _ -> ())
                        (Kb.cidr_attrs kb v1.Resource.rtype)
                  | _ -> ())
              reach)
          reach)
      (Program.resources prog);
    (* degree maxima conditioned on enum attributes *)
    List.iter
      (fun r ->
        let id = Resource.id r in
        let peer_types_out =
          List.map (fun (e : Graph.edge) -> e.Graph.dst.Resource.rtype) (Graph.edges_from graph id)
        and peer_types_in =
          List.map (fun (e : Graph.edge) -> e.Graph.src.Resource.rtype) (Graph.edges_to graph id)
        in
        let dedup = List.sort_uniq String.compare in
        List.iter
          (fun (p, v) ->
            List.iter
              (fun tau ->
                let d = Graph.indegree graph id (Graph.Type tau) in
                let key = (r.Resource.rtype, p, v, tau, `In) in
                let hi, c = Option.value ~default:(d, 0) (Hashtbl.find_opt deg_max key) in
                Hashtbl.replace deg_max key (max hi d, c + 1))
              (dedup peer_types_out);
            List.iter
              (fun tau ->
                let d = Graph.outdegree graph id (Graph.Type tau) in
                let key = (r.Resource.rtype, p, v, tau, `Out) in
                let hi, c = Option.value ~default:(d, 0) (Hashtbl.find_opt deg_max key) in
                Hashtbl.replace deg_max key (max hi d, c + 1))
              (dedup peer_types_in))
          (enum_facts r))
      (Program.resources prog);
    (* reserved names exclusivity *)
    List.iter
      (fun r ->
        match Resource.get r "name" with
        | Value.Str s when Hashtbl.mem reserved_names (r.Resource.rtype, s) ->
            let id = Resource.id r in
            let referrers =
              List.map
                (fun (e : Graph.edge) -> e.Graph.src.Resource.rtype)
                (Graph.edges_to graph id)
            in
            List.iter
              (fun tau ->
                let other = Graph.outdegree graph id (Graph.Not_type tau) in
                let key = (r.Resource.rtype, s, tau) in
                let d, sat =
                  Option.value ~default:(0, 0) (Hashtbl.find_opt name_excl key)
                in
                Hashtbl.replace name_excl key (d + 1, sat + if other = 0 then 1 else 0))
              (List.sort_uniq String.compare referrers)
        | _ -> ())
      (Program.resources prog)
  in
  List.iter observe_program programs;
  {
    edgecount;
    paireq;
    dstval;
    srcval;
    dstnull;
    cond2;
    both2;
    containc;
    sibcount;
    sib_nooverlap;
    sib_ne;
    assoc_eq;
    assoc_count;
    outdeg_one;
    outdeg_excl;
    copath_pairs;
    patheq;
    deg_max;
    name_excl;
  }

let merge_inter dst src =
  merge_counts dst.edgecount src.edgecount;
  merge_counts dst.paireq src.paireq;
  merge_counts dst.dstval src.dstval;
  merge_counts dst.srcval src.srcval;
  merge_counts dst.dstnull src.dstnull;
  merge_counts dst.cond2 src.cond2;
  merge_counts dst.both2 src.both2;
  merge_counts dst.sibcount src.sibcount;
  merge_counts dst.assoc_count src.assoc_count;
  merge_counts dst.outdeg_one src.outdeg_one;
  merge_counts dst.outdeg_excl src.outdeg_excl;
  merge_stats dst.containc src.containc;
  merge_stats dst.sib_nooverlap src.sib_nooverlap;
  merge_stats dst.sib_ne src.sib_ne;
  merge_stats dst.assoc_eq src.assoc_eq;
  merge_stats dst.copath_pairs src.copath_pairs;
  merge_stats dst.patheq src.patheq;
  merge_stats dst.name_excl src.name_excl;
  Hashtbl.iter
    (fun k (hi, c) ->
      let merged =
        match Hashtbl.find_opt dst.deg_max k with
        | None -> (hi, c)
        | Some (hi0, c0) -> (max hi hi0, c0 + c)
      in
      Hashtbl.replace dst.deg_max k merged)
    src.deg_max;
  dst

(* Codec for the inter counting tables. [deg_max]'s direction is a byte
   tag so decoding round-trips; Codec.write_table's canonical key sort
   keeps equal tables byte-equal regardless of merge history. *)
let write_conn b (src_ty, src_attr, dst_ty, dst_attr) =
  Codec.write_string b src_ty;
  Codec.write_string b src_attr;
  Codec.write_string b dst_ty;
  Codec.write_string b dst_attr

let read_conn s =
  let src_ty = Codec.read_string s in
  let src_attr = Codec.read_string s in
  let dst_ty = Codec.read_string s in
  let dst_attr = Codec.read_string s in
  (src_ty, src_attr, dst_ty, dst_attr)

let write_int_pair b (d, n) =
  Codec.write_int b d;
  Codec.write_int b n

let read_int_pair s =
  let d = Codec.read_int s in
  let n = Codec.read_int s in
  (d, n)

let write_inter b (c : inter_counts) =
  let conn_str b (k, x) =
    write_conn b k;
    Codec.write_string b x
  in
  let conn_str2 b (k, x, y) =
    conn_str b (k, x);
    Codec.write_string b y
  in
  let conn_str_val b (k, x, v) =
    conn_str b (k, x);
    Value.write b v
  in
  let str3 b (x, y, z) =
    Codec.write_string b x;
    Codec.write_string b y;
    Codec.write_string b z
  in
  Codec.write_table write_conn Codec.write_int b c.edgecount;
  Codec.write_table conn_str2 Codec.write_int b c.paireq;
  Codec.write_table conn_str_val Codec.write_int b c.dstval;
  Codec.write_table conn_str_val Codec.write_int b c.srcval;
  Codec.write_table conn_str Codec.write_int b c.dstnull;
  Codec.write_table conn_str_val Codec.write_int b c.cond2;
  Codec.write_table
    (fun b (k, x, v, y, w) ->
      conn_str_val b (k, x, v);
      Codec.write_string b y;
      Value.write b w)
    Codec.write_int b c.both2;
  Codec.write_table conn_str2 write_int_pair b c.containc;
  Codec.write_table write_conn Codec.write_int b c.sibcount;
  Codec.write_table conn_str write_int_pair b c.sib_nooverlap;
  Codec.write_table conn_str write_int_pair b c.sib_ne;
  Codec.write_table
    (fun b (k1, k2, x, y) ->
      write_conn b k1;
      write_conn b k2;
      Codec.write_string b x;
      Codec.write_string b y)
    write_int_pair b c.assoc_eq;
  Codec.write_table
    (fun b (k1, k2) ->
      write_conn b k1;
      write_conn b k2)
    Codec.write_int b c.assoc_count;
  Codec.write_table write_conn Codec.write_int b c.outdeg_one;
  Codec.write_table write_conn Codec.write_int b c.outdeg_excl;
  Codec.write_table str3 write_int_pair b c.copath_pairs;
  Codec.write_table
    (fun b (x, y, z, w) ->
      str3 b (x, y, z);
      Codec.write_string b w)
    write_int_pair b c.patheq;
  Codec.write_table
    (fun b (ty, p, v, tau, dir) ->
      Codec.write_string b ty;
      Codec.write_string b p;
      Value.write b v;
      Codec.write_string b tau;
      Codec.write_byte b (match dir with `In -> 0 | `Out -> 1))
    write_int_pair b c.deg_max;
  Codec.write_table str3 write_int_pair b c.name_excl

let read_inter s =
  let conn_str s =
    let k = read_conn s in
    let x = Codec.read_string s in
    (k, x)
  in
  let conn_str2 s =
    let k, x = conn_str s in
    let y = Codec.read_string s in
    (k, x, y)
  in
  let conn_str_val s =
    let k, x = conn_str s in
    let v = Value.read s in
    (k, x, v)
  in
  let str3 s =
    let x = Codec.read_string s in
    let y = Codec.read_string s in
    let z = Codec.read_string s in
    (x, y, z)
  in
  let edgecount = Codec.read_table read_conn Codec.read_int s in
  let paireq = Codec.read_table conn_str2 Codec.read_int s in
  let dstval = Codec.read_table conn_str_val Codec.read_int s in
  let srcval = Codec.read_table conn_str_val Codec.read_int s in
  let dstnull = Codec.read_table conn_str Codec.read_int s in
  let cond2 = Codec.read_table conn_str_val Codec.read_int s in
  let both2 =
    Codec.read_table
      (fun s ->
        let k, x, v = conn_str_val s in
        let y = Codec.read_string s in
        let w = Value.read s in
        (k, x, v, y, w))
      Codec.read_int s
  in
  let containc = Codec.read_table conn_str2 read_int_pair s in
  let sibcount = Codec.read_table read_conn Codec.read_int s in
  let sib_nooverlap = Codec.read_table conn_str read_int_pair s in
  let sib_ne = Codec.read_table conn_str read_int_pair s in
  let assoc_eq =
    Codec.read_table
      (fun s ->
        let k1 = read_conn s in
        let k2 = read_conn s in
        let x = Codec.read_string s in
        let y = Codec.read_string s in
        (k1, k2, x, y))
      read_int_pair s
  in
  let assoc_count =
    Codec.read_table
      (fun s ->
        let k1 = read_conn s in
        let k2 = read_conn s in
        (k1, k2))
      Codec.read_int s
  in
  let outdeg_one = Codec.read_table read_conn Codec.read_int s in
  let outdeg_excl = Codec.read_table read_conn Codec.read_int s in
  let copath_pairs = Codec.read_table str3 read_int_pair s in
  let patheq =
    Codec.read_table
      (fun s ->
        let x, y, z = str3 s in
        let w = Codec.read_string s in
        (x, y, z, w))
      read_int_pair s
  in
  let deg_max =
    Codec.read_table
      (fun s ->
        let ty = Codec.read_string s in
        let p = Codec.read_string s in
        let v = Value.read s in
        let tau = Codec.read_string s in
        let dir =
          match Codec.read_byte s with
          | 0 -> `In
          | 1 -> `Out
          | n -> Codec.corrupt "bad degree direction tag %d" n
        in
        (ty, p, v, tau, dir))
      read_int_pair s
  in
  let name_excl = Codec.read_table str3 read_int_pair s in
  {
    edgecount;
    paireq;
    dstval;
    srcval;
    dstnull;
    cond2;
    both2;
    containc;
    sibcount;
    sib_nooverlap;
    sib_ne;
    assoc_eq;
    assoc_count;
    outdeg_one;
    outdeg_excl;
    copath_pairs;
    patheq;
    deg_max;
    name_excl;
  }

(* Reserved-name candidates are a pure function of the finalized KB —
   fixed before any inter counting starts, and shared read-only across
   shards (streamed or parallel). *)
let reserved_names_of kb =
  let reserved_names : (string * string, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun ty ->
      match Kb.attr_info kb ~rtype:ty ~attr:"name" with
      | None -> ()
      | Some info ->
          List.iter
            (fun (v, c) ->
              match v with
              | Value.Str s when c >= 5 -> Hashtbl.replace reserved_names (ty, s) c
              | _ -> ())
            info.Kb.observed)
    (Kb.types kb);
  reserved_names

let emit_inter cfg kb
    {
      edgecount;
      paireq;
      dstval;
      srcval;
      dstnull;
      cond2;
      both2;
      containc;
      sibcount;
      sib_nooverlap;
      sib_ne;
      assoc_eq;
      assoc_count;
      outdeg_one;
      outdeg_excl;
      copath_pairs;
      patheq;
      deg_max;
      name_excl;
    } =
  (* ---- emit ---- *)
  let out = ref [] in
  let emit c = out := c :: !out in
  let conn_cond k =
    let src_ty, src_attr, dst_ty, dst_attr = k in
    let bindings =
      [ { Check.var = "r1"; btype = src_ty }; { Check.var = "r2"; btype = dst_ty } ]
    in
    ( bindings,
      Check.Conn ({ Check.var = "r1"; attr = src_attr }, { Check.var = "r2"; attr = dst_attr })
    )
  in
  Hashtbl.iter
    (fun ((k, pa, pb) : conn_key * string * string) c ->
      let support = get_count edgecount k in
      if support >= cfg.min_support then begin
        let src_ty, _, dst_ty, dst_attr = k in
        (* skip the tautological reference equality itself *)
        if not (String.equal pb dst_attr) then begin
          let conf = float_of_int c /. float_of_int support in
          let prior = eq_baseline kb (src_ty, pa) (dst_ty, pb) in
          let bindings, cond = conn_cond k in
          emit
            (Candidate.make ~template_id:"CONN-ATTR-EQ" ~support ~confidence:conf
               ~lift:(lift_of conf prior)
               (Check.make ~source:Check.Mined bindings cond
                  (Check.Cmp (Check.Eq, attr_term "r1" pa, attr_term "r2" pb))))
        end
      end)
    paireq;
  Hashtbl.iter
    (fun (k, p, v) c ->
      let support = get_count edgecount k in
      if support >= cfg.min_support then begin
        let _, _, dst_ty, _ = k in
        let conf = float_of_int c /. float_of_int support in
        let prior = value_prior kb dst_ty p v in
        let bindings, cond = conn_cond k in
        emit
          (Candidate.make ~template_id:"CONN-DST-EQ" ~support ~confidence:conf
             ~lift:(lift_of conf prior)
             (Check.make ~source:Check.Mined bindings cond
                (Check.Cmp (Check.Eq, attr_term "r2" p, Check.Const v))))
      end)
    dstval;
  Hashtbl.iter
    (fun (k, p, v) c ->
      let support = get_count edgecount k in
      if support >= cfg.min_support then begin
        let src_ty, _, _, _ = k in
        let conf = float_of_int c /. float_of_int support in
        let prior = value_prior kb src_ty p v in
        let bindings, cond = conn_cond k in
        emit
          (Candidate.make ~template_id:"CONN-SRC-EQ" ~support ~confidence:conf
             ~lift:(lift_of conf prior)
             (Check.make ~source:Check.Mined bindings cond
                (Check.Cmp (Check.Eq, attr_term "r1" p, Check.Const v))))
      end)
    srcval;
  Hashtbl.iter
    (fun (k, p) c ->
      let support = get_count edgecount k in
      if support >= cfg.min_support then begin
        let _, _, dst_ty, _ = k in
        let conf = float_of_int c /. float_of_int support in
        let prior = 1.0 -. presence_prior kb dst_ty p in
        let bindings, cond = conn_cond k in
        emit
          (Candidate.make ~template_id:"CONN-DST-NULL" ~support ~confidence:conf
             ~lift:(lift_of conf prior)
             (Check.make ~source:Check.Mined bindings cond
                (Check.Cmp (Check.Eq, attr_term "r2" p, Check.Const Value.Null))))
      end)
    dstnull;
  Hashtbl.iter
    (fun (k, pa, va, pb, vb) c ->
      let support = get_count cond2 (k, pa, va) in
      if support >= cfg.min_support then begin
        let _, _, dst_ty, _ = k in
        let conf = float_of_int c /. float_of_int support in
        let prior = value_prior kb dst_ty pb vb in
        let bindings, cond = conn_cond k in
        emit
          (Candidate.make ~template_id:"CONN-COND-DST-EQ" ~support ~confidence:conf
             ~lift:(lift_of conf prior)
             (Check.make ~source:Check.Mined bindings
                (Check.And
                   [ cond; Check.Cmp (Check.Eq, attr_term "r1" pa, Check.Const va) ])
                (Check.Cmp (Check.Eq, attr_term "r2" pb, Check.Const vb))))
      end)
    both2;
  Hashtbl.iter
    (fun (k, ca, cb) (d, s) ->
      if d >= cfg.min_support then begin
        let conf = float_of_int s /. float_of_int d in
        let bindings, cond = conn_cond k in
        emit
          (Candidate.make ~template_id:"CONN-CONTAIN" ~support:d ~confidence:conf
             ~lift:(lift_of conf 0.5)
             (Check.make ~source:Check.Mined bindings cond
                (Check.Func (Check.Contain, attr_term "r2" cb, attr_term "r1" ca)))
          )
      end)
    containc;
  Hashtbl.iter
    (fun (k, cattr) (d, s) ->
      if d >= cfg.min_support then begin
        let src_ty, src_attr, dst_ty, dst_attr = k in
        let conf = float_of_int s /. float_of_int d in
        let bindings =
          [
            { Check.var = "r1"; btype = src_ty };
            { Check.var = "r2"; btype = src_ty };
            { Check.var = "r3"; btype = dst_ty };
          ]
        in
        let cond =
          Check.Coconn
            ( ({ Check.var = "r1"; attr = src_attr }, { Check.var = "r3"; attr = dst_attr }),
              ({ Check.var = "r2"; attr = src_attr }, { Check.var = "r3"; attr = dst_attr })
            )
        in
        emit
          (Candidate.make ~template_id:"SIBLING-OVERLAP"
             ~support:(get_count sibcount k) ~confidence:conf ~lift:(lift_of conf 0.5)
             (Check.make ~source:Check.Mined bindings cond
                (Check.Not (Check.Func (Check.Overlap, attr_term "r1" cattr, attr_term "r2" cattr)))))
      end)
    sib_nooverlap;
  Hashtbl.iter
    (fun (k, p) (d, s) ->
      if d >= cfg.min_support then begin
        let src_ty, src_attr, dst_ty, dst_attr = k in
        let conf = float_of_int s /. float_of_int d in
        let prior = 1.0 -. eq_baseline kb (src_ty, p) (src_ty, p) in
        if conf >= 0.8 then begin
          let bindings =
            [
              { Check.var = "r1"; btype = src_ty };
              { Check.var = "r2"; btype = src_ty };
              { Check.var = "r3"; btype = dst_ty };
            ]
          in
          let cond =
            Check.Coconn
              ( ({ Check.var = "r1"; attr = src_attr }, { Check.var = "r3"; attr = dst_attr }),
                ({ Check.var = "r2"; attr = src_attr }, { Check.var = "r3"; attr = dst_attr })
              )
          in
          emit
            (Candidate.make ~template_id:"SIBLING-NE" ~support:d ~confidence:conf
               ~lift:(lift_of conf prior)
               (Check.make ~source:Check.Mined bindings cond
                  (Check.Cmp (Check.Ne, attr_term "r1" p, attr_term "r2" p))))
        end
      end)
    sib_ne;
  Hashtbl.iter
    (fun (k1, k2, pa, pb) (d, s) ->
      let support = get_count assoc_count (k1, k2) in
      if support >= cfg.min_support && d >= cfg.min_support then begin
        let c_ty, attr1, a_ty, dst1 = k1 in
        let _, attr2, b_ty, dst2 = k2 in
        let bindings =
          [
            { Check.var = "r3"; btype = c_ty };
            { Check.var = "r1"; btype = a_ty };
            { Check.var = "r2"; btype = b_ty };
          ]
        in
        let cond =
          Check.Coconn
            ( ({ Check.var = "r3"; attr = attr1 }, { Check.var = "r1"; attr = dst1 }),
              ({ Check.var = "r3"; attr = attr2 }, { Check.var = "r2"; attr = dst2 }) )
        in
        let conf_eq = float_of_int s /. float_of_int d in
        let prior_eq = eq_baseline kb (a_ty, pa) (b_ty, pb) in
        if conf_eq >= 0.8 then
          emit
            (Candidate.make ~template_id:"ASSOC-ATTR-EQ" ~support:d ~confidence:conf_eq
               ~lift:(lift_of conf_eq prior_eq)
               (Check.make ~source:Check.Mined bindings cond
                  (Check.Cmp (Check.Eq, attr_term "r1" pa, attr_term "r2" pb))));
        let conf_ne = 1.0 -. conf_eq in
        if conf_ne >= 0.8 then
          emit
            (Candidate.make ~template_id:"ASSOC-ATTR-NE" ~support:d ~confidence:conf_ne
               ~lift:(lift_of conf_ne (1.0 -. prior_eq))
               (Check.make ~source:Check.Mined bindings cond
                  (Check.Cmp (Check.Ne, attr_term "r1" pa, attr_term "r2" pb))))
      end)
    assoc_eq;
  Hashtbl.iter
    (fun (t_ty, v_ty, cattr) (d, s) ->
      if d >= cfg.min_support then begin
        let conf = float_of_int s /. float_of_int d in
        let bindings =
          [
            { Check.var = "r1"; btype = t_ty };
            { Check.var = "r2"; btype = v_ty };
            { Check.var = "r3"; btype = v_ty };
          ]
        in
        let cond = Check.Copath (("r1", "r2"), ("r1", "r3")) in
        emit
          (Candidate.make ~template_id:"COPATH-OVERLAP" ~support:d ~confidence:conf
             ~lift:(lift_of conf 0.5)
             (Check.make ~source:Check.Mined bindings cond
                (Check.Not
                   (Check.Func (Check.Overlap, attr_term "r2" cattr, attr_term "r3" cattr)))))
      end)
    copath_pairs;
  Hashtbl.iter
    (fun k c ->
      let support = get_count edgecount k in
      if support >= cfg.min_support then begin
        let src_ty, _, _, _ = k in
        let conf = float_of_int c /. float_of_int support in
        let bindings, cond = conn_cond k in
        emit
          (Candidate.make ~template_id:"CONN-OUTDEG-ONE" ~support ~confidence:conf
             ~lift:(lift_of conf 0.7)
             (Check.make ~source:Check.Mined bindings cond
                (Check.Cmp
                   ( Check.Eq,
                     Check.Outdeg ("r2", Graph.Type src_ty),
                     Check.Const (Value.Int 1) ))))
      end)
    outdeg_one;
  Hashtbl.iter
    (fun k c ->
      let support = get_count edgecount k in
      if support >= cfg.min_support then begin
        let src_ty, _, _, _ = k in
        let conf = float_of_int c /. float_of_int support in
        let bindings, cond = conn_cond k in
        emit
          (Candidate.make ~template_id:"CONN-OUTDEG-EXCL" ~support ~confidence:conf
             ~lift:(lift_of conf 0.7)
             (Check.make ~source:Check.Mined bindings cond
                (Check.Cmp
                   ( Check.Eq,
                     Check.Outdeg ("r2", Graph.Not_type src_ty),
                     Check.Const (Value.Int 0) ))))
      end)
    outdeg_excl;
  Hashtbl.iter
    (fun (src_ty, dst_ty, pa, pb) (d, e) ->
      if d >= cfg.min_support && not (String.equal pa "name") then begin
        let conf = float_of_int e /. float_of_int d in
        let prior = eq_baseline kb (src_ty, pa) (dst_ty, pb) in
        let bindings =
          [ { Check.var = "r1"; btype = src_ty }; { Check.var = "r2"; btype = dst_ty } ]
        in
        emit
          (Candidate.make ~template_id:"PATH-ATTR-EQ" ~support:d ~confidence:conf
             ~lift:(lift_of conf prior)
             (Check.make ~source:Check.Mined bindings
                (Check.Path ("r1", "r2"))
                (Check.Cmp (Check.Eq, attr_term "r1" pa, attr_term "r2" pb))))
      end)
    patheq;
  Hashtbl.iter
    (fun (ty, name, tau) (d, s) ->
      if d >= cfg.min_support then begin
        let conf = float_of_int s /. float_of_int d in
        emit
          (Candidate.make ~template_id:"NAME-OUTDEG-EXCL" ~support:d ~confidence:conf
             ~lift:(lift_of conf 0.5)
             (intra_check ty
                (Check.Cmp (Check.Eq, attr_term "r" "name", Check.Const (Value.Str name)))
                (Check.Cmp
                   ( Check.Eq,
                     Check.Outdeg ("r", Graph.Not_type tau),
                     Check.Const (Value.Int 0) ))))
      end)
    name_excl;
  Hashtbl.iter
    (fun (ty, p, v, tau, dir) (hi, c) ->
      if c >= cfg.min_support && hi >= 1 then begin
        let template_id, term =
          match dir with
          | `In -> ("ENUM-INDEG-LE", Check.Indeg ("r", Graph.Type tau))
          | `Out -> ("ENUM-OUTDEG-LE", Check.Outdeg ("r", Graph.Type tau))
        in
        emit
          (Candidate.make ~needs_interpolation:true ~template_id ~support:c
             ~confidence:1.0 ~lift:1.0
             (intra_check ty
                (Check.Cmp (Check.Eq, attr_term "r" p, Check.Const v))
                (Check.Cmp (Check.Le, term, Check.Const (Value.Int hi)))))
      end)
    deg_max;
  !out

(* ------------------------------------------------------------------ *)
(* The tables monoid                                                   *)
(* ------------------------------------------------------------------ *)

(* All three counting families bundled as one mergeable value: the unit
   of work a streamed shard produces, checkpoints and folds. The inter
   family's reserved names come from the finalized KB, so a stream must
   finish its KB fold before the first [count_tables] call. *)
type tables = {
  t_intra : intra_counts;
  t_indexed : indexed_counts;
  t_inter : inter_counts;
}

let count_tables ~provider ?jobs config kb programs =
  {
    t_intra = count_sharded ?jobs (count_intra provider config kb) merge_intra programs;
    t_indexed = count_sharded ?jobs count_indexed merge_indexed programs;
    t_inter =
      count_sharded ?jobs
        (count_inter provider config kb (reserved_names_of kb))
        merge_inter programs;
  }

let merge_tables dst src =
  let _ = merge_intra dst.t_intra src.t_intra in
  let _ = merge_indexed dst.t_indexed src.t_indexed in
  let _ = merge_inter dst.t_inter src.t_inter in
  dst

let write_tables b t =
  write_intra b t.t_intra;
  write_indexed b t.t_indexed;
  write_inter b t.t_inter

let read_tables s =
  let t_intra = read_intra s in
  let t_indexed = read_indexed s in
  let t_inter = read_inter s in
  { t_intra; t_indexed; t_inter }

let emit_tables config kb t =
  Candidate.dedup
    (emit_intra config kb t.t_intra
    @ emit_indexed config t.t_indexed
    @ emit_inter config kb t.t_inter)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let materialize ~provider ?jobs programs =
  Parallel.map ?jobs
    (fun p ->
      Program.of_resources
        (List.map (Defaults.effective provider) (Program.resources p)))
    programs

let mine ~provider ?(config = default_config) ?jobs kb programs =
  let programs = materialize ~provider ?jobs programs in
  emit_tables config kb (count_tables ~provider ?jobs config kb programs)

let intra_counts_by_type ~provider ?jobs ~use_kb kb programs =
  let config = { default_config with use_kb } in
  let programs = materialize ~provider ?jobs programs in
  let candidates =
    Candidate.dedup
      (emit_intra config kb
         (count_sharded ?jobs (count_intra provider config kb) merge_intra
            programs)
      @ emit_indexed config
          (count_sharded ?jobs count_indexed merge_indexed programs))
  in
  let by_type = Hashtbl.create 64 in
  List.iter
    (fun (c : Candidate.t) ->
      match c.Candidate.check.Check.bindings with
      | [ { Check.btype; _ } ] -> incr_tbl by_type btype
      | _ -> ())
    candidates;
  List.filter_map
    (fun ty ->
      match provider.Provider.find_schema ty with
      | None -> None
      | Some schema ->
          Some (ty, Schema.attr_count schema, get_count by_type ty))
    (Kb.types kb)
