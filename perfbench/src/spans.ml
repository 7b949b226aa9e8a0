(* In-memory span recorder for the traced runs. Spans are recorded at
   layer boundaries from the benchmark's own files — around calls into
   the library's public functions — and, through a {!Telemetry} sink,
   at the stage boundaries the pipeline already reports. Nothing is
   written until the run ends. Single-threaded by design: every traced
   workload runs at jobs=1. *)

module Telemetry = Zodiac_util.Telemetry
module Json = Zodiac_util.Json

type span = {
  id : int;
  name : string;
  parent : int option;
  start : float;
  stop : float;
}

type t = {
  mutable closed : span list;  (** most recent first *)
  mutable open_ : (int * string * float) list;  (** innermost first *)
  mutable next_id : int;
}

let create () = { closed = []; open_ = []; next_id = 0 }

let enter t name =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.open_ <- (id, name, Measure.now ()) :: t.open_

let leave t =
  match t.open_ with
  | [] -> invalid_arg "Spans.leave: no open span"
  | (id, name, start) :: rest ->
      t.open_ <- rest;
      let parent = match rest with (p, _, _) :: _ -> Some p | [] -> None in
      t.closed <- { id; name; parent; start; stop = Measure.now () } :: t.closed

let with_span t name f =
  enter t name;
  Fun.protect ~finally:(fun () -> leave t) f

(* Mirror the pipeline's telemetry spans (corpus, kb, mine, ...) into
   this recorder, timed by the recorder's own clock. *)
let sink t : Telemetry.sink = function
  | Telemetry.Span_open name -> enter t name
  | Telemetry.Span_close _ -> leave t
  | Telemetry.Count _ -> ()

(* A clocked recorder feeding this span list. *)
let telemetry t = Telemetry.create ~clock:Measure.now ~sinks:[ sink t ] ()

let spans t = List.rev t.closed
let duration s = s.stop -. s.start
let named t name = List.filter (fun s -> String.equal s.name name) (spans t)
let count t name = List.length (named t name)
let total t name = List.fold_left (fun acc s -> acc +. duration s) 0. (named t name)

(* Total time of spans called [child] nested (at any depth) inside
   spans called [ancestor]. *)
let within t ~ancestor child =
  let all = spans t in
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) all;
  let rec under = function
    | None -> false
    | Some id -> (
        match Hashtbl.find_opt by_id id with
        | None -> false
        | Some p -> String.equal p.name ancestor || under p.parent)
  in
  List.fold_left
    (fun acc s -> if under s.parent then acc +. duration s else acc)
    0. (named t child)

let to_json t =
  let t0 = match spans t with [] -> 0. | s :: _ -> s.start in
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Int s.id);
             ("name", Json.String s.name);
             ("parent", match s.parent with None -> Json.Null | Some p -> Json.Int p);
             ("start_us", Json.Int (int_of_float ((s.start -. t0) *. 1e6)));
             ("end_us", Json.Int (int_of_float ((s.stop -. t0) *. 1e6)));
           ])
       (spans t))

let write t path =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json t));
  output_char oc '\n';
  close_out oc
