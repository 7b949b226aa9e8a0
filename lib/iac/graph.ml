type edge = {
  src : Resource.id;
  src_attr : string;
  dst : Resource.id;
  dst_attr : string;
}

type type_spec = Type of string | Not_type of string

module Id_map = Map.Make (struct
  type t = Resource.id

  let compare = Resource.compare_id
end)

type t = {
  prog : Program.t;
  all_edges : edge list;
  out_adj : edge list Id_map.t;  (* keyed by src *)
  in_adj : edge list Id_map.t;  (* keyed by dst *)
}

let build prog =
  let all_edges =
    List.concat_map
      (fun r ->
        let src = Resource.id r in
        List.filter_map
          (fun (path, (reference : Value.reference)) ->
            let dst = { Resource.rtype = reference.rtype; rname = reference.rname } in
            if Program.mem prog dst then
              Some { src; src_attr = path; dst; dst_attr = reference.attr }
            else None)
          (Resource.references r))
      (Program.resources prog)
  in
  let add_to key edge map =
    Id_map.update key
      (function None -> Some [ edge ] | Some es -> Some (edge :: es))
      map
  in
  let out_adj =
    List.fold_left (fun m e -> add_to e.src e m) Id_map.empty all_edges
  in
  let in_adj = List.fold_left (fun m e -> add_to e.dst e m) Id_map.empty all_edges in
  { prog; all_edges; out_adj; in_adj }

let program t = t.prog

let with_program t prog = { t with prog }

let edges t = t.all_edges

let nodes t = List.map Resource.id (Program.resources t.prog)

let edges_from t id = match Id_map.find_opt id t.out_adj with Some es -> es | None -> []

let edges_to t id = match Id_map.find_opt id t.in_adj with Some es -> es | None -> []

let conn t ~src ~src_attr ~dst ~dst_attr =
  List.exists
    (fun e ->
      Resource.equal_id e.dst dst
      && String.equal e.src_attr src_attr
      && String.equal e.dst_attr dst_attr)
    (edges_from t src)

let connected t a b = List.exists (fun e -> Resource.equal_id e.dst b) (edges_from t a)

let matches_type spec rtype =
  match spec with
  | Type ty -> String.equal ty rtype
  | Not_type ty -> not (String.equal ty rtype)

let distinct ids =
  List.fold_left (fun acc id -> if List.exists (Resource.equal_id id) acc then acc else id :: acc) [] ids
  |> List.rev

let neighbours_out t id = distinct (List.map (fun e -> e.dst) (edges_from t id))

let neighbours_in t id = distinct (List.map (fun e -> e.src) (edges_to t id))

let bfs step start =
  let visited = ref [] in
  let rec loop frontier =
    match frontier with
    | [] -> ()
    | id :: rest ->
        if List.exists (Resource.equal_id id) !visited then loop rest
        else begin
          visited := id :: !visited;
          loop (step id @ rest)
        end
  in
  loop (step start);
  List.rev !visited

let reachable_from t id = bfs (neighbours_out t) id

let reaching t id = bfs (neighbours_in t) id

let path t a b =
  (not (Resource.equal_id a b) || List.exists (Resource.equal_id a) (reachable_from t a))
  && List.exists (Resource.equal_id b) (reachable_from t a)

let indegree t id spec =
  List.length
    (List.filter (fun e -> matches_type spec e.dst.Resource.rtype) (edges_from t id))

let outdegree t id spec =
  List.length
    (List.filter (fun e -> matches_type spec e.src.Resource.rtype) (edges_to t id))

let topological_order t =
  (* Deploy referenced resources before referencing ones: repeatedly
     emit nodes all of whose out-neighbours are already emitted. *)
  let all = nodes t in
  let emitted = Hashtbl.create 16 in
  let key id = Resource.id_to_string id in
  let order = ref [] in
  let remaining = ref all in
  let progress = ref true in
  while !remaining <> [] && !progress do
    progress := false;
    let ready, blocked =
      List.partition
        (fun id ->
          List.for_all
            (fun dep -> Hashtbl.mem emitted (key dep))
            (neighbours_out t id))
        !remaining
    in
    if ready <> [] then begin
      progress := true;
      List.iter
        (fun id ->
          Hashtbl.replace emitted (key id) ();
          order := id :: !order)
        ready
    end;
    remaining := blocked
  done;
  (* Break cycles deterministically by appending leftovers in program order. *)
  List.iter (fun id -> order := id :: !order) !remaining;
  List.rev !order

let to_dot t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph iac {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n";
  List.iter
    (fun id ->
      Buffer.add_string buf
        (Printf.sprintf "  %S;\n" (Resource.id_to_string id)))
    (nodes t);
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  %S -> %S [label=%S];\n"
           (Resource.id_to_string e.src)
           (Resource.id_to_string e.dst)
           e.src_attr))
    t.all_edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
