(* Open-loop request generator: a single-threaded [Unix.select] loop
   over at most two connections to the daemon. Request [i] is due at
   [due.(i)] whatever happened to earlier requests (independent IDE and
   CI callers), goes out on connection [i mod conns], and is timed from
   its due time to the arrival of its full response line, so a stall
   charges every request queued behind it. How late the generator
   itself was (send time minus due time) is recorded with the samples,
   so a late generator shows instead of flattering the tail. *)

type outcome = {
  due : float array;
  sent : float array;  (** nan when never fully written *)
  received : float array;  (** nan when no response arrived *)
  responses : string array;  (** "" when no response arrived *)
}

type conn = {
  fd : Unix.file_descr;
  pending : (int * string) Queue.t;  (** (slot, line) not yet fully written *)
  mutable offset : int;  (** bytes of the head line already written *)
  inflight : int Queue.t;  (** slots written, awaiting their response *)
  partial : Buffer.t;  (** bytes of an incomplete response line *)
  mutable alive : bool;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  fd

let chunk = Bytes.create 65536

(* Seconds after the last due time to wait for outstanding replies. *)
let drain = 10.

let run ~socket ~conns ~lines ~due () =
  let n = Array.length lines in
  let sent = Array.make n Float.nan in
  let received = Array.make n Float.nan in
  let responses = Array.make n "" in
  let cs =
    Array.init (max 1 (min 2 conns)) (fun _ ->
        let fd = connect socket in
        Unix.set_nonblock fd;
        {
          fd;
          pending = Queue.create ();
          offset = 0;
          inflight = Queue.create ();
          partial = Buffer.create 4096;
          alive = true;
        })
  in
  let k = Array.length cs in
  let deadline = (if n = 0 then Measure.now () else due.(n - 1)) +. drain in
  let next = ref 0 and answered = ref 0 in
  let write c =
    let continue = ref true in
    while !continue && c.alive && not (Queue.is_empty c.pending) do
      let slot, line = Queue.peek c.pending in
      let len = String.length line - c.offset in
      match Unix.single_write_substring c.fd line c.offset len with
      | w when w = len ->
          ignore (Queue.pop c.pending);
          c.offset <- 0;
          sent.(slot) <- Measure.now ();
          Queue.push slot c.inflight
      | w -> c.offset <- c.offset + w
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          continue := false
      | exception Unix.Unix_error _ -> c.alive <- false
    done
  in
  let read c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> c.alive <- false
    | got ->
        let t = Measure.now () in
        let start = ref 0 in
        for i = 0 to got - 1 do
          if Bytes.get chunk i = '\n' then begin
            Buffer.add_subbytes c.partial chunk !start (i - !start);
            start := i + 1;
            match Queue.take_opt c.inflight with
            | Some slot ->
                received.(slot) <- t;
                responses.(slot) <- Buffer.contents c.partial;
                incr answered;
                Buffer.clear c.partial
            | None -> Buffer.clear c.partial
          end
        done;
        Buffer.add_subbytes c.partial chunk !start (got - !start)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> c.alive <- false
  in
  let live () = Array.exists (fun c -> c.alive) cs in
  while !answered < n && Measure.now () < deadline && live () do
    let t = Measure.now () in
    while !next < n && due.(!next) <= t do
      let c = cs.(!next mod k) in
      Queue.push (!next, lines.(!next)) c.pending;
      write c;
      incr next
    done;
    let timeout =
      let until = if !next < n then due.(!next) else deadline in
      Float.max 0. (Float.min (until -. Measure.now ()) 0.05)
    in
    let alive = List.filter (fun c -> c.alive) (Array.to_list cs) in
    let rd = List.map (fun c -> c.fd) alive in
    let wr =
      List.filter_map (fun c -> if Queue.is_empty c.pending then None else Some c.fd) alive
    in
    match Unix.select rd wr [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | r, w, _ ->
        List.iter (fun c -> if List.mem c.fd w then write c) alive;
        List.iter (fun c -> if List.mem c.fd r then read c) alive
  done;
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) cs;
  { due; sent; received; responses }

(* Evenly spaced due times at [rate] per second, starting 5 ms from
   now. *)
let schedule ~rate n =
  let t0 = Measure.now () +. 0.005 in
  Array.init n (fun i -> t0 +. (float_of_int i /. rate))

(* Everything due at once: the daemon's capacity, not its latency. *)
let burst n =
  let t0 = Measure.now () +. 0.001 in
  Array.make n t0

let answered o i = Float.is_finite o.received.(i)
let latency_ms o i = (o.received.(i) -. o.due.(i)) *. 1000.
let lateness_ms o i = (o.sent.(i) -. o.due.(i)) *. 1000.

let latencies o =
  List.filter_map
    (fun i -> if answered o i then Some (latency_ms o i) else None)
    (List.init (Array.length o.due) Fun.id)

let lateness o =
  List.filter_map
    (fun i -> if Float.is_finite o.sent.(i) then Some (lateness_ms o i) else None)
    (List.init (Array.length o.due) Fun.id)
