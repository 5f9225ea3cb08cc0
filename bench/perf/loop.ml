(* Open- and closed-loop load generation: one thread per connection,
   never more connections than the host has cores.

   Open loop: every request has an absolute due time fixed by the
   script.  A connection thread sleeps until the due time of its next
   request, or sends at once when it is already late; latency runs from
   the due time, so a stall is charged to every request queued behind
   it, not only to the one that met it.

   Closed loop: each connection sends its next request as soon as the
   previous reply is in, through a fixed script, with a deadline as a
   backstop.  Sequential: a closed loop on one connection, so that a
   probe read between requests (the server's CPU time) can be charged
   to each request alone. *)

type 'o record = {
  req : int;  (* script index *)
  due : float;  (* absolute; the send time in a closed loop *)
  sent : float;
  finished : float;
  idle : bool;  (* the connection was free at the due time *)
  outcome : 'o;
}

let now = Dist.now
let latency r = r.finished -. r.due

(* Requests of each connection, in script order. *)
let split ~conns (reqs : Script.req array) =
  let per = Array.make conns [] in
  Array.iter
    (fun r ->
      let c = Script.conn_of ~conns r in
      per.(c) <- r :: per.(c))
    reqs;
  Array.map (fun l -> Array.of_list (List.rev l)) per

let run_threads conns f =
  let threads = Array.init conns (fun c -> Thread.create f c) in
  Array.iter Thread.join threads

(* [send c req] issues one request on connection [c] and waits for the
   reply. *)
let open_loop ~send ~conns ~start (reqs : Script.req array) =
  let per = split ~conns reqs in
  let out = Array.map (fun l -> Array.make (Array.length l) None) per in
  run_threads conns (fun c ->
      let free_at = ref neg_infinity in
      Array.iteri
        (fun i (r : Script.req) ->
          let due = start +. r.at in
          let d = due -. now () in
          if d > 0. then Thread.delay d;
          let sent = now () in
          let outcome = send c r in
          let finished = now () in
          let idle = !free_at <= due in
          let record = { req = r.idx; due; sent; finished; idle; outcome } in
          out.(c).(i) <- Some record;
          free_at := finished)
        per.(c));
  Array.concat (Array.to_list out) |> Array.map Option.get

(* One request at a time on connection 0, through the whole script
   unless the deadline comes first.  [probe] is read before and after
   each request, outside the request's timing, and each record comes
   with the difference.  Returns the records and whether the whole
   script was sent. *)
let sequential ~send ~probe ~until (reqs : Script.req array) =
  let rec go i acc =
    if i >= Array.length reqs then (acc, true)
    else if now () >= until then (acc, false)
    else
      let r = reqs.(i) in
      let p0 = probe () in
      let sent = now () in
      let outcome = send 0 r in
      let finished = now () in
      let cost = probe () -. p0 in
      go (i + 1)
        (({ req = r.idx; due = sent; sent; finished; idle = true; outcome }, cost)
        :: acc)
  in
  let acc, complete = go 0 [] in
  (Array.of_list (List.rev acc), complete)

(* Each connection goes through its share of the script unless the
   deadline comes first.  Returns the executed records and whether the
   whole script was sent. *)
let closed_loop ~send ~conns ~until (reqs : Script.req array) =
  let per = split ~conns reqs in
  let out = Array.make conns [] and done_ = Array.make conns false in
  run_threads conns (fun c ->
      let q = per.(c) in
      let rec go i acc =
        if i >= Array.length q then begin
          done_.(c) <- true;
          acc
        end
        else if now () >= until then acc
        else
          let r = q.(i) in
          let sent = now () in
          let outcome = send c r in
          let finished = now () in
          go (i + 1)
            ({ req = r.idx; due = sent; sent; finished; idle = true; outcome }
            :: acc)
      in
      out.(c) <- go 0 []);
  (Array.concat (List.map Array.of_list (Array.to_list out)),
   Array.for_all Fun.id done_)
