type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let of_fd fd =
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

(* Retry refused connections for [wait_ms]: covers the gap between a
   freshly spawned server process and its listen(2). *)
let connect_addr ?(wait_ms = 0.) mk_socket addr =
  let deadline = Unix.gettimeofday () +. (wait_ms /. 1000.) in
  let rec go () =
    let fd = mk_socket () in
    match Unix.connect fd addr with
    | () -> of_fd fd
    | exception
        Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when Unix.gettimeofday () < deadline ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.01;
        go ()
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  go ()

let connect ?wait_ms path =
  connect_addr ?wait_ms
    (fun () -> Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0)
    (Unix.ADDR_UNIX path)

let connect_tcp ?wait_ms ~port () =
  connect_addr ?wait_ms
    (fun () -> Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0)
    (Unix.ADDR_INET (Unix.inet_addr_loopback, port))

(* A receive deadline on the socket itself: a wedged server turns into
   a failed read instead of a hung client. *)
let set_receive_timeout t seconds =
  Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO (Float.max 0. seconds)

let request ?deadline_ms ?max_rows ?max_expansions t command =
  match
    Option.iter (Printf.fprintf t.oc "DEADLINE-MS %g\n") deadline_ms;
    Option.iter (Printf.fprintf t.oc "MAX-ROWS %d\n") max_rows;
    Option.iter (Printf.fprintf t.oc "MAX-EXPANSIONS %d\n") max_expansions;
    Printf.fprintf t.oc "%s\n" (String.trim command);
    flush t.oc
  with
  | () -> Protocol.read_response t.ic
  | exception Sys_error e -> Error ("connection lost: " ^ e)

let close t =
  (try
     Printf.fprintf t.oc "QUIT\n";
     flush t.oc
   with Sys_error _ -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()
