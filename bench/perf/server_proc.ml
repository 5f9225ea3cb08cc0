(* The real [perso_cli serve], run as a child process.  Every server
   started here is stopped and reaped before the benchmark exits, even
   on a failure path. *)

open Perso_server

type t = { pid : int; socket : string; mutable reaped : bool }

let live : t list ref = ref []

let reap ?(timeout_s = 10.) t =
  if not t.reaped then begin
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.005;
          wait ()
      | 0, _ ->
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] t.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ();
    t.reaped <- true;
    live := List.filter (fun s -> s != t) !live
  end

let kill t =
  if not t.reaped then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap t
  end

let () = at_exit (fun () -> List.iter kill !live)

let spawn ~cli ~log ~socket args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let argv = Array.of_list (cli :: "serve" :: "--socket" :: socket :: args) in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close devnull;
        Unix.close logfd)
      (fun () -> Unix.create_process cli argv devnull devnull logfd)
  in
  let t = { pid; socket; reaped = false } in
  live := t :: !live;
  t

let exited t =
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> false
  | _ ->
      t.reaped <- true;
      true
  | exception Unix.Unix_error _ -> false

(* Poll at 1 ms until the server answers PING; fail if it exits or
   stays silent past the timeout. *)
let wait_ready ?(timeout_s = 60.) t =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if exited t then failwith ("server exited during start-up: " ^ t.socket)
    else
      match Client.connect t.socket with
      | c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              Client.set_receive_timeout c timeout_s;
              match Client.request c "PING" with
              | Ok (Protocol.Message _) -> ()
              | _ -> failwith "server did not answer PING")
      | exception Unix.Unix_error _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.001;
          go ()
  in
  go ()

(* CPU seconds the server has run so far: the sum over its threads of
   the kernel's nanosecond run time (the first field of each thread's
   schedstat), which leaves out time the hypervisor took away.  Read
   while the server is idle, it is exact.  It is read between requests,
   so it is kept cheap: one small read per thread. *)
let schedstat_buf = Bytes.create 128

let read_small path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Bytes.sub_string schedstat_buf 0
        (Unix.read fd schedstat_buf 0 (Bytes.length schedstat_buf)))

let cpu_s t =
  let dir = Printf.sprintf "/proc/%d/task" t.pid in
  Array.fold_left
    (fun acc tid ->
      match read_small (Printf.sprintf "%s/%s/schedstat" dir tid) with
      | s -> acc +. (Scanf.sscanf s "%Ld" Int64.to_float *. 1e-9)
      | exception (Unix.Unix_error _ | Scanf.Scan_failure _ | End_of_file) ->
          acc)
    0.
    (try Sys.readdir dir with Sys_error _ -> [||])

(* Wall seconds from spawn to the first PING answer, and the CPU seconds
   the server spent getting there. *)
let start ~cli ~log ~socket args =
  let t0 = Dist.now () in
  let t = spawn ~cli ~log ~socket args in
  (match wait_ready t with () -> () | exception e -> kill t; raise e);
  let wall = Dist.now () -. t0 in
  (t, wall, cpu_s t)

let shutdown t =
  (match Client.connect t.socket with
  | c ->
      Client.set_receive_timeout c 10.;
      ignore (Client.request c "SHUTDOWN");
      Client.close c
  | exception Unix.Unix_error _ -> ());
  reap t

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())
