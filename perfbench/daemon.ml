(* A [pmtest-cli serve] daemon in its own process, so its domains do not
   share stop-the-world GC with the load generator.  One shard with one
   checking worker; every other setting is the daemon's default. *)

module Client = Pmtest_client.Client

type t = { pid : int; socket : string }

let counter = ref 0

let start (ctx : Common.ctx) =
  incr counter;
  (* Relative to the working directory: a Unix socket path is limited to
     about 100 bytes, and the checkout may sit deep in the file system. *)
  let socket = Filename.concat ctx.Common.run_dir (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) !counter) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process ctx.Common.cli
      [| ctx.Common.cli; "serve"; "--socket"; socket; "--shards"; "1"; "--workers"; "1" |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  let t = { pid; socket } in
  let give_up = Sample.now () + 20_000_000_000 in
  let rec wait () =
    match Client.connect ~socket () with
    | Ok c -> Client.close c
    | Error e ->
      if Sample.now () > give_up then failwith ("pmtestd did not come up: " ^ e);
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith ("pmtestd exited at start-up: " ^ e));
      Unix.sleepf 0.005;
      wait ()
  in
  wait ();
  t

let peak_rss_mb t = Common.peak_rss_mb ~pid:(string_of_int t.pid) ()

(* SIGTERM drains the daemon; wait for it to exit. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec reap () =
    match Unix.waitpid [] t.pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error _ -> ()
    | _ -> ()
  in
  reap ();
  try Sys.remove t.socket with Sys_error _ -> ()

let live : t list ref = ref []

let start ctx =
  let t = start ctx in
  live := t :: !live;
  t

let stop t =
  live := List.filter (fun d -> d.pid <> t.pid) !live;
  stop t

(* Never leave a daemon behind, whatever path the run exits by. *)
let () = at_exit (fun () -> List.iter stop !live)
