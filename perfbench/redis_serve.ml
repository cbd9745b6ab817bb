(* redis-serve: the Redis+LRU trace, recorded once during set-up and cut
   at the program's own [send_trace] boundaries (every 16 ops), replayed
   to a [pmtestd] daemon (1 shard, 1 worker) by two clients in a closed
   loop.  Each session connects, streams one window of consecutive
   sections, fetches the report and compares it with an in-process
   session over the same sections. *)

open Pmtest_util
open Pmtest_trace
open Pmtest_core
open Pmtest_workloads
open Common
module Client = Pmtest_client.Client

let trace_ops = 16384
let keys = 16384
let ops_per_section = 16
(* Sections per session. *)
let window = 64
let clients = 2

type trace = {
  sections : Event.t array array;  (** Each with its exclusion preamble. *)
  ops : int array;  (** Redis ops behind each section. *)
}

(* Program-side timing of a traced recording (ns totals). *)
type timing = {
  mutable self_ns : int;  (** Inside [Redis.apply], outside emit. *)
  em : emits;
  sends : Sample.t;  (** µs per [Pmtest.send_trace]. *)
}

(* The Fig. 11 Redis+LRU run under a default session; the section
   observer keeps every section exactly as the checker receives it.  Only
   the second half of the run is kept: by then the cache is full and
   every fresh key evicts, so each window does the same kind of work. *)
let record ?timing ~seed () =
  let kv = Clients.redis_lru ~ops:trace_ops ~keys (Rng.create seed) in
  let s = Pmtest.init () in
  let sections = ref [] and ops = ref [] and pending = ref 0 and applied = ref 0 in
  Pmtest.on_section s (fun sec ->
      if !applied > trace_ops / 2 then begin
        sections := sec :: !sections;
        ops := !pending :: !ops
      end;
      pending := 0);
  let sink = Pmtest.sink s in
  let sink =
    match timing with
    | None -> sink
    | Some tm -> timed_sink tm.em sink
  in
  let r = Redis.create ~sink () in
  Array.iteri
    (fun i op ->
      let a = Sample.now () in
      let e0 = match timing with Some tm -> tm.em.emit_ns | None -> 0 in
      Redis.apply r op;
      incr pending;
      incr applied;
      let b = Sample.now () in
      if i mod ops_per_section = 0 then Pmtest.send_trace s;
      match timing with
      | None -> ()
      | Some tm ->
        let c = Sample.now () in
        tm.self_ns <- tm.self_ns + (b - a) - (tm.em.emit_ns - e0);
        if i mod ops_per_section = 0 then Sample.add tm.sends (float_of_int (c - b) /. 1e3))
    kv;
  Pmtest.send_trace s;
  ignore (Pmtest.finish s);
  (match Redis.check_consistent r with Ok () -> () | Error e -> failwith ("redis: " ^ e));
  { sections = Array.of_list (List.rev !sections); ops = Array.of_list (List.rev !ops) }

(* A session's window takes every [windows]-th section, so each window
   samples the whole recorded half and costs about the same as any
   other; sections carry their own preamble, so any subset is a valid
   session. *)
let windows tr = Array.length tr.sections / window
let window_index tr w i = w + (i * windows tr)
let window_sections tr w = Array.init window (fun i -> tr.sections.(window_index tr w i))
let window_ops tr w = Array.fold_left ( + ) 0 (Array.init window (fun i -> tr.ops.(window_index tr w i)))

(* An in-process session over the same sections: the verdict a served
   session must reproduce byte for byte. *)
let local_report sections =
  let rt = Runtime.create ~workers:0 () in
  Array.iter (Runtime.send_trace rt) sections;
  render (Runtime.shutdown rt)

type state = {
  daemon : Daemon.t;
  trace : trace;
  expected : string array;  (** Per window. *)
}

let setup ctx () =
  let daemon = Daemon.start ctx in
  let trace = record ~seed:ctx.seed () in
  let expected =
    Array.init (windows trace) (fun w -> expect ctx (local_report (window_sections trace w)))
  in
  (* Warm-up: one served session per client. *)
  for _ = 1 to clients do
    match Client.connect ~socket:daemon.Daemon.socket () with
    | Error e -> failwith e
    | Ok c ->
      Array.iter (fun sec -> ignore (Client.send_events c sec)) (window_sections trace 0);
      ignore (Client.get_result c);
      Client.close c
  done;
  { daemon; trace; expected }

type phase = {
  m : Mutex.t;
  sessions : Sample.t;  (** ms, connect to report in hand. *)
  sends : Sample.t;  (** µs per [Client.send_events] (one section). *)
  results : Sample.t;  (** ms per [Client.get_result]. *)
  mutable done_ops : int;
  mutable failed_ops : int;
  mutable next : int;
  mutable checked_sections : int;
  (* ns totals over sessions, for the layer accounting *)
  mutable session_ns : int;
  mutable connect_ns : int;
  mutable send_ns : int;
  mutable result_ns : int;
  mutable close_ns : int;
}

let new_phase () =
  {
    m = Mutex.create ();
    sessions = Sample.create ();
    sends = Sample.create ();
    results = Sample.create ();
    done_ops = 0;
    failed_ops = 0;
    next = 0;
    checked_sections = 0;
    session_ns = 0;
    connect_ns = 0;
    send_ns = 0;
    result_ns = 0;
    close_ns = 0;
  }

let locked ph f =
  Mutex.lock ph.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock ph.m) f

(* One session: connect, stream the window, fetch the report, compare. *)
let session st ph ~traced ~sid w =
  let sections = window_sections st.trace w in
  let sends = Array.make (Array.length sections) 0 in
  let t_conn = ref 0 and t_res = ref 0 and t_close = ref 0 in
  let span name a b = if traced then Span.record name ~session:sid ~section:(-1) a b in
  let t0 = Sample.now () in
  let outcome =
    match Client.connect ~socket:st.daemon.Daemon.socket () with
    | Error e -> Error e
    | Ok c ->
      let t1 = Sample.now () in
      t_conn := t1 - t0;
      span "client.connect" t0 t1;
      let rec stream i =
        if i = Array.length sections then Ok ()
        else
          let a = Sample.now () in
          match Client.send_events c sections.(i) with
          | Error e -> Error e
          | Ok () ->
            let b = Sample.now () in
            sends.(i) <- b - a;
            if traced then
              Span.record "client.send" ~session:sid ~section:(window_index st.trace w i) a b;
            stream (i + 1)
      in
      let r =
        match stream 0 with
        | Error e -> Error e
        | Ok () ->
          let a = Sample.now () in
          let r = Client.get_result c in
          let b = Sample.now () in
          t_res := b - a;
          span "client.get_result" a b;
          r
      in
      let a = Sample.now () in
      Client.close c;
      let b = Sample.now () in
      t_close := b - a;
      span "client.close" a b;
      r
  in
  let t1 = Sample.now () in
  span "client.session" t0 t1;
  let ops = window_ops st.trace w in
  (* A session that got a report is timed whatever its verdict; a wrong
     verdict or a transport error fails the session's ops. *)
  locked ph (fun () ->
      match outcome with
      | Error _ -> ph.failed_ops <- ph.failed_ops + ops
      | Ok report ->
        Sample.add ph.sessions (float_of_int (t1 - t0) /. 1e6);
        Sample.add ph.results (float_of_int !t_res /. 1e6);
        Array.iter (fun ns -> Sample.add ph.sends (float_of_int ns /. 1e3)) sends;
        ph.checked_sections <- ph.checked_sections + Array.length sections;
        ph.session_ns <- ph.session_ns + (t1 - t0);
        ph.connect_ns <- ph.connect_ns + !t_conn;
        ph.send_ns <- ph.send_ns + Array.fold_left ( + ) 0 sends;
        ph.result_ns <- ph.result_ns + !t_res;
        ph.close_ns <- ph.close_ns + !t_close;
        if render report = st.expected.(w) then ph.done_ops <- ph.done_ops + ops
        else ph.failed_ops <- ph.failed_ops + ops)

(* Closed loop: each client starts its next session when the last one
   has its report. *)
let run_clients st ph ~traced ~until =
  let client () =
    let rec loop () =
      if Sample.now () < until then begin
        let sid =
          locked ph (fun () ->
              let k = ph.next in
              ph.next <- k + 1;
              k)
        in
        session st ph ~traced ~sid (sid mod windows st.trace);
        loop ()
      end
    in
    loop ()
  in
  List.iter Thread.join (List.init clients (fun _ -> Thread.create client ()))

(* The checking work of window [w] alone: its sections checked
   synchronously in-process ([workers:0]), in ms — the other side of
   [slowdown], which is then the price of serving that work. *)
let in_process_ms st w =
  Gc.full_major ();
  let t0 = Sample.now () in
  let rt = Runtime.create ~workers:0 () in
  Array.iter (Runtime.send_trace rt) (window_sections st.trace w);
  ignore (Runtime.shutdown rt);
  float_of_int (Sample.now () - t0) /. 1e6

(* Sessions run in slices, with three in-process checks between slices
   when [local] is given: both sides of [slowdown] are sampled across the
   whole run, so a change in host load moves them together. *)
let slice_ns = 1_000_000_000

let measure ?local st ph ~traced ~until =
  Sample.Steal.start ();
  while Sample.now () < until do
    run_clients st ph ~traced ~until:(min until (Sample.now () + slice_ns));
    Option.iter
      (fun l ->
        for _ = 1 to 3 do
          Sample.add l (in_process_ms st (Sample.length l mod windows st.trace))
        done)
      local;
    Sample.Steal.tick ()
  done;
  Sample.Steal.stop ()

(* Throughput of the closed loop at the median session time: [clients]
   sessions in flight, each checking one window's ops. *)
let ops_per_s st ph =
  float_of_int (clients * window_ops st.trace 0) /. (Sample.median ph.sessions /. 1e3)

let slack = 0.05

let run_traced ctx st =
  let untraced = new_phase () in
  measure st untraced ~traced:false ~until:(deadline ctx ~share:0.5);
  let ph = new_phase () in
  Span.enabled := true;
  let gc0 = gc_counters () in
  let t0 = Sample.now () in
  measure st ph ~traced:true ~until:(deadline ctx ~share:0.5);
  let wall = Sample.seconds_since t0 in
  let gc1 = gc_counters () in
  Span.enabled := false;
  let sessions = Sample.length ph.sessions in
  let tm = { self_ns = 0; em = { emit_ns = 0; emits = 0 }; sends = Sample.create () } in
  let t0 = Sample.now () in
  ignore (Clients.redis_lru ~ops:trace_ops ~keys (Rng.create ctx.seed));
  let gen_us = Layers.us_since t0 /. float_of_int trace_ops in
  ignore (record ~timing:tm ~seed:ctx.seed ());
  let sections = window_sections st.trace 0 in
  (* The independent checkers on a sample of the sections. *)
  let programs = Array.init 2 (fun k -> Layers.program_of_section sections.(k * window / 2)) in
  let replay = Layers.replay ctx ~sections ~programs in
  let session_p50 = Sample.median ph.sessions in
  let ops_u = ops_per_s st untraced and ops_t = ops_per_s st ph in
  let layers =
    Layers.gc_fields
      {
        replay with
        Layers.self_s =
          float_of_int tm.self_ns /. 1e9 *. float_of_int (window_ops st.trace 0)
          /. float_of_int trace_ops;
        emit_ns = float_of_int tm.em.emit_ns /. float_of_int (max 1 tm.em.emits);
        send_trace_us = Sample.median tm.sends;
        busy_ratio =
          replay.Layers.check_packed_us *. 1e-6 *. float_of_int ph.checked_sections /. wall;
        send_us = Sample.median ph.sends;
        get_result_ms = Sample.median ph.results;
        overhead_ratio = session_p50 /. replay.Layers.local_session_ms;
        gen_us;
        tracing_overhead = ops_u /. ops_t;
      }
      gc0 gc1 ~ops:ph.done_ops ~sessions
  in
  let ms ns = float_of_int ns /. 1e6 /. float_of_int (max 1 sessions) in
  let session_ms = ms ph.session_ns in
  let named = ms ph.connect_ns +. ms ph.send_ns +. ms ph.result_ns +. ms ph.close_ns in
  let residual = session_ms -. named in
  let encode_ms = replay.Layers.encode_us *. float_of_int window /. 1e3 in
  let notes =
    [
      Printf.sprintf "accounting (mean traced session, connect to report in hand): %.3f ms" session_ms;
      Printf.sprintf
        "  client.connect %.3f ms | client.send %.3f ms (of which client.encode ~%.3f ms, from the replay) | client.get_result %.3f ms | client.close %.3f ms"
        (ms ph.connect_ns) (ms ph.send_ns) encode_ms (ms ph.result_ns) (ms ph.close_ns);
      Printf.sprintf "  residual %.3f ms = %.1f%% of the session (slack allowed %.0f%%: %s)" residual
        (100.0 *. residual /. session_ms) (100.0 *. slack)
        (if Float.abs residual <= slack *. session_ms then "within" else "EXCEEDED");
      Printf.sprintf "  the daemon side: in-process session over the same sections %.3f ms; served p50 %.3f ms"
        replay.Layers.local_session_ms session_p50;
      Printf.sprintf "tracing overhead: ops_per_s untraced %.1f, traced %.1f" ops_u ops_t;
    ]
  in
  {
    attempted = untraced.done_ops + untraced.failed_ops + ph.done_ops + ph.failed_ops;
    failed = untraced.failed_ops + ph.failed_ops;
    metrics = Layers.to_metrics layers;
    meta = [ ("accounting_residual_share", json_float (residual /. session_ms)) ];
    notes;
  }

let run ctx =
  let st, setup_s = repeat_setup ~reps:3 ~teardown:(fun st -> Daemon.stop st.daemon) (setup ctx) in
  if ctx.traced then begin
    let o = run_traced ctx st in
    Daemon.stop st.daemon;
    o
  end
  else begin
    let ph = new_phase () in
    let local = Sample.create () in
    measure ~local st ph ~traced:false ~until:(deadline ctx ~share:1.0);
    let rss = Daemon.peak_rss_mb st.daemon in
    Daemon.stop st.daemon;
    let op_tail_p, op_tail = Sample.tail ph.sends in
    let s_tail_p, s_tail = Sample.tail ph.sessions in
    let session_p50 = Sample.median ph.sessions in
    {
      attempted = ph.done_ops + ph.failed_ops;
      failed = ph.failed_ops;
      metrics =
        [
          metric "setup_s" "s" setup_s;
          metric "ops_per_s" "1/s" (ops_per_s st ph);
          metric "slowdown" "x" (session_p50 /. Sample.median local);
          metric "op_p50_us" "us" (Sample.median ph.sends);
          metric "op_tail_us" "us" op_tail;
          metric "session_p50_ms" "ms" session_p50;
          metric "session_tail_ms" "ms" s_tail;
          metric "peak_rss_mb" "MiB" rss;
        ];
      meta =
        [
          ("op_tail_percentile", json_float op_tail_p);
          ("op_samples", string_of_int (Sample.count ph.sends));
          ("session_tail_percentile", json_float s_tail_p);
          ("session_samples", string_of_int (Sample.count ph.sessions));
          ("sections", string_of_int (Array.length st.trace.sections));
          ( "entries_per_section",
            json_float
              (float_of_int (Array.fold_left (fun a s -> a + Array.length s) 0 st.trace.sections)
              /. float_of_int (Array.length st.trace.sections)) );
          ("load_generator_peak_rss_mb", json_float (peak_rss_mb ()));
        ];
      notes = [];
    }
  end
