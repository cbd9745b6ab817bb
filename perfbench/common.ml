(* What every workload receives and returns. *)

type ctx = {
  seed : int;
  seconds : float;  (** Length of the measured phase. *)
  traced : bool;
  cli : string;  (** Path of the built [pmtest-cli] (the daemon binary). *)
  expect_wrong : bool;
      (** Test hook: corrupt every expected verdict, so the correctness
          gate must fail the run. *)
  run_dir : string;  (** Scratch directory for sockets and the span file. *)
}

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  attempted : int;
  failed : int;  (** Errors, refused connections, shed sections, wrong verdicts, findings. *)
  metrics : metric list;  (** End-to-end metrics (untraced) or per-layer metrics (traced). *)
  meta : (string * string) list;  (** Extra metadata: key and a JSON value. *)
  notes : string list;  (** Human-readable lines printed before the result. *)
}

let metric name unit_ value = { name; value; unit_ }

(* Set up [reps] times and keep the last state; the median set-up time
   is the [setup_s] metric.  [teardown] releases every state but the
   last. *)
let repeat_setup ~reps ~teardown setup =
  let times = Sample.create () in
  let rec go i =
    let t0 = Sample.now () in
    let state = setup () in
    Sample.add times (Sample.seconds_since t0);
    if i + 1 < reps then begin
      teardown state;
      Gc.full_major ();
      go (i + 1)
    end
    else state
  in
  let state = go 0 in
  (state, Sample.median times)

let deadline ctx ~share = Sample.now () + int_of_float (ctx.seconds *. share *. 1e9)

(* Peak resident set of a process in MiB, from VmHWM. *)
let peak_rss_mb ?(pid = "self") () =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> nan
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Render a report the way [pmtest-cli attach --verify] compares them. *)
let render r = Fmt.str "%a" Pmtest_core.Report.pp r

let expect ctx rendered = if ctx.expect_wrong then rendered ^ "(corrupted expectation)" else rendered

(* Emit time and count behind a sink wrapped by [timed_sink]. *)
type emits = { mutable emit_ns : int; mutable emits : int }

let timed_sink em (inner : Pmtest_trace.Sink.t) =
  {
    Pmtest_trace.Sink.emit =
      (fun kind loc ->
        let a = Sample.now () in
        inner.Pmtest_trace.Sink.emit kind loc;
        em.emit_ns <- em.emit_ns + (Sample.now () - a);
        em.emits <- em.emits + 1);
  }

let gc_counters () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.minor_collections, s.Gc.major_collections)

let json_string s = Printf.sprintf "%S" s
let json_float f = Printf.sprintf "%.17g" f
