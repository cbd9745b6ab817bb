(* pmdk-live: the Fig. 10a shape on the live program.  Inserts cycle over
   the five PMDK structures, all in one pool, with values of 64 B to
   4 KiB; every insert is one TX-checked transaction and one section,
   checked by a default session ([Pmtest.init ()], one worker).  A round
   runs the seed's fixed insert sequence on a fresh pool, once under
   PMTest and once uninstrumented, so [slowdown] compares the same
   inputs. *)

open Pmtest_util
open Pmtest_trace
open Pmtest_core
open Pmtest_pmdk
open Common

let inserts_per_round = 500
let sizes = [| 64; 128; 256; 512; 1024; 2048; 4096 |]

type insert = { structure : int; key : int64; value : bytes }

let inputs ~seed =
  let rng = Rng.create seed in
  let payloads = Array.map (fun s -> Bytes.init s (fun _ -> Char.chr (Rng.int rng 256))) sizes in
  (* Every structure meets every value size: the seed picks keys and
     payload bytes, never the mix, so seeds differ in data, not in work. *)
  Array.init inserts_per_round (fun i ->
      {
        structure = i mod 5;
        key = Int64.of_int (Rng.int rng (4 * inserts_per_round));
        value = payloads.(i / 5 mod Array.length sizes);
      })

let pool_size ins =
  Array.fold_left (fun acc i -> acc + ((Bytes.length i.value + 63) / 64 * 64) + 1024) 0 ins * 2
  + (4 * 1024 * 1024)

(* The five maps share the pool; only HashMap(w/o TX) runs outside a TX
   checker scope, as it carries its own low-level checkers. *)
let build pool =
  let ct = Ctree_map.create pool in
  let bt = Btree_map.create pool in
  let rb = Rbtree_map.create pool in
  let htx = Hashmap_tx.create ~buckets:4096 pool in
  let hat = Hashmap_atomic.create ~buckets:4096 pool in
  fun { structure; key; value } ->
    match structure with
    | 4 -> ignore (Hashmap_atomic.insert hat ~key ~value)
    | s ->
      Pool.tx_checker_start pool;
      (match s with
      | 0 -> Ctree_map.insert ct ~key ~value
      | 1 -> Btree_map.insert bt ~key ~value
      | 2 -> Rbtree_map.insert rb ~key ~value
      | _ -> Hashmap_tx.insert htx ~key ~value);
      Pool.tx_checker_end pool

let base_round ins psize =
  let pool = Pool.create ~size:psize ~sink:Sink.null () in
  let insert = build pool in
  let t0 = Sample.now () in
  Array.iter insert ins;
  Sample.seconds_since t0

(* What the traced run adds on top of a round: per-round totals (ns) for
   the layer accounting, and the first round's sections for the replay. *)
type tracer = {
  em : emits;
  sends : Sample.t;  (** µs per [Pmtest.send_trace]. *)
  waits : Sample.t;  (** ms of the final [get_result]. *)
  mutable self_ns : int;  (** Program time inside inserts, outside emit. *)
  mutable send_ns : int;
  mutable loop_emit_ns : int;
  mutable captured : Event.t array list;
}

let new_tracer () =
  {
    em = { emit_ns = 0; emits = 0 };
    sends = Sample.create ();
    waits = Sample.create ();
    self_ns = 0;
    send_ns = 0;
    loop_emit_ns = 0;
    captured = [];
  }

type round = { pm_s : float; session_s : float; report : string }

(* One insert in 32 is timed for [op_p50_us]/[op_tail_us].  Timing all of
   them gives over 10^5 samples a run, and the tail rule then lands on
   p99.9, which on a shared 2-vCPU host is hypervisor preemption rather
   than the program (a run-to-run spread of 0.36 in a ten-run check);
   one in 32 gives a few thousand, and p99 (GC pauses). *)
let op_sample_every = 32

let pm_round ?workers ?tracer ?(ops = Sample.create ()) ~round ins psize =
  let t_init = Sample.now () in
  let s = Pmtest.init ?workers () in
  let sink = Pmtest.sink s in
  let sink =
    match tracer with
    | None -> sink
    | Some tr ->
      if tr.captured = [] then
        Pmtest.on_section s (fun sec -> tr.captured <- sec :: tr.captured);
      timed_sink tr.em sink
  in
  let pool = Pool.create ~size:psize ~sink () in
  let insert = build pool in
  let t0 = Sample.now () in
  (match tracer with
  | None ->
    Array.iteri
      (fun k i ->
        if k mod op_sample_every <> 0 then begin
          insert i;
          Pmtest.send_trace s
        end
        else begin
          let a = Sample.now () in
          insert i;
          Pmtest.send_trace s;
          Sample.add ops (float_of_int (Sample.now () - a) /. 1e3)
        end)
      ins
  | Some tr ->
    let emit0 = tr.em.emit_ns in
    Array.iteri
      (fun k i ->
        let a = Sample.now () in
        insert i;
        let b = Sample.now () in
        Pmtest.send_trace s;
        let c = Sample.now () in
        tr.self_ns <- tr.self_ns + (b - a);
        tr.send_ns <- tr.send_ns + (c - b);
        Sample.add tr.sends (float_of_int (c - b) /. 1e3);
        Sample.add ops (float_of_int (c - a) /. 1e3);
        Span.record "pmdk.insert" ~session:round ~section:k a b;
        Span.record "core.send_trace" ~session:round ~section:k b c)
      ins;
    let loop_emit = tr.em.emit_ns - emit0 in
    tr.self_ns <- tr.self_ns - loop_emit;
    tr.loop_emit_ns <- tr.loop_emit_ns + loop_emit);
  let g = Sample.now () in
  ignore (Pmtest.get_result s);
  let t1 = Sample.now () in
  let report = Pmtest.finish s in
  let t2 = Sample.now () in
  (match tracer with
  | None -> ()
  | Some tr ->
    Sample.add tr.waits (float_of_int (t1 - g) /. 1e6);
    Span.record "core.get_result" ~session:round ~section:(-1) g t1;
    Span.record "core.finish" ~session:round ~section:(-1) t1 t2;
    Span.record "pmdk.session" ~session:round ~section:(-1) t_init t2);
  {
    pm_s = float_of_int (t1 - t0) /. 1e9;
    session_s = float_of_int (t2 - t_init) /. 1e9;
    report = render report;
  }

type phase = {
  ops : Sample.t;  (** µs per insert, PMTest rounds. *)
  pm : Sample.t;  (** s per PMTest round (first insert to verdict). *)
  base : Sample.t;  (** s per uninstrumented round. *)
  sessions : Sample.t;  (** ms per PMTest session, init to final report. *)
  mutable rounds : int;
  mutable wrong : int;
}

let new_phase () =
  {
    ops = Sample.create ();
    pm = Sample.create ();
    base = Sample.create ();
    sessions = Sample.create ();
    rounds = 0;
    wrong = 0;
  }

(* Alternate uninstrumented and PMTest rounds until [until]. *)
let measure ?tracer ~expected ~until ins psize ph =
  Sample.Steal.start ();
  while Sample.now () < until do
    Sample.Steal.tick ();
    (* Each round starts from a collected heap, so it pays for its own
       garbage, not for the previous round's. *)
    Gc.full_major ();
    Sample.add ph.base (base_round ins psize);
    Gc.full_major ();
    let r = pm_round ?tracer ~ops:ph.ops ~round:ph.rounds ins psize in
    Sample.add ph.pm r.pm_s;
    Sample.add ph.sessions (r.session_s *. 1e3);
    if r.report <> expected then ph.wrong <- ph.wrong + 1;
    ph.rounds <- ph.rounds + 1
  done;
  Sample.Steal.stop ()

(* Throughput of the median round: rounds hit by a stall elsewhere on
   the host show in the tails, not here. *)
let ops_per_s ph = float_of_int inserts_per_round /. Sample.median ph.pm

(* Accounting slack: the share of the measured round time the named
   layers may leave unexplained. *)
let slack = 0.05

let run_traced ctx ~expected ins psize =
  let untraced = new_phase () in
  measure ~expected ~until:(deadline ctx ~share:0.5) ins psize untraced;
  let tr = new_tracer () and ph = new_phase () in
  Span.enabled := true;
  let gc0 = gc_counters () in
  measure ~tracer:tr ~expected ~until:(deadline ctx ~share:0.5) ins psize ph;
  let gc1 = gc_counters () in
  Span.enabled := false;
  let sections = Array.of_list (List.rev tr.captured) in
  let t0 = Sample.now () in
  ignore (inputs ~seed:ctx.seed);
  let gen_us = Layers.us_since t0 /. float_of_int inserts_per_round in
  (* The independent checkers on a sample of the sections. *)
  let programs =
    Array.init 10 (fun k -> Layers.program_of_section sections.(k * Array.length sections / 10))
  in
  let replay = Layers.replay ctx ~sections ~programs in
  let rounds = float_of_int ph.rounds and pm_total = Sample.sum ph.pm in
  let sections_checked = float_of_int (ph.rounds * inserts_per_round) in
  let layers =
    Layers.gc_fields
      {
        replay with
        Layers.self_s = float_of_int tr.self_ns /. 1e9 /. rounds;
        emit_ns = float_of_int tr.em.emit_ns /. float_of_int (max 1 tr.em.emits);
        send_trace_us = Sample.median tr.sends;
        get_result_wait_ms = Sample.median tr.waits;
        busy_ratio = replay.Layers.check_us *. 1e-6 *. sections_checked /. pm_total;
        gen_us;
        tracing_overhead = ops_per_s untraced /. ops_per_s ph;
      }
      gc0 gc1 ~ops:(ph.rounds * inserts_per_round) ~sessions:ph.rounds
  in
  let ms ns = float_of_int ns /. 1e6 /. rounds in
  let round_ms = pm_total *. 1e3 /. rounds in
  let wait_ms = Sample.sum tr.waits /. rounds in
  let named = ms tr.self_ns +. ms tr.loop_emit_ns +. ms tr.send_ns +. wait_ms in
  let residual = round_ms -. named in
  let notes =
    [
      Printf.sprintf "accounting (mean traced round, first insert to verdict): %.3f ms" round_ms;
      Printf.sprintf "  pmdk.self %.3f ms | trace.emit %.3f ms | core.send_trace %.3f ms | core.get_result wait %.3f ms"
        (ms tr.self_ns) (ms tr.loop_emit_ns) (ms tr.send_ns) wait_ms;
      Printf.sprintf "  residual %.3f ms = %.1f%% of the round (slack allowed %.0f%%: %s)" residual
        (100.0 *. residual /. round_ms) (100.0 *. slack)
        (if Float.abs residual <= slack *. round_ms then "within" else "EXCEEDED");
      Printf.sprintf "tracing overhead: ops_per_s untraced %.1f, traced %.1f" (ops_per_s untraced)
        (ops_per_s ph);
    ]
  in
  {
    attempted = (untraced.rounds + ph.rounds) * inserts_per_round;
    failed = (untraced.wrong + ph.wrong) * inserts_per_round;
    metrics = Layers.to_metrics layers;
    meta = [ ("accounting_residual_share", json_float (residual /. round_ms)) ];
    notes;
  }

let run ctx =
  let (ins, psize, expected), setup_s =
    repeat_setup ~reps:5 ~teardown:ignore (fun () ->
        let ins = inputs ~seed:ctx.seed in
        let psize = pool_size ins in
        (* The reference verdict: the same inputs checked synchronously. *)
        let reference = pm_round ~workers:0 ~round:(-1) ins psize in
        ignore (base_round ins psize);
        ignore (pm_round ~round:(-1) ins psize);
        (ins, psize, expect ctx reference.report))
  in
  if ctx.traced then run_traced ctx ~expected ins psize
  else begin
    let ph = new_phase () in
    measure ~expected ~until:(deadline ctx ~share:1.0) ins psize ph;
    let op_tail_p, op_tail = Sample.tail ph.ops in
    let s_tail_p, s_tail = Sample.tail ph.sessions in
    {
      attempted = ph.rounds * inserts_per_round;
      failed = ph.wrong * inserts_per_round;
      metrics =
        [
          metric "setup_s" "s" setup_s;
          metric "ops_per_s" "1/s" (ops_per_s ph);
          metric "slowdown" "x" (Sample.median ph.pm /. Sample.median ph.base);
          metric "op_p50_us" "us" (Sample.median ph.ops);
          metric "op_tail_us" "us" op_tail;
          metric "session_p50_ms" "ms" (Sample.median ph.sessions);
          metric "session_tail_ms" "ms" s_tail;
          metric "peak_rss_mb" "MiB" (peak_rss_mb ());
        ];
      meta =
        [
          ("op_tail_percentile", json_float op_tail_p);
          ("op_samples", string_of_int (Sample.count ph.ops));
          ("session_tail_percentile", json_float s_tail_p);
          ("session_samples", string_of_int (Sample.count ph.sessions));
        ];
      notes = [];
    }
  end
