(* fuzz-campaign: [Campaign] over x86 with the default generator and every
   [Cross] pair — x86 is the only model on which every pair applies.  The
   seed fixes a set of program chunks; the run cycles over them, one
   [Campaign.run_range] per chunk.  Every chunk must come back without
   findings, and with the digest it had the first time: set-up computes
   the reference digests of the first chunks, the first pass over the
   others records theirs. *)

open Pmtest_model
open Pmtest_core
open Common
module Campaign = Pmtest_fuzz.Campaign
module Cross = Pmtest_fuzz.Cross
module Gen = Pmtest_fuzz.Gen

(* Programs per chunk (one chunk is a session), and chunks per seed:
   program cost is heavy-tailed, so a seed needs many programs before
   its median chunk stops depending on which programs it drew. *)
let chunk = 10
let chunks = 384
let reference_chunks = 8


type state = {
  cfg : Campaign.cfg;
  base : int;
  digests : string option array;  (** Per chunk, once known. *)
}

let chunk_lo st c = st.base + (c * chunk)

let setup ctx () =
  let cfg = Campaign.default_cfg Model.X86 in
  let base = ctx.seed * 1_000_003 in
  let st = { cfg; base; digests = Array.make chunks None } in
  for c = 0 to reference_chunks - 1 do
    let lo = chunk_lo st c in
    st.digests.(c) <- Some (expect ctx (Campaign.digest (Campaign.run_range cfg ~lo ~hi:(lo + chunk))))
  done;
  st

type phase = {
  programs : Sample.t;  (** µs per program: generation and every pair. *)
  sessions : Sample.t;  (** ms per chunk. *)
  engine : Sample.t;  (** ms per chunk, the PMTest engine alone. *)
  mutable done_ : int;
  mutable failed : int;
  mutable chunks_run : int;
}

let new_phase () =
  {
    programs = Sample.create ();
    sessions = Sample.create ();
    engine = Sample.create ();
    done_ = 0;
    failed = 0;
    chunks_run = 0;
  }

(* One chunk through [Campaign.run_range], then the same programs through
   [Engine.check] alone: timed back to back, so host load that shifts
   one shifts the other and [slowdown] stays a like-for-like ratio. *)
let run_chunk st ph c =
  let lo = chunk_lo st c in
  let last = ref 0 in
  let on_program _ =
    let t = Sample.now () in
    if !last > 0 then Sample.add ph.programs (float_of_int (t - !last) /. 1e3);
    last := t
  in
  let t0 = Sample.now () in
  let stats = Campaign.run_range ~on_program st.cfg ~lo ~hi:(lo + chunk) in
  let t1 = Sample.now () in
  Sample.add ph.programs (float_of_int (t1 - !last) /. 1e3);
  Sample.add ph.sessions (float_of_int (t1 - t0) /. 1e6);
  let programs = Array.init chunk (fun i -> Campaign.program_for_seed st.cfg (lo + i)) in
  let e0 = Sample.now () in
  Array.iter (fun (p : Gen.program) -> ignore (Engine.check ~model:p.Gen.model p.Gen.events)) programs;
  Sample.add ph.engine (float_of_int (Sample.now () - e0) /. 1e6);
  let digest = Campaign.digest stats in
  if st.digests.(c) = None then st.digests.(c) <- Some digest;
  if Some digest <> st.digests.(c) then ph.failed <- ph.failed + chunk
  else begin
    let bad =
      List.sort_uniq compare (List.map (fun f -> f.Campaign.found_seed) stats.Campaign.findings)
    in
    ph.failed <- ph.failed + List.length bad;
    ph.done_ <- ph.done_ + chunk - List.length bad
  end;
  ph.chunks_run <- ph.chunks_run + 1

let measure st ph ~until =
  Sample.Steal.start ();
  while Sample.now () < until do
    Sample.Steal.tick ();
    run_chunk st ph (ph.chunks_run mod chunks)
  done;
  Sample.Steal.stop ()

(* Programs per second of the median chunk. *)
let ops_per_s ph = float_of_int chunk /. (Sample.median ph.sessions /. 1e3)

(* The campaign loop of [Campaign.run_range], unrolled so generation and
   each pair are timed and traced; a disagreement is a finding. *)
type traced = {
  gen : Sample.t;  (** µs per program. *)
  pair_us : Sample.t array;  (** Per pair, µs per call. *)
  applied : int array;
  mutable gen_ns : int;
  mutable programs_seen : Gen.program list;
}

let traced_chunk st ph tr c =
  let lo = chunk_lo st c in
  let sid = ph.chunks_run in
  let t0 = Sample.now () in
  let bad = ref 0 in
  for s = lo to lo + chunk - 1 do
    let a = Sample.now () in
    let program = Campaign.program_for_seed st.cfg s in
    let b = Sample.now () in
    Span.record "fuzz.gen" ~session:sid ~section:(s - lo) a b;
    Sample.add tr.gen (float_of_int (b - a) /. 1e3);
    tr.gen_ns <- tr.gen_ns + (b - a);
    if List.length tr.programs_seen < 2 * chunk then tr.programs_seen <- program :: tr.programs_seen;
    let disagree = ref false in
    List.iteri
      (fun k pair ->
        let p0 = Sample.now () in
        let outcome = Cross.compare_pair pair program in
        let p1 = Sample.now () in
        Span.record ("fuzz." ^ Cross.pair_name pair) ~session:sid ~section:(s - lo) p0 p1;
        Sample.add tr.pair_us.(k) (float_of_int (p1 - p0) /. 1e3);
        match outcome with
        | Cross.Agree -> tr.applied.(k) <- tr.applied.(k) + 1
        | Cross.Disagree _ ->
          tr.applied.(k) <- tr.applied.(k) + 1;
          disagree := true
        | Cross.Skip _ -> ())
      Cross.all_pairs;
    let e = Sample.now () in
    Span.record "fuzz.program" ~session:sid ~section:(s - lo) a e;
    Sample.add ph.programs (float_of_int (e - a) /. 1e3);
    if !disagree then incr bad
  done;
  let t1 = Sample.now () in
  Span.record "fuzz.chunk" ~session:sid ~section:(-1) t0 t1;
  Sample.add ph.sessions (float_of_int (t1 - t0) /. 1e6);
  ph.failed <- ph.failed + !bad;
  ph.done_ <- ph.done_ + chunk - !bad;
  ph.chunks_run <- ph.chunks_run + 1

let run_traced ctx st =
  let untraced = new_phase () in
  measure st untraced ~until:(deadline ctx ~share:0.5);
  let ph = new_phase () in
  let n_pairs = List.length Cross.all_pairs in
  let tr =
    {
      gen = Sample.create ();
      pair_us = Array.init n_pairs (fun _ -> Sample.create ());
      applied = Array.make n_pairs 0;
      gen_ns = 0;
      programs_seen = [];
    }
  in
  Span.enabled := true;
  let gc0 = gc_counters () in
  let until = deadline ctx ~share:0.5 in
  let t0 = Sample.now () in
  Sample.Steal.start ();
  while Sample.now () < until do
    Sample.Steal.tick ();
    traced_chunk st ph tr (ph.chunks_run mod chunks)
  done;
  Sample.Steal.stop ();
  let wall = Sample.seconds_since t0 in
  let gc1 = gc_counters () in
  Span.enabled := false;
  let programs = Array.of_list (List.rev tr.programs_seen) in
  let replay =
    Layers.replay ctx ~sections:(Array.map (fun (p : Gen.program) -> p.Gen.events) programs) ~programs:[||]
  in
  let attempted = ph.done_ + ph.failed in
  let pairs =
    List.concat
      (List.mapi
         (fun k pair ->
           [
             metric (Layers.pair_metric_name pair "us") "us"
               (Sample.mean tr.pair_us.(k));
             metric (Layers.pair_metric_name pair "applied_share") "share"
               (float_of_int tr.applied.(k) /. float_of_int (max 1 attempted));
           ])
         Cross.all_pairs)
  in
  let ops_u = ops_per_s untraced and ops_t = ops_per_s ph in
  let layers =
    Layers.gc_fields
      {
        replay with
        Layers.self_s = float_of_int tr.gen_ns /. 1e9 /. float_of_int (max 1 ph.chunks_run);
        busy_ratio = replay.Layers.check_us *. 1e-6 *. float_of_int attempted /. wall;
        gen_us = Sample.median tr.gen;
        entries_per_program = replay.Layers.entries_per_section;
        pairs;
        tracing_overhead = ops_u /. ops_t;
      }
      gc0 gc1 ~ops:attempted ~sessions:ph.chunks_run
  in
  {
    attempted = untraced.done_ + untraced.failed + attempted;
    failed = untraced.failed + ph.failed;
    metrics = Layers.to_metrics layers;
    meta = [];
    notes = [ Printf.sprintf "tracing overhead: ops_per_s untraced %.1f, traced %.1f" ops_u ops_t ];
  }

let run ctx =
  let st, setup_s = repeat_setup ~reps:5 ~teardown:ignore (setup ctx) in
  if ctx.traced then run_traced ctx st
  else begin
    let ph = new_phase () in
    measure st ph ~until:(deadline ctx ~share:1.0);
    let op_tail_p, op_tail = Sample.tail ph.programs in
    let s_tail_p, s_tail = Sample.tail ph.sessions in
    let session_p50 = Sample.median ph.sessions in
    {
      attempted = ph.done_ + ph.failed;
      failed = ph.failed;
      metrics =
        [
          metric "setup_s" "s" setup_s;
          metric "ops_per_s" "1/s" (ops_per_s ph);
          metric "slowdown" "x" (session_p50 /. Sample.median ph.engine);
          metric "op_p50_us" "us" (Sample.median ph.programs);
          metric "op_tail_us" "us" op_tail;
          metric "session_p50_ms" "ms" session_p50;
          metric "session_tail_ms" "ms" s_tail;
          metric "peak_rss_mb" "MiB" (peak_rss_mb ());
        ];
      meta =
        [
          ("op_tail_percentile", json_float op_tail_p);
          ("op_samples", string_of_int (Sample.count ph.programs));
          ("session_tail_percentile", json_float s_tail_p);
          ("session_samples", string_of_int (Sample.count ph.sessions));
        ];
      notes = [];
    }
  end
