(* Collector internals: one Atomic for the per-event hot counter, one
   mutex for everything section-grained. Section hooks fire a handful of
   times per section (hundreds of entries), so a mutex there costs
   nothing next to the engine pass itself; the per-event counter is the
   only hook on the tracing fast path and stays lock-free. *)

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

type hist = {
  total : int;
  sum_ns : int;
  min_ns : int;
  max_ns : int;
  buckets : (int * int) list;
}

type worker_stat = { id : int; sections : int; busy_ns : int }
type shard_stat = { shard : int; shard_sessions : int; shard_sections : int }

type span = {
  seq : int;
  worker : int;
  entries : int;
  sent_ns : int;
  start_ns : int;
  done_ns : int;
  merged_ns : int;
}

type serve_stat = {
  sessions_opened : int;
  sessions_closed : int;
  sessions_hwm : int;
  frames_in : int;
  frames_out : int;
  frame_bytes_in : int;
  frame_bytes_out : int;
  frames_corrupt : int;
  sections_shed : int;
  inflight_hwm : int;
}

type farm_stat = {
  farm_workers : int;
  farm_workers_lost : int;
  farm_jobs : int;
  farm_jobs_done : int;
  farm_offers : int;
  farm_retries : int;
  farm_steals : int;
  farm_reassignments : int;
  farm_findings : int;
  farm_dup_findings : int;
  farm_nondet : int;
  farm_heartbeats : int;
  farm_checkpoints : int;
}

type snapshot = {
  elapsed_ns : int;
  events_traced : int;
  sections_sent : int;
  sections_checked : int;
  sections_merged : int;
  sections_dropped : int;
  queue_hwm : int;
  reorder_hwm : int;
  entries_checked : int;
  ops_checked : int;
  checkers_run : int;
  diagnostics : int;
  batches : int;
  batch_sections_max : int;
  arenas_allocated : int;
  arenas_reused : int;
  repair_traces : int;
  repair_edits : int;
  repair_rounds : int;
  repair_ns : int;
  repair_verify_ns : int;
  serve : serve_stat;
  farm : farm_stat;
  workers : worker_stat list;
  shards : shard_stat list;
  check_hist : hist;
  e2e_hist : hist;
  serve_hist : hist;
  spans : span list;
}

(* Durations live in log2 buckets: bucket [i] holds [2^i, 2^(i+1)) ns,
   with 0 and 1 ns both in bucket 0. 63 buckets cover any OCaml int. *)
let n_buckets = 63

let bucket_of ns =
  if ns < 2 then 0
  else begin
    let i = ref 0 and v = ref ns in
    while !v > 1 do
      v := !v lsr 1;
      incr i
    done;
    min !i (n_buckets - 1)
  end

type hist_acc = {
  mutable h_total : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  h_buckets : int array;
}

let hist_acc () = { h_total = 0; h_sum = 0; h_min = 0; h_max = 0; h_buckets = Array.make n_buckets 0 }

let hist_add h ns =
  let ns = max 0 ns in
  if h.h_total = 0 || ns < h.h_min then h.h_min <- ns;
  if ns > h.h_max then h.h_max <- ns;
  h.h_total <- h.h_total + 1;
  h.h_sum <- h.h_sum + ns;
  let b = bucket_of ns in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

let hist_of_acc h =
  let buckets = ref [] in
  for i = n_buckets - 1 downto 0 do
    if h.h_buckets.(i) > 0 then buckets := (i, h.h_buckets.(i)) :: !buckets
  done;
  { total = h.h_total; sum_ns = h.h_sum; min_ns = h.h_min; max_ns = h.h_max; buckets = !buckets }

type pending = {
  p_entries : int;
  p_sent : int;
  mutable p_worker : int;
  mutable p_start : int;
  mutable p_done : int;
}

type t = {
  on : bool;
  max_spans : int;
  created : int;
  events : int Atomic.t;
  m : Mutex.t;
  mutable sent : int;
  mutable checked : int;
  mutable merged : int;
  mutable dropped : int;
  mutable queue_hwm : int;
  mutable reorder_hwm : int;
  mutable n_entries : int;
  mutable n_ops : int;
  mutable n_checkers : int;
  mutable n_diags : int;
  mutable n_batches : int;
  mutable batch_max : int;
  arena_allocs : int Atomic.t;
  arena_reuses : int Atomic.t;
  (* Auto-repair counters; all under [m]. *)
  mutable r_traces : int;
  mutable r_edits : int;
  mutable r_rounds : int;
  mutable r_ns : int;
  mutable r_verify_ns : int;
  (* Service-side (pmtestd) counters; all under [m]. *)
  mutable s_opened : int;
  mutable s_closed : int;
  mutable s_active : int;
  mutable s_hwm : int;
  mutable f_in : int;
  mutable f_out : int;
  mutable fb_in : int;
  mutable fb_out : int;
  mutable f_corrupt : int;
  mutable s_shed : int;
  mutable inflight_hwm : int;
  (* Farm (pmfarm coordinator) counters; all under [m]. *)
  mutable fm_workers : int;
  mutable fm_workers_lost : int;
  mutable fm_jobs : int;
  mutable fm_jobs_done : int;
  mutable fm_offers : int;
  mutable fm_retries : int;
  mutable fm_steals : int;
  mutable fm_reassignments : int;
  mutable fm_findings : int;
  mutable fm_dup_findings : int;
  mutable fm_nondet : int;
  mutable fm_heartbeats : int;
  mutable fm_checkpoints : int;
  pending : (int, pending) Hashtbl.t;
  wstats : (int, int ref * int ref) Hashtbl.t;  (* id -> (sections, busy_ns) *)
  shstats : (int, int ref * int ref) Hashtbl.t;  (* shard -> (sessions, sections) *)
  check_h : hist_acc;
  e2e_h : hist_acc;
  serve_h : hist_acc;
  spans : span Queue.t;
}

let make ~on ~max_spans =
  {
    on;
    max_spans;
    created = now_ns ();
    events = Atomic.make 0;
    m = Mutex.create ();
    sent = 0;
    checked = 0;
    merged = 0;
    dropped = 0;
    queue_hwm = 0;
    reorder_hwm = 0;
    n_entries = 0;
    n_ops = 0;
    n_checkers = 0;
    n_diags = 0;
    n_batches = 0;
    batch_max = 0;
    arena_allocs = Atomic.make 0;
    arena_reuses = Atomic.make 0;
    r_traces = 0;
    r_edits = 0;
    r_rounds = 0;
    r_ns = 0;
    r_verify_ns = 0;
    s_opened = 0;
    s_closed = 0;
    s_active = 0;
    s_hwm = 0;
    f_in = 0;
    f_out = 0;
    fb_in = 0;
    fb_out = 0;
    f_corrupt = 0;
    s_shed = 0;
    inflight_hwm = 0;
    fm_workers = 0;
    fm_workers_lost = 0;
    fm_jobs = 0;
    fm_jobs_done = 0;
    fm_offers = 0;
    fm_retries = 0;
    fm_steals = 0;
    fm_reassignments = 0;
    fm_findings = 0;
    fm_dup_findings = 0;
    fm_nondet = 0;
    fm_heartbeats = 0;
    fm_checkpoints = 0;
    pending = Hashtbl.create 32;
    wstats = Hashtbl.create 8;
    shstats = Hashtbl.create 8;
    check_h = hist_acc ();
    e2e_h = hist_acc ();
    serve_h = hist_acc ();
    spans = Queue.create ();
  }

let disabled = make ~on:false ~max_spans:0
let create ?(max_spans = 1024) () = make ~on:true ~max_spans
let enabled t = t.on

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let since t = now_ns () - t.created

let event_traced t = if t.on then Atomic.incr t.events
let events_traced_add t n = if t.on then ignore (Atomic.fetch_and_add t.events n)
let section_dropped t = if t.on then locked t (fun () -> t.dropped <- t.dropped + 1)

let section_sent t ~seq ~entries =
  if t.on then
    locked t (fun () ->
        t.sent <- t.sent + 1;
        Hashtbl.replace t.pending seq
          { p_entries = entries; p_sent = since t; p_worker = 0; p_start = 0; p_done = 0 })

let queue_depth t d = if t.on then locked t (fun () -> if d > t.queue_hwm then t.queue_hwm <- d)

let reorder_depth t d =
  if t.on then locked t (fun () -> if d > t.reorder_hwm then t.reorder_hwm <- d)

let check_started t ~seq ~worker =
  if t.on then
    locked t (fun () ->
        match Hashtbl.find_opt t.pending seq with
        | None -> ()
        | Some p ->
          p.p_worker <- worker;
          (* The producer's and worker's gettimeofday readings may step
             past each other; clamp so sent <= start <= done <= merged. *)
          p.p_start <- max (since t) p.p_sent)

let worker_stat t id =
  match Hashtbl.find_opt t.wstats id with
  | Some s -> s
  | None ->
    let s = (ref 0, ref 0) in
    Hashtbl.replace t.wstats id s;
    s

let check_finished t ~seq =
  if t.on then
    locked t (fun () ->
        match Hashtbl.find_opt t.pending seq with
        | None -> ()
        | Some p ->
          p.p_done <- max (since t) p.p_start;
          t.checked <- t.checked + 1;
          let sections, busy = worker_stat t p.p_worker in
          incr sections;
          busy := !busy + (p.p_done - p.p_start);
          hist_add t.check_h (p.p_done - p.p_start))

let section_merged t ~seq =
  if t.on then
    locked t (fun () ->
        match Hashtbl.find_opt t.pending seq with
        | None -> ()
        | Some p ->
          Hashtbl.remove t.pending seq;
          let merged_ns = max (since t) p.p_done in
          t.merged <- t.merged + 1;
          hist_add t.e2e_h (merged_ns - p.p_sent);
          Queue.push
            {
              seq;
              worker = p.p_worker;
              entries = p.p_entries;
              sent_ns = p.p_sent;
              start_ns = p.p_start;
              done_ns = p.p_done;
              merged_ns;
            }
            t.spans;
          if Queue.length t.spans > t.max_spans then ignore (Queue.pop t.spans))

let batch_drained t ~sections =
  if t.on then
    locked t (fun () ->
        t.n_batches <- t.n_batches + 1;
        if sections > t.batch_max then t.batch_max <- sections)

let arena_alloc t ~reused =
  if t.on then begin
    Atomic.incr t.arena_allocs;
    if reused then Atomic.incr t.arena_reuses
  end

(* --- Auto-repair hooks ---------------------------------------------------- *)

let repair_trace t ~edits ~rounds ~ns =
  if t.on then
    locked t (fun () ->
        t.r_traces <- t.r_traces + 1;
        t.r_edits <- t.r_edits + edits;
        t.r_rounds <- t.r_rounds + rounds;
        t.r_ns <- t.r_ns + ns)

let repair_verify_ns t ns = if t.on then locked t (fun () -> t.r_verify_ns <- t.r_verify_ns + ns)

(* --- Service (pmtestd) hooks -------------------------------------------- *)

let session_opened t =
  if t.on then
    locked t (fun () ->
        t.s_opened <- t.s_opened + 1;
        t.s_active <- t.s_active + 1;
        if t.s_active > t.s_hwm then t.s_hwm <- t.s_active)

let session_closed t =
  if t.on then
    locked t (fun () ->
        t.s_closed <- t.s_closed + 1;
        t.s_active <- t.s_active - 1)

let frame_received t ~bytes =
  if t.on then
    locked t (fun () ->
        t.f_in <- t.f_in + 1;
        t.fb_in <- t.fb_in + bytes)

let frame_sent t ~bytes =
  if t.on then
    locked t (fun () ->
        t.f_out <- t.f_out + 1;
        t.fb_out <- t.fb_out + bytes)

let frame_corrupt t = if t.on then locked t (fun () -> t.f_corrupt <- t.f_corrupt + 1)
let section_shed t = if t.on then locked t (fun () -> t.s_shed <- t.s_shed + 1)

let inflight_depth t d =
  if t.on then locked t (fun () -> if d > t.inflight_hwm then t.inflight_hwm <- d)

let serve_section_ns t ns = if t.on then locked t (fun () -> hist_add t.serve_h ns)

(* --- Farm (pmfarm coordinator) hooks ------------------------------------- *)

let farm_campaign t ~jobs = if t.on then locked t (fun () -> t.fm_jobs <- t.fm_jobs + jobs)
let farm_worker_joined t = if t.on then locked t (fun () -> t.fm_workers <- t.fm_workers + 1)

let farm_worker_lost t =
  if t.on then locked t (fun () -> t.fm_workers_lost <- t.fm_workers_lost + 1)

let farm_offer t ~retry ~steal =
  if t.on then
    locked t (fun () ->
        t.fm_offers <- t.fm_offers + 1;
        if retry then t.fm_retries <- t.fm_retries + 1;
        if steal then t.fm_steals <- t.fm_steals + 1)

let farm_job_done t = if t.on then locked t (fun () -> t.fm_jobs_done <- t.fm_jobs_done + 1)

let farm_reassigned t ~jobs =
  if t.on then locked t (fun () -> t.fm_reassignments <- t.fm_reassignments + jobs)

let farm_finding t ~dup =
  if t.on then
    locked t (fun () ->
        if dup then t.fm_dup_findings <- t.fm_dup_findings + 1
        else t.fm_findings <- t.fm_findings + 1)

let farm_nondet t = if t.on then locked t (fun () -> t.fm_nondet <- t.fm_nondet + 1)
let farm_heartbeat t = if t.on then locked t (fun () -> t.fm_heartbeats <- t.fm_heartbeats + 1)

let farm_checkpoint t =
  if t.on then locked t (fun () -> t.fm_checkpoints <- t.fm_checkpoints + 1)

(* Per-shard admission/dispatch counters (the daemon's shards share one
   collector, so the scaling story — are sessions and sections actually
   spreading? — is visible in one snapshot). *)

let shard_refs t shard =
  match Hashtbl.find_opt t.shstats shard with
  | Some s -> s
  | None ->
    let s = (ref 0, ref 0) in
    Hashtbl.replace t.shstats shard s;
    s

let shard_session t ~shard =
  if t.on then
    locked t (fun () ->
        let sessions, _ = shard_refs t shard in
        incr sessions)

let shard_section t ~shard =
  if t.on then
    locked t (fun () ->
        let _, sections = shard_refs t shard in
        incr sections)

let engine_counts t ~entries ~ops ~checkers ~diags =
  if t.on then
    locked t (fun () ->
        t.n_entries <- t.n_entries + entries;
        t.n_ops <- t.n_ops + ops;
        t.n_checkers <- t.n_checkers + checkers;
        t.n_diags <- t.n_diags + diags)

let empty_hist = { total = 0; sum_ns = 0; min_ns = 0; max_ns = 0; buckets = [] }

let empty_serve =
  {
    sessions_opened = 0;
    sessions_closed = 0;
    sessions_hwm = 0;
    frames_in = 0;
    frames_out = 0;
    frame_bytes_in = 0;
    frame_bytes_out = 0;
    frames_corrupt = 0;
    sections_shed = 0;
    inflight_hwm = 0;
  }

let empty_farm =
  {
    farm_workers = 0;
    farm_workers_lost = 0;
    farm_jobs = 0;
    farm_jobs_done = 0;
    farm_offers = 0;
    farm_retries = 0;
    farm_steals = 0;
    farm_reassignments = 0;
    farm_findings = 0;
    farm_dup_findings = 0;
    farm_nondet = 0;
    farm_heartbeats = 0;
    farm_checkpoints = 0;
  }

let empty_snapshot =
  {
    elapsed_ns = 0;
    events_traced = 0;
    sections_sent = 0;
    sections_checked = 0;
    sections_merged = 0;
    sections_dropped = 0;
    queue_hwm = 0;
    reorder_hwm = 0;
    entries_checked = 0;
    ops_checked = 0;
    checkers_run = 0;
    diagnostics = 0;
    batches = 0;
    batch_sections_max = 0;
    arenas_allocated = 0;
    arenas_reused = 0;
    repair_traces = 0;
    repair_edits = 0;
    repair_rounds = 0;
    repair_ns = 0;
    repair_verify_ns = 0;
    serve = empty_serve;
    farm = empty_farm;
    workers = [];
    shards = [];
    check_hist = empty_hist;
    e2e_hist = empty_hist;
    serve_hist = empty_hist;
    spans = [];
  }

let snapshot t =
  if not t.on then empty_snapshot
  else
    locked t (fun () ->
        let workers =
          List.sort compare
            (Hashtbl.fold
               (fun id (sections, busy) acc ->
                 { id; sections = !sections; busy_ns = !busy } :: acc)
               t.wstats [])
        in
        let shards =
          List.sort compare
            (Hashtbl.fold
               (fun shard (sessions, sections) acc ->
                 { shard; shard_sessions = !sessions; shard_sections = !sections } :: acc)
               t.shstats [])
        in
        {
          elapsed_ns = since t;
          events_traced = Atomic.get t.events;
          sections_sent = t.sent;
          sections_checked = t.checked;
          sections_merged = t.merged;
          sections_dropped = t.dropped;
          queue_hwm = t.queue_hwm;
          reorder_hwm = t.reorder_hwm;
          entries_checked = t.n_entries;
          ops_checked = t.n_ops;
          checkers_run = t.n_checkers;
          diagnostics = t.n_diags;
          batches = t.n_batches;
          batch_sections_max = t.batch_max;
          arenas_allocated = Atomic.get t.arena_allocs;
          arenas_reused = Atomic.get t.arena_reuses;
          repair_traces = t.r_traces;
          repair_edits = t.r_edits;
          repair_rounds = t.r_rounds;
          repair_ns = t.r_ns;
          repair_verify_ns = t.r_verify_ns;
          serve =
            {
              sessions_opened = t.s_opened;
              sessions_closed = t.s_closed;
              sessions_hwm = t.s_hwm;
              frames_in = t.f_in;
              frames_out = t.f_out;
              frame_bytes_in = t.fb_in;
              frame_bytes_out = t.fb_out;
              frames_corrupt = t.f_corrupt;
              sections_shed = t.s_shed;
              inflight_hwm = t.inflight_hwm;
            };
          farm =
            {
              farm_workers = t.fm_workers;
              farm_workers_lost = t.fm_workers_lost;
              farm_jobs = t.fm_jobs;
              farm_jobs_done = t.fm_jobs_done;
              farm_offers = t.fm_offers;
              farm_retries = t.fm_retries;
              farm_steals = t.fm_steals;
              farm_reassignments = t.fm_reassignments;
              farm_findings = t.fm_findings;
              farm_dup_findings = t.fm_dup_findings;
              farm_nondet = t.fm_nondet;
              farm_heartbeats = t.fm_heartbeats;
              farm_checkpoints = t.fm_checkpoints;
            };
          workers;
          shards;
          check_hist = hist_of_acc t.check_h;
          e2e_hist = hist_of_acc t.e2e_h;
          serve_hist = hist_of_acc t.serve_h;
          spans = List.of_seq (Queue.to_seq t.spans);
        })

(* --- Pretty console sink ---------------------------------------------------- *)

let pp_dur ppf ns =
  if ns < 1_000 then Format.fprintf ppf "%dns" ns
  else if ns < 1_000_000 then Format.fprintf ppf "%.1fus" (float_of_int ns /. 1e3)
  else if ns < 1_000_000_000 then Format.fprintf ppf "%.1fms" (float_of_int ns /. 1e6)
  else Format.fprintf ppf "%.2fs" (float_of_int ns /. 1e9)

let dur_to_string ns = Format.asprintf "%a" pp_dur ns

let pp_hist ppf (name, h) =
  if h.total = 0 then Format.fprintf ppf "@,%s: no samples" name
  else begin
    Format.fprintf ppf "@,%s: %d sample(s), min %s, mean %s, max %s" name h.total
      (dur_to_string h.min_ns)
      (dur_to_string (h.sum_ns / h.total))
      (dur_to_string h.max_ns);
    let widest = List.fold_left (fun m (_, c) -> max m c) 1 h.buckets in
    List.iter
      (fun (i, count) ->
        let lo = if i = 0 then 0 else 1 lsl i in
        let hi = 1 lsl (i + 1) in
        let bar = String.make (max 1 (count * 24 / widest)) '#' in
        Format.fprintf ppf "@,  [%7s, %7s)  %-24s %d" (dur_to_string lo) (dur_to_string hi) bar
          count)
      h.buckets
  end

let pp ppf s =
  Format.fprintf ppf "@[<v>pipeline profile — %s elapsed" (dur_to_string s.elapsed_ns);
  Format.fprintf ppf "@,events traced    %d" s.events_traced;
  Format.fprintf ppf "@,sections         sent %d  checked %d  merged %d  dropped %d"
    s.sections_sent s.sections_checked s.sections_merged s.sections_dropped;
  Format.fprintf ppf "@,queue high-water %d   reorder-buffer high-water %d" s.queue_hwm
    s.reorder_hwm;
  Format.fprintf ppf "@,engine           entries %d  ops %d  checkers %d  diagnostics %d"
    s.entries_checked s.ops_checked s.checkers_run s.diagnostics;
  if s.batches > 0 || s.arenas_allocated > 0 then
    Format.fprintf ppf "@,flat path        batches %d (max %d section(s))  arenas %d (%d reused)"
      s.batches s.batch_sections_max s.arenas_allocated s.arenas_reused;
  if s.repair_traces > 0 then
    Format.fprintf ppf
      "@,repair           traces %d  edits %d  rounds %d  analyse %s  verify %s" s.repair_traces
      s.repair_edits s.repair_rounds (dur_to_string s.repair_ns)
      (dur_to_string s.repair_verify_ns);
  if s.serve.sessions_opened > 0 || s.serve.frames_in > 0 then begin
    Format.fprintf ppf
      "@,service          sessions %d opened, %d closed (peak %d concurrent)"
      s.serve.sessions_opened s.serve.sessions_closed s.serve.sessions_hwm;
    Format.fprintf ppf "@,                 frames in %d (%d B)  out %d (%d B)  corrupt %d"
      s.serve.frames_in s.serve.frame_bytes_in s.serve.frames_out s.serve.frame_bytes_out
      s.serve.frames_corrupt;
    Format.fprintf ppf "@,                 sections shed %d   inflight high-water %d"
      s.serve.sections_shed s.serve.inflight_hwm
  end;
  if s.farm.farm_jobs > 0 || s.farm.farm_workers > 0 then begin
    Format.fprintf ppf "@,farm             jobs %d/%d done  offers %d (retries %d, steals %d)"
      s.farm.farm_jobs_done s.farm.farm_jobs s.farm.farm_offers s.farm.farm_retries
      s.farm.farm_steals;
    Format.fprintf ppf "@,                 workers %d joined, %d lost  reassigned %d job(s)"
      s.farm.farm_workers s.farm.farm_workers_lost s.farm.farm_reassignments;
    Format.fprintf ppf
      "@,                 findings %d (+%d duplicate)  nondeterminism flags %d"
      s.farm.farm_findings s.farm.farm_dup_findings s.farm.farm_nondet;
    Format.fprintf ppf "@,                 heartbeats %d  checkpoints %d" s.farm.farm_heartbeats
      s.farm.farm_checkpoints
  end;
  if s.shards <> [] then begin
    Format.fprintf ppf "@,shards (admission + dispatch spread):";
    List.iter
      (fun sh ->
        Format.fprintf ppf "@,  shard%-2d sessions %4d  sections %6d" sh.shard
          sh.shard_sessions sh.shard_sections)
      s.shards
  end;
  if s.workers <> [] then begin
    Format.fprintf ppf "@,workers (utilization = busy / elapsed):";
    List.iter
      (fun w ->
        let util =
          if s.elapsed_ns <= 0 then 0.0
          else 100.0 *. float_of_int w.busy_ns /. float_of_int s.elapsed_ns
        in
        Format.fprintf ppf "@,  w%-3d sections %6d  busy %8s  utilization %5.1f%%" w.id
          w.sections (dur_to_string w.busy_ns) util)
      s.workers
  end;
  pp_hist ppf ("check latency", s.check_hist);
  pp_hist ppf ("end-to-end section latency", s.e2e_hist);
  if s.serve_hist.total > 0 then pp_hist ppf ("per-session section latency", s.serve_hist);
  if s.spans <> [] then
    Format.fprintf ppf "@,%d span(s) retained (full records in the TSV/JSON output)"
      (List.length s.spans);
  Format.fprintf ppf "@]"

(* --- TSV sink ---------------------------------------------------------------- *)

let counter_fields s =
  [
    ("elapsed_ns", s.elapsed_ns);
    ("events_traced", s.events_traced);
    ("sections_sent", s.sections_sent);
    ("sections_checked", s.sections_checked);
    ("sections_merged", s.sections_merged);
    ("sections_dropped", s.sections_dropped);
    ("queue_hwm", s.queue_hwm);
    ("reorder_hwm", s.reorder_hwm);
    ("entries_checked", s.entries_checked);
    ("ops_checked", s.ops_checked);
    ("checkers_run", s.checkers_run);
    ("diagnostics", s.diagnostics);
    ("batches", s.batches);
    ("batch_sections_max", s.batch_sections_max);
    ("arenas_allocated", s.arenas_allocated);
    ("arenas_reused", s.arenas_reused);
    ("repair_traces", s.repair_traces);
    ("repair_edits", s.repair_edits);
    ("repair_rounds", s.repair_rounds);
    ("repair_ns", s.repair_ns);
    ("repair_verify_ns", s.repair_verify_ns);
    ("serve_sessions_opened", s.serve.sessions_opened);
    ("serve_sessions_closed", s.serve.sessions_closed);
    ("serve_sessions_hwm", s.serve.sessions_hwm);
    ("serve_frames_in", s.serve.frames_in);
    ("serve_frames_out", s.serve.frames_out);
    ("serve_frame_bytes_in", s.serve.frame_bytes_in);
    ("serve_frame_bytes_out", s.serve.frame_bytes_out);
    ("serve_frames_corrupt", s.serve.frames_corrupt);
    ("serve_sections_shed", s.serve.sections_shed);
    ("serve_inflight_hwm", s.serve.inflight_hwm);
    ("farm_workers", s.farm.farm_workers);
    ("farm_workers_lost", s.farm.farm_workers_lost);
    ("farm_jobs", s.farm.farm_jobs);
    ("farm_jobs_done", s.farm.farm_jobs_done);
    ("farm_offers", s.farm.farm_offers);
    ("farm_retries", s.farm.farm_retries);
    ("farm_steals", s.farm.farm_steals);
    ("farm_reassignments", s.farm.farm_reassignments);
    ("farm_findings", s.farm.farm_findings);
    ("farm_dup_findings", s.farm.farm_dup_findings);
    ("farm_nondet", s.farm.farm_nondet);
    ("farm_heartbeats", s.farm.farm_heartbeats);
    ("farm_checkpoints", s.farm.farm_checkpoints);
  ]

let to_tsv s =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b l; Buffer.add_char b '\n') fmt in
  List.iter (fun (k, v) -> line "counter\t%s\t%d" k v) (counter_fields s);
  List.iter (fun w -> line "worker\t%d\t%d\t%d" w.id w.sections w.busy_ns) s.workers;
  List.iter
    (fun sh -> line "shard\t%d\t%d\t%d" sh.shard sh.shard_sessions sh.shard_sections)
    s.shards;
  List.iter
    (fun (name, h) ->
      line "hist\t%s\t%d\t%d\t%d\t%d" name h.total h.sum_ns h.min_ns h.max_ns;
      List.iter (fun (i, c) -> line "histbucket\t%s\t%d\t%d" name i c) h.buckets)
    [ ("check", s.check_hist); ("e2e", s.e2e_hist); ("serve", s.serve_hist) ];
  List.iter
    (fun sp ->
      line "span\t%d\t%d\t%d\t%d\t%d\t%d\t%d" sp.seq sp.worker sp.entries sp.sent_ns sp.start_ns
        sp.done_ns sp.merged_ns)
    s.spans;
  Buffer.contents b

(* --- JSON-lines sink --------------------------------------------------------- *)

let to_jsonl s =
  let b = Buffer.create 1024 in
  let obj fields =
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "%S:%s" k v))
      fields;
    Buffer.add_string b "}\n"
  in
  let i n = string_of_int n in
  obj
    ((("type", "\"counters\"") :: List.map (fun (k, v) -> (k, i v)) (counter_fields s)));
  List.iter
    (fun w ->
      obj
        [
          ("type", "\"worker\""); ("id", i w.id); ("sections", i w.sections);
          ("busy_ns", i w.busy_ns);
        ])
    s.workers;
  List.iter
    (fun sh ->
      obj
        [
          ("type", "\"shard\""); ("shard", i sh.shard); ("sessions", i sh.shard_sessions);
          ("sections", i sh.shard_sections);
        ])
    s.shards;
  List.iter
    (fun (name, h) ->
      obj
        [
          ("type", "\"hist\"");
          ("name", Printf.sprintf "%S" name);
          ("total", i h.total);
          ("sum_ns", i h.sum_ns);
          ("min_ns", i h.min_ns);
          ("max_ns", i h.max_ns);
          ( "buckets",
            "["
            ^ String.concat ","
                (List.map (fun (bi, c) -> Printf.sprintf "[%d,%d]" bi c) h.buckets)
            ^ "]" );
        ])
    [ ("check", s.check_hist); ("e2e", s.e2e_hist); ("serve", s.serve_hist) ];
  List.iter
    (fun sp ->
      obj
        [
          ("type", "\"span\""); ("seq", i sp.seq); ("worker", i sp.worker);
          ("entries", i sp.entries); ("sent_ns", i sp.sent_ns); ("start_ns", i sp.start_ns);
          ("done_ns", i sp.done_ns); ("merged_ns", i sp.merged_ns);
        ])
    s.spans;
  Buffer.contents b
