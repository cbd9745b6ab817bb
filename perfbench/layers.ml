(* The traced run's replay: a workload's own sections pushed through each
   layer's public functions one layer at a time, so every layer is timed
   on the data that workload produces.  Nothing here is on the path the
   end-to-end metrics measure. *)

open Pmtest_model
open Pmtest_trace
open Pmtest_core
open Common
module Client = Pmtest_client.Client
module Wire = Pmtest_wire.Wire
module Cross = Pmtest_fuzz.Cross
module Gen = Pmtest_fuzz.Gen

let us_since t0 = float_of_int (Sample.now () - t0) /. 1e3
let entries sections = Array.fold_left (fun a s -> a + Array.length s) 0 sections

(* Median of [f] over every section, in µs. *)
let per_section sections f =
  let s = Sample.create () in
  Array.iter
    (fun sec ->
      let t0 = Sample.now () in
      f sec;
      Sample.add s (us_since t0))
    sections;
  Sample.median s

let emit_ns sections =
  let b = Builder.create () in
  let sink = Builder.sink b in
  let t0 = Sample.now () in
  Array.iter
    (fun sec ->
      Array.iter (fun (e : Event.t) -> sink.Sink.emit e.Event.kind e.Event.loc) sec;
      ignore (Builder.take b))
    sections;
  float_of_int (Sample.now () - t0) /. float_of_int (max 1 (entries sections))

(* Frames go through a socketpair a few at a time, few enough that the
   socket buffer holds them all: the writer never blocks, the reader
   never waits on the writer, and [read_batch] is timed on its own.
   Frames over 32 KiB (a pool's set-up section) do not fit and are left
   out. *)
let read_batch_us_per_frame wires =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let reader = Wire.reader b in
  let total = ref 0 and frames = ref 0 in
  let pending = ref (List.filter (fun w -> String.length w < 32 * 1024) (Array.to_list wires)) in
  while !pending <> [] do
    let rec fill bytes n = function
      | w :: rest when (bytes + String.length w < 32 * 1024 && n < 16) || n = 0 ->
        (match Wire.write_frame a Wire.Section w with
        | Ok () -> ()
        | Error e -> failwith (Wire.error_to_string e));
        fill (bytes + String.length w + Wire.header_len) (n + 1) rest
      | rest -> (n, rest)
    in
    let n, rest = fill 0 0 !pending in
    pending := rest;
    let got = ref 0 in
    let t0 = Sample.now () in
    while !got < n do
      match Wire.read_batch reader with
      | Ok fs -> got := !got + List.length fs
      | Error e -> failwith (Wire.error_to_string e)
    done;
    total := !total + (Sample.now () - t0);
    frames := !frames + n
  done;
  Unix.close a;
  Unix.close b;
  float_of_int !total /. 1e3 /. float_of_int (max 1 !frames)

type local = { session_ms : float; send_us : float; wait_ms : float }

(* The sections through a default in-process runtime, as [pmtestd] feeds
   them: already packed. *)
let local_session sections =
  let packed = Array.map Packed.of_events sections in
  let sends = Sample.create () in
  let t0 = Sample.now () in
  let rt = Runtime.create () in
  Array.iter
    (fun p ->
      let a = Sample.now () in
      Runtime.send_packed rt p;
      Sample.add sends (us_since a))
    packed;
  let g = Sample.now () in
  ignore (Runtime.get_result rt);
  let wait_ms = us_since g /. 1e3 in
  ignore (Runtime.shutdown rt);
  { session_ms = us_since t0 /. 1e3; send_us = Sample.median sends; wait_ms }

type served = { s_session_ms : float; s_send_us : float; s_result_ms : float }

(* One served session over the sections on a daemon of its own. *)
let served_session ctx sections =
  let d = Daemon.start ctx in
  Fun.protect
    ~finally:(fun () -> Daemon.stop d)
    (fun () ->
      let sends = Sample.create () in
      let t0 = Sample.now () in
      match Client.connect ~socket:d.Daemon.socket () with
      | Error e -> failwith e
      | Ok c ->
        Array.iter
          (fun sec ->
            let a = Sample.now () in
            (match Client.send_events c sec with Ok () -> () | Error e -> failwith e);
            Sample.add sends (us_since a))
          sections;
        let g = Sample.now () in
        (match Client.get_result c with Ok _ -> () | Error e -> failwith e);
        let s_result_ms = us_since g /. 1e3 in
        Client.close c;
        { s_session_ms = us_since t0 /. 1e3; s_send_us = Sample.median sends; s_result_ms })

(* "engine/naive" -> "fuzz.naive_<suffix>". *)
let pair_metric_name pair suffix =
  let name = Cross.pair_name pair in
  let short =
    match String.index_opt name '/' with
    | Some k -> String.sub name (k + 1) (String.length name - k - 1)
    | None -> name
  in
  Printf.sprintf "fuzz.%s_%s" short suffix

(* Every Cross pair on the programs: µs per call and applied share. *)
let pairs_on programs =
  List.concat_map
    (fun pair ->
      let times = Sample.create () and applied = ref 0 in
      Array.iter
        (fun p ->
          let t0 = Sample.now () in
          (match Cross.compare_pair pair p with
          | Cross.Agree | Cross.Disagree _ -> incr applied
          | Cross.Skip _ -> ());
          Sample.add times (us_since t0))
        programs;
      [
        metric (pair_metric_name pair "us") "us" (Sample.mean times);
        metric (pair_metric_name pair "applied_share") "share"
          (float_of_int !applied /. float_of_int (max 1 (Array.length programs)));
      ])
    Cross.all_pairs

(* A section as a fuzz program, so the independent checkers run on it;
   the program's PM size covers every range the section names. *)
let program_of_section sec =
  let top acc addr size = max acc (addr + size) in
  let hi =
    Array.fold_left
      (fun acc (e : Event.t) ->
        match e.Event.kind with
        | Event.Op (Model.Write { addr; size } | Model.Clwb { addr; size })
        | Event.Tx (Event.Tx_add { addr; size })
        | Event.Checker (Event.Is_persist { addr; size })
        | Event.Control (Event.Exclude { addr; size } | Event.Include { addr; size }) ->
          top acc addr size
        | Event.Checker (Event.Is_ordered_before { a_addr; a_size; b_addr; b_size }) ->
          top (top acc a_addr a_size) b_addr b_size
        | _ -> acc)
      64 sec
  in
  { Gen.model = Model.X86; pm_size = hi; events = sec }

(* Every per-layer metric.  [replay] fills what a replay of a workload's
   sections can measure; the workload fills the rest from its live run
   and may replace a replayed value with a live one. *)
type t = {
  self_s : float;
  emit_ns : float;
  entries_per_section : float;
  send_trace_us : float;
  get_result_wait_ms : float;
  local_session_ms : float;
  check_us : float;
  check_packed_us : float;
  busy_ratio : float;
  minor_words_per_op : float;
  minor_collections : float;
  major_collections : float;
  encode_us : float;
  send_us : float;
  get_result_ms : float;
  bytes_per_entry : float;
  read_batch_us : float;
  decode_us : float;
  overhead_ratio : float;
  gen_us : float;
  entries_per_program : float;
  pairs : metric list;
  tracing_overhead : float;
}

let to_metrics t =
  [
    metric "pmdk.self_s" "s" t.self_s;
    metric "trace.emit_ns" "ns" t.emit_ns;
    metric "trace.entries_per_section" "count" t.entries_per_section;
    metric "core.send_trace_us" "us" t.send_trace_us;
    metric "core.get_result_wait_ms" "ms" t.get_result_wait_ms;
    metric "core.local_session_ms" "ms" t.local_session_ms;
    metric "engine.check_us" "us" t.check_us;
    metric "engine.check_packed_us" "us" t.check_packed_us;
    metric "engine.busy_ratio" "ratio" t.busy_ratio;
    metric "gc.minor_words_per_op" "words" t.minor_words_per_op;
    metric "gc.minor_collections" "count/session" t.minor_collections;
    metric "gc.major_collections" "count/session" t.major_collections;
    metric "client.encode_us" "us" t.encode_us;
    metric "client.send_us" "us" t.send_us;
    metric "client.get_result_ms" "ms" t.get_result_ms;
    metric "wire.bytes_per_entry" "B" t.bytes_per_entry;
    metric "wire.read_batch_us" "us" t.read_batch_us;
    metric "wire.decode_us" "us" t.decode_us;
    metric "server.overhead_ratio" "ratio" t.overhead_ratio;
    metric "fuzz.gen_us" "us" t.gen_us;
    metric "fuzz.entries_per_program" "count" t.entries_per_program;
  ]
  @ t.pairs
  @ [ metric "tracing.overhead_ratio" "ratio" t.tracing_overhead ]

(* GC work over a phase, from [Gc.quick_stat] deltas. *)
let gc_fields t (w0, mi0, ma0) (w1, mi1, ma1) ~ops ~sessions =
  let per_session n = float_of_int n /. float_of_int (max 1 sessions) in
  {
    t with
    minor_words_per_op = (w1 -. w0) /. float_of_int (max 1 ops);
    minor_collections = per_session (mi1 - mi0);
    major_collections = per_session (ma1 - ma0);
  }

let replay ctx ~sections ~programs =
  let wires = Array.map (fun s -> Packed.encode_wire (Packed.of_events s)) sections in
  let wire_bytes = Array.fold_left (fun a w -> a + String.length w + Wire.header_len) 0 wires in
  let packed = Array.map Packed.of_events sections in
  let check_packed_us =
    let s = Sample.create () in
    Array.iter
      (fun p ->
        let t0 = Sample.now () in
        ignore (Engine.check_packed p);
        Sample.add s (us_since t0))
      packed;
    Sample.median s
  in
  let local = local_session sections in
  let served = served_session ctx sections in
  {
    self_s = nan;
    emit_ns = emit_ns sections;
    entries_per_section = float_of_int (entries sections) /. float_of_int (Array.length sections);
    send_trace_us = local.send_us;
    get_result_wait_ms = local.wait_ms;
    local_session_ms = local.session_ms;
    check_us = per_section sections (fun s -> ignore (Engine.check s));
    check_packed_us;
    busy_ratio = nan;
    minor_words_per_op = nan;
    minor_collections = nan;
    major_collections = nan;
    encode_us = per_section sections (fun s -> ignore (Packed.encode_wire (Packed.of_events s)));
    send_us = served.s_send_us;
    get_result_ms = served.s_result_ms;
    bytes_per_entry = float_of_int wire_bytes /. float_of_int (entries sections);
    read_batch_us = read_batch_us_per_frame wires;
    decode_us =
      per_section wires (fun w ->
          match Packed.decode_wire w with Ok p -> Packed.free p | Error _ -> failwith "decode");
    overhead_ratio = served.s_session_ms /. local.session_ms;
    gen_us = nan;
    entries_per_program =
      float_of_int (entries (Array.map (fun p -> p.Gen.events) programs))
      /. float_of_int (max 1 (Array.length programs));
    pairs = pairs_on programs;
    tracing_overhead = nan;
  }
