(* Worker-pool runtime and the Pmtest session API. *)

open Pmtest_model
open Pmtest_trace
module Runtime = Pmtest_core.Runtime
module Report = Pmtest_core.Report
module Pmtest = Pmtest_core.Pmtest

let w addr size = Event.make (Event.Op (Model.Write { addr; size }))
let clwb addr size = Event.make (Event.Op (Model.Clwb { addr; size }))
let sfence = Event.make (Event.Op Model.Sfence)
let is_persist addr size = Event.make (Event.Checker (Event.Is_persist { addr; size }))

let clean_section = [| w 0x100 8; clwb 0x100 8; sfence; is_persist 0x100 8 |]
let buggy_section = [| w 0x100 8; sfence; is_persist 0x100 8 |]

let test_sync_runtime () =
  let rt = Runtime.create ~workers:0 () in
  Runtime.send_trace rt clean_section;
  Runtime.send_trace rt buggy_section;
  let r = Runtime.shutdown rt in
  Alcotest.(check int) "one failure" 1 (List.length (Report.fails r));
  Alcotest.(check int) "all entries counted" 7 r.Report.entries

let test_worker_pool_aggregates () =
  let rt = Runtime.create ~workers:4 () in
  for _ = 1 to 50 do
    Runtime.send_trace rt clean_section;
    Runtime.send_trace rt buggy_section
  done;
  let r = Runtime.get_result rt in
  Alcotest.(check int) "50 failures" 50 (List.length (Report.fails r));
  Alcotest.(check int) "nothing pending" 0 (Runtime.pending rt);
  ignore (Runtime.shutdown rt)

let test_shutdown_idempotent () =
  let rt = Runtime.create ~workers:2 () in
  Runtime.send_trace rt clean_section;
  let a = Runtime.shutdown rt in
  let b = Runtime.shutdown rt in
  Alcotest.(check int) "same entries" a.Report.entries b.Report.entries;
  Alcotest.check_raises "send after shutdown"
    (Invalid_argument "Runtime.send_trace: runtime already shut down") (fun () ->
      Runtime.send_trace rt clean_section)

let test_traces_are_independent () =
  (* A fence in one section must not affect the next section's shadow
     state: each starts from a fresh timestamp. *)
  let rt = Runtime.create ~workers:1 () in
  Runtime.send_trace rt [| w 0x100 8; clwb 0x100 8 |];
  (* Unflushed end-of-section is not an error for PMTest (no checker). *)
  Runtime.send_trace rt [| is_persist 0x100 8 |];
  (* New section: 0x100 was never written HERE, so the checker passes. *)
  let r = Runtime.shutdown rt in
  Alcotest.(check bool) "clean" true (Report.is_clean r)

let test_parallel_deterministic () =
  (* The worker pool must merge per-section reports in send order, so a
     parallel run is byte-identical to the synchronous one on the same
     sections — fuzz campaigns rely on this to stay reproducible. *)
  let sections =
    List.init 40 (fun i ->
        let p =
          Pmtest_fuzz.Gen.generate
            (Pmtest_fuzz.Gen.default_cfg Model.X86)
            (Pmtest_util.Rng.create i)
        in
        p.Pmtest_fuzz.Gen.events)
  in
  let run workers =
    let rt = Runtime.create ~workers () in
    List.iter (Runtime.send_trace rt) sections;
    Format.asprintf "%a" Report.pp (Runtime.shutdown rt)
  in
  Alcotest.(check string) "workers=4 matches workers=0" (run 0) (run 4)

let test_packed_sections_deterministic () =
  (* Packed arenas through the pool must aggregate to the same report as
     boxed sections through the synchronous path — least-loaded dispatch
     and batch draining must not perturb merge order. *)
  let sections =
    List.init 40 (fun i ->
        let p =
          Pmtest_fuzz.Gen.generate
            (Pmtest_fuzz.Gen.default_cfg Model.X86)
            (Pmtest_util.Rng.create i)
        in
        p.Pmtest_fuzz.Gen.events)
  in
  let boxed =
    let rt = Runtime.create ~workers:0 () in
    List.iter (Runtime.send_trace rt) sections;
    Format.asprintf "%a" Report.pp (Runtime.shutdown rt)
  in
  let packed workers =
    let rt = Runtime.create ~workers () in
    List.iter (fun evs -> Runtime.send_packed rt (Packed.of_events evs)) sections;
    Format.asprintf "%a" Report.pp (Runtime.shutdown rt)
  in
  Alcotest.(check string) "packed workers=0 matches boxed" boxed (packed 0);
  Alcotest.(check string) "packed workers=4 matches boxed" boxed (packed 4)

let test_mixed_sections_aggregate () =
  (* Boxed and packed sections interleaved in one runtime keep send
     order in the aggregate. *)
  let rt = Runtime.create ~workers:2 () in
  for _ = 1 to 25 do
    Runtime.send_trace rt clean_section;
    Runtime.send_packed rt (Packed.of_events buggy_section)
  done;
  let r = Runtime.shutdown rt in
  Alcotest.(check int) "25 failures" 25 (List.length (Report.fails r));
  Alcotest.(check int) "all entries counted" (25 * 7) r.Report.entries

let test_send_packed_cb_order_and_merge () =
  (* Callback reports, merged as they arrive, must equal the aggregate a
     dedicated synchronous runtime produces over the same sections — the
     property pmtestd's per-session aggregation is built on. *)
  let sections =
    List.init 30 (fun i ->
        let p =
          Pmtest_fuzz.Gen.generate
            (Pmtest_fuzz.Gen.default_cfg Model.X86)
            (Pmtest_util.Rng.create (1000 + i))
        in
        p.Pmtest_fuzz.Gen.events)
  in
  let dedicated =
    let rt = Runtime.create ~workers:0 ~model:Model.X86 () in
    List.iter (Runtime.send_trace rt) sections;
    Format.asprintf "%a" Report.pp (Runtime.shutdown rt)
  in
  List.iter
    (fun workers ->
      let rt = Runtime.create ~workers () in
      let agg = ref Report.empty in
      List.iter
        (fun evs ->
          Runtime.send_packed_cb ~model:Model.X86 rt (Packed.of_events evs) (fun r ->
              agg := Report.merge !agg r))
        sections;
      ignore (Runtime.shutdown rt);
      Alcotest.(check string)
        (Printf.sprintf "callback merge equals dedicated run, %d worker(s)" workers)
        dedicated
        (Format.asprintf "%a" Report.pp !agg))
    [ 0; 2 ]

let test_send_packed_cb_isolated_from_aggregate () =
  (* Sections checked through the callback path must not leak into the
     runtime's own aggregate. *)
  let rt = Runtime.create ~workers:1 () in
  let hits = ref 0 in
  Runtime.send_packed_cb rt (Packed.of_events buggy_section) (fun r ->
      incr hits;
      Alcotest.(check int) "callback sees the failure" 1 (List.length (Report.fails r)));
  Runtime.send_trace rt clean_section;
  let r = Runtime.shutdown rt in
  Alcotest.(check int) "callback fired once" 1 !hits;
  Alcotest.(check int) "aggregate only holds the boxed section" 4 r.Report.entries;
  Alcotest.(check bool) "aggregate clean" true (Report.is_clean r)

let test_send_packed_cb_per_model () =
  (* Two interleaved "sessions" on one pool, each pinned to its own
     model via the per-dispatch override. *)
  let section = [| w 0x100 8; is_persist 0x100 8 |] in
  let rt = Runtime.create ~workers:2 () in
  let x86 = ref Report.empty and eadr = ref Report.empty in
  for _ = 1 to 10 do
    Runtime.send_packed_cb ~model:Model.X86 rt (Packed.of_events section) (fun r ->
        x86 := Report.merge !x86 r);
    Runtime.send_packed_cb ~model:Model.Eadr rt (Packed.of_events section) (fun r ->
        eadr := Report.merge !eadr r)
  done;
  ignore (Runtime.shutdown rt);
  (* An unflushed store: a bug under x86, durable by construction under
     eADR (the persistence domain includes the caches). *)
  Alcotest.(check int) "x86 session sees 10 failures" 10 (List.length (Report.fails !x86));
  Alcotest.(check bool) "eadr session is clean" true (Report.is_clean !eadr)

(* --- Session API ---------------------------------------------------------- *)

let test_session_basic () =
  let t = Pmtest.init ~workers:1 () in
  let sink = Pmtest.sink t in
  Sink.write sink ~addr:0x100 ~size:8 ();
  Sink.clwb sink ~addr:0x100 ~size:8 ();
  Sink.sfence sink ();
  Pmtest.is_persist t ~addr:0x100 ~size:8;
  Pmtest.send_trace t;
  let r = Pmtest.finish t in
  Alcotest.(check bool) "clean" true (Report.is_clean r);
  Alcotest.(check int) "ops" 3 r.Report.ops

let test_session_detects_bug () =
  let t = Pmtest.init ~workers:2 () in
  let sink = Pmtest.sink t in
  Sink.write sink ~addr:0x100 ~size:8 ();
  Pmtest.is_persist t ~addr:0x100 ~size:8;
  let r = Pmtest.finish t in
  Alcotest.(check int) "one fail" 1 (List.length (Report.fails r))

let test_session_tracking_toggle () =
  let t = Pmtest.init ~workers:0 () in
  let sink = Pmtest.sink t in
  Pmtest.stop t;
  Sink.write sink ~addr:0x100 ~size:8 ();
  Pmtest.start t;
  Alcotest.(check int) "dropped while stopped" 0 (Pmtest.section_length t);
  Sink.write sink ~addr:0x200 ~size:8 ();
  Alcotest.(check int) "recorded when started" 1 (Pmtest.section_length t);
  ignore (Pmtest.finish t)

let test_session_threads () =
  let t = Pmtest.init ~workers:2 () in
  Pmtest.thread_init t ~thread:1;
  Pmtest.thread_init t ~thread:2;
  let emit thread =
    let sink = Pmtest.sink ~thread t in
    Sink.write sink ~addr:(0x100 * (thread + 1)) ~size:8 ();
    Pmtest.is_persist ~thread t ~addr:(0x100 * (thread + 1)) ~size:8;
    Pmtest.send_trace ~thread t
  in
  let d1 = Domain.spawn (fun () -> emit 1) in
  let d2 = Domain.spawn (fun () -> emit 2) in
  Domain.join d1;
  Domain.join d2;
  let r = Pmtest.finish t in
  Alcotest.(check int) "both sections failed" 2 (List.length (Report.fails r))

let test_session_vars () =
  let t = Pmtest.init ~workers:0 () in
  Pmtest.reg_var t "backup" ~addr:0x40 ~size:16;
  Alcotest.(check (option (pair int int))) "registered" (Some (0x40, 16)) (Pmtest.get_var t "backup");
  let sink = Pmtest.sink t in
  Sink.write sink ~addr:0x40 ~size:16 ();
  Pmtest.is_persist_var t "backup";
  Pmtest.unreg_var t "backup";
  Alcotest.(check (option (pair int int))) "unregistered" None (Pmtest.get_var t "backup");
  let r = Pmtest.finish t in
  Alcotest.(check int) "checker ran" 1 (List.length (Report.fails r))

let test_session_get_result_drains () =
  let t = Pmtest.init ~workers:4 () in
  let sink = Pmtest.sink t in
  for i = 1 to 20 do
    Sink.write sink ~addr:(i * 64) ~size:8 ();
    Pmtest.is_persist t ~addr:(i * 64) ~size:8;
    Pmtest.send_trace t
  done;
  let r = Pmtest.get_result t in
  Alcotest.(check int) "all 20 checked" 20 (List.length (Report.fails r));
  ignore (Pmtest.finish t)

let test_session_observers () =
  let t = Pmtest.init ~workers:0 () in
  let seen = ref 0 in
  Pmtest.on_section t (fun section -> seen := !seen + Array.length section);
  Pmtest.emit t (Event.Op (Model.Write { addr = 0; size = 8 }));
  Pmtest.emit t (Event.Op (Model.Clwb { addr = 0; size = 8 }));
  Pmtest.emit t (Event.Op Model.Sfence);
  Pmtest.send_trace t;
  ignore (Pmtest.finish t);
  Alcotest.(check int) "observer saw every entry" 3 !seen

let test_session_rejects_invalid_ranges () =
  (* Accepted, such a range would raise later inside a checking worker. *)
  let t = Pmtest.init ~workers:0 () in
  let rejected name f =
    match f () with
    | () -> Alcotest.failf "%s accepted an invalid range" name
    | exception Invalid_argument _ -> ()
  in
  rejected "is_persist" (fun () -> Pmtest.is_persist t ~addr:0x100 ~size:0);
  rejected "is_ordered_before" (fun () ->
      Pmtest.is_ordered_before t ~a_addr:0 ~a_size:8 ~b_addr:0x100 ~b_size:0);
  rejected "exclude" (fun () -> Pmtest.exclude t ~addr:(-64) ~size:64);
  rejected "include_" (fun () -> Pmtest.include_ t ~addr:max_int ~size:8);
  Alcotest.(check int) "nothing recorded" 0 (Pmtest.section_length t);
  ignore (Pmtest.finish t)

let () =
  Alcotest.run "runtime"
    [
      ( "runtime",
        [
          Alcotest.test_case "synchronous mode" `Quick test_sync_runtime;
          Alcotest.test_case "worker pool aggregates" `Quick test_worker_pool_aggregates;
          Alcotest.test_case "shutdown is idempotent" `Quick test_shutdown_idempotent;
          Alcotest.test_case "trace sections are independent" `Quick test_traces_are_independent;
          Alcotest.test_case "parallel run is deterministic" `Quick test_parallel_deterministic;
          Alcotest.test_case "packed sections are deterministic" `Quick
            test_packed_sections_deterministic;
          Alcotest.test_case "boxed and packed sections mix" `Quick test_mixed_sections_aggregate;
          Alcotest.test_case "send_packed_cb merge equals dedicated run" `Quick
            test_send_packed_cb_order_and_merge;
          Alcotest.test_case "send_packed_cb stays out of the aggregate" `Quick
            test_send_packed_cb_isolated_from_aggregate;
          Alcotest.test_case "send_packed_cb per-dispatch model" `Quick
            test_send_packed_cb_per_model;
        ] );
      ( "session",
        [
          Alcotest.test_case "init/emit/finish round trip" `Quick test_session_basic;
          Alcotest.test_case "detects a missing barrier" `Quick test_session_detects_bug;
          Alcotest.test_case "start/stop tracking" `Quick test_session_tracking_toggle;
          Alcotest.test_case "per-thread builders" `Quick test_session_threads;
          Alcotest.test_case "variable registry" `Quick test_session_vars;
          Alcotest.test_case "get_result blocks until drained" `Quick
            test_session_get_result_drains;
          Alcotest.test_case "observers see every entry" `Quick test_session_observers;
          Alcotest.test_case "invalid ranges rejected at the call" `Quick
            test_session_rejects_invalid_ranges;
        ] );
    ]
