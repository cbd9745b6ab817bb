(* Crash-injection harness: correct programs survive every injected
   crash; programs with seeded crash-consistency bugs produce durable
   images their recovery cannot repair. Crashes are injected through the
   instrumentation sink, so the windows *inside* each transaction
   (update written but not flushed, log appended but not yet valid, ...)
   are exercised — exactly where the seeded bugs bite. *)

open Pmtest_pmdk
module Crashtest = Pmtest_crashtest.Crashtest
module Machine = Pmtest_pmem.Machine
module Region = Pmtest_mnemosyne.Region
module Pmap = Pmtest_mnemosyne.Pmap
module Fs = Pmtest_pmfs.Fs
module Sink = Pmtest_trace.Sink

let value_of i = Bytes.of_string (Printf.sprintf "v%d" i)

let fast_config =
  { Crashtest.default_config with Crashtest.samples_per_point = 8; exhaustive_limit = 48 }

(* A sink whose destination can be set after the consumer was created —
   lets the crash injector observe a machine the pool itself creates. *)
let forwarding_sink () =
  let target = ref Sink.null in
  ({ Sink.emit = (fun k l -> !target.Sink.emit k l) }, target)

(* Recovery for a pool-backed map: boot the image, roll back the journal,
   reopen the structure, check the structural invariant, and require every
   committed key to be present with its committed value. *)
let pmdk_recover ~reopen ~committed image =
  let booted = Machine.of_image image in
  let pool = Pool.of_machine ~machine:booted ~sink:Sink.null in
  let lookup, check = reopen pool in
  match check () with
  | Error e -> Error ("inconsistent after recovery: " ^ e)
  | Ok () -> (
    match
      List.find_opt
        (fun (key, v) ->
          match lookup ~key with Some got -> not (Bytes.equal got v) | None -> true)
        !committed
    with
    | Some (key, _) -> Error (Printf.sprintf "committed key %Ld lost or corrupted" key)
    | None -> Ok ())

let crashtest_pmdk ?fault ~make_map ~steps () =
  let committed = ref [] in
  let sink, target = forwarding_sink () in
  let pool = Pool.create ~track_versions:true ~size:(1 lsl 21) ~sink () in
  Pool.set_fault pool fault;
  let insert, reopen = make_map pool in
  let recover = pmdk_recover ~reopen ~committed in
  let live, crash_sink =
    Crashtest.attach ~config:fast_config ~machine:(Pool.machine pool) ~recover ()
  in
  target := crash_sink;
  for i = 0 to steps - 1 do
    let key = Int64.of_int i in
    insert ~key ~value:(value_of i);
    committed := (key, value_of i) :: !committed
  done;
  Crashtest.live_verdict live

let ctree_map ?bug pool =
  let m = Ctree_map.create pool in
  let root = Ctree_map.root_off m in
  ( (fun ~key ~value -> Ctree_map.insert ?bug m ~key ~value),
    fun pool ->
      let m = Ctree_map.open_ pool ~root in
      ((fun ~key -> Ctree_map.lookup m ~key), fun () -> Ctree_map.check_consistent m) )

let hashmap_map ?bug pool =
  let m = Hashmap_tx.create ~buckets:16 pool in
  let root = Hashmap_tx.root_off m in
  ( (fun ~key ~value -> Hashmap_tx.insert ?bug m ~key ~value),
    fun pool ->
      let m = Hashmap_tx.open_ pool ~root in
      ((fun ~key -> Hashmap_tx.lookup m ~key), fun () -> Hashmap_tx.check_consistent m) )

let test_ctree_survives () =
  let v = crashtest_pmdk ~make_map:ctree_map ~steps:10 () in
  if not (Crashtest.survived v) then
    Alcotest.failf "correct ctree failed crash testing: %a" Crashtest.pp_verdict v;
  Alcotest.(check bool) "mid-transaction windows were sampled" true
    (v.Crashtest.images_tested > 200)

let test_ctree_unlogged_root_breaks () =
  (* The unlogged root-slot update can persist ahead of the new nodes: a
     crash in that window leaves a dangling pointer recovery cannot
     repair, or loses a committed key after rollback. *)
  let v = crashtest_pmdk ~make_map:(ctree_map ~bug:Ctree_map.Skip_log_root) ~steps:10 () in
  Alcotest.(check bool)
    (Format.asprintf "expected a violation, got %a" Crashtest.pp_verdict v)
    false (Crashtest.survived v)

let test_hashmap_survives () =
  let v = crashtest_pmdk ~make_map:hashmap_map ~steps:10 () in
  if not (Crashtest.survived v) then
    Alcotest.failf "correct hashmap failed crash testing: %a" Crashtest.pp_verdict v

let test_hashmap_commit_fault_loses_data () =
  (* Commit without writeback: committed data may never reach the media,
     so some crash image is missing a committed key. *)
  let v = crashtest_pmdk ~fault:Pool.Skip_commit_writeback ~make_map:hashmap_map ~steps:8 () in
  Alcotest.(check bool)
    (Format.asprintf "expected lost data, got %a" Crashtest.pp_verdict v)
    false (Crashtest.survived v)

let test_hashmap_unlogged_bucket_breaks () =
  let v = crashtest_pmdk ~make_map:(hashmap_map ~bug:Hashmap_tx.Skip_log_bucket) ~steps:8 () in
  Alcotest.(check bool)
    (Format.asprintf "expected a violation, got %a" Crashtest.pp_verdict v)
    false (Crashtest.survived v)

(* --- Mnemosyne pmap ------------------------------------------------------------ *)

let crashtest_pmap ?fault ~steps () =
  let committed = ref [] in
  let sink, target = forwarding_sink () in
  let region = Region.create ~track_versions:true ~size:(1 lsl 21) ~sink () in
  Region.set_fault region fault;
  let m = Pmap.create ~buckets:16 ~value_cap:16 region in
  let root = Pmap.root_off m in
  let recover image =
    let booted = Machine.of_image image in
    let region = Region.of_machine ~machine:booted ~sink:Sink.null in
    let m = Pmap.open_ region ~root in
    match Pmap.check_consistent m with
    | Error e -> Error ("inconsistent after recovery: " ^ e)
    | Ok () ->
      if
        List.for_all
          (fun (key, v) -> match Pmap.get m ~key with Some got -> got = v | None -> false)
          !committed
      then Ok ()
      else Error "committed key lost"
  in
  let live, crash_sink =
    Crashtest.attach ~config:fast_config ~machine:(Region.machine region) ~recover ()
  in
  target := crash_sink;
  for i = 0 to steps - 1 do
    let key = Int64.of_int i in
    let v = Printf.sprintf "s%d" i in
    Pmap.set m ~key ~value:v;
    committed := (key, v) :: !committed
  done;
  Crashtest.live_verdict live

let test_pmap_survives () =
  let v = crashtest_pmap ~steps:8 () in
  if not (Crashtest.survived v) then
    Alcotest.failf "correct pmap failed crash testing: %a" Crashtest.pp_verdict v

let test_pmap_unflushed_apply_breaks () =
  (* In-place updates never written back: a crash after log truncation
     loses committed data. *)
  let v = crashtest_pmap ~fault:Region.Skip_apply_writeback ~steps:8 () in
  Alcotest.(check bool)
    (Format.asprintf "expected lost data, got %a" Crashtest.pp_verdict v)
    false (Crashtest.survived v)

(* --- PMFS ------------------------------------------------------------------------ *)

let crashtest_pmfs ?fault ~steps () =
  let committed = ref [] in
  let sink, target = forwarding_sink () in
  let fs = Fs.mkfs ~track_versions:true ~inodes:32 ~blocks:64 ~sink () in
  Fs.set_fault fs fault;
  let recover image =
    let booted = Machine.of_image image in
    let fs = Fs.mount ~machine:booted ~sink:Sink.null in
    match Fs.check_consistent fs with
    | Error e -> Error ("fs inconsistent after recovery: " ^ e)
    | Ok () ->
      if
        List.for_all
          (fun (name, contents) ->
            match Fs.lookup fs name with
            | None -> false
            | Some ino -> (
              match Fs.read fs ~ino ~off:0 ~len:(String.length contents) with
              | Ok s -> s = contents
              | Error _ -> false))
          !committed
      then Ok ()
      else Error "committed file lost or corrupted"
  in
  let live, crash_sink =
    Crashtest.attach ~config:fast_config ~every:8 ~machine:(Fs.machine fs) ~recover ()
  in
  target := crash_sink;
  for i = 0 to steps - 1 do
    let name = Printf.sprintf "f%d" i in
    let contents = String.make (40 + (i * 13 mod 300)) (Char.chr (Char.code 'a' + (i mod 26))) in
    match Fs.create fs name with
    | Ok ino -> (
      match Fs.write fs ~ino ~off:0 contents with
      | Ok () -> committed := (name, contents) :: !committed
      | Error _ -> ())
    | Error _ -> ()
  done;
  Crashtest.live_verdict live

let test_pmfs_survives () =
  let v = crashtest_pmfs ~steps:6 () in
  if not (Crashtest.survived v) then
    Alcotest.failf "correct pmfs failed crash testing: %a" Crashtest.pp_verdict v

let test_pmfs_unjournaled_breaks () =
  let v = crashtest_pmfs ~fault:Fs.Skip_journal_flush ~steps:6 () in
  Alcotest.(check bool)
    (Format.asprintf "expected fs corruption, got %a" Crashtest.pp_verdict v)
    false (Crashtest.survived v)

(* --- CXL: global persistent flush programs --------------------------------------- *)

module Instr = Pmtest_pmem.Instr

(* A two-word commit under the CXL model: payload at 0, flag at 64 (its
   own cache line). The gpf is the only persist primitive — no per-line
   flushes — so correctness is entirely about where the gpf sits. The
   invariant: a durable flag implies a durable payload. *)
let cxl_commit ~buggy =
  let machine = Machine.create ~track_versions:true ~size:256 () in
  let sink, target = forwarding_sink () in
  let instr = Instr.make ~machine ~sink ~file:"cxl_commit.c" in
  let recover image =
    let flag = Bytes.get_int64_le image 64 and payload = Bytes.get_int64_le image 0 in
    if flag = 1L && payload <> 1L then Error "flag durable without its payload" else Ok ()
  in
  let live, crash_sink = Crashtest.attach ~config:fast_config ~every:1 ~machine ~recover () in
  target := crash_sink;
  Instr.store_i64 instr ~line:1 ~addr:0 1L;
  if not buggy then Instr.gpf instr ~line:2;
  Instr.store_i64 instr ~line:3 ~addr:64 1L;
  Instr.gpf instr ~line:4;
  Crashtest.live_verdict live

let test_cxl_correct_commit_survives () =
  let v = cxl_commit ~buggy:false in
  if not (Crashtest.survived v) then
    Alcotest.failf "correct gpf commit failed crash testing: %a" Crashtest.pp_verdict v

let test_cxl_missing_gpf_breaks () =
  (* Both stores race to the media under one trailing gpf: some admitted
     image persists the flag line but not the payload line. *)
  let v = cxl_commit ~buggy:true in
  Alcotest.(check bool)
    (Format.asprintf "expected a violation, got %a" Crashtest.pp_verdict v)
    false (Crashtest.survived v)

let test_cxl_visibility_is_not_durability () =
  (* The CXL model's split: after [payload; gpf; store flag] the flag is
     visible (volatile image) but not yet durable — some admitted crash
     image lacks it, while the gpf-covered payload is in every one. *)
  let machine = Machine.create ~track_versions:true ~size:256 () in
  let instr = Instr.make ~machine ~sink:Sink.null ~file:"cxl_commit.c" in
  Instr.store_i64 instr ~line:1 ~addr:0 1L;
  Instr.gpf instr ~line:2;
  Instr.store_i64 instr ~line:3 ~addr:64 1L;
  Alcotest.(check int64) "flag is visible" 1L
    (Bytes.get_int64_le (Machine.volatile_image machine) 64);
  let missing_flag = ref false in
  let all_have_payload = ref true in
  let exhaustive =
    Machine.iter_crash_states machine (fun img ->
        if Bytes.get_int64_le img 0 <> 1L then all_have_payload := false;
        if Bytes.get_int64_le img 64 <> 1L then missing_flag := true)
  in
  Alcotest.(check bool) "space was enumerated exhaustively" true exhaustive;
  Alcotest.(check bool) "gpf-covered payload is in every image" true !all_have_payload;
  Alcotest.(check bool) "visible flag is absent from some image" true !missing_flag

(* --- End-of-trace injection ------------------------------------------------------ *)

(* The engine/crashtest fuzz contract replays a whole program as one
   step and injects crashes only at the end of the trace.  That one
   injection must still catch a false durability claim, both when the
   point's crash states are enumerated and when there are more than
   [exhaustive_limit] of them and the point is sampled. *)
let end_of_trace_verdict ~dirty_lines =
  let line = 64 in
  let machine = Machine.create ~track_versions:true ~size:(line * (dirty_lines + 1)) () in
  let replayed = ref false in
  let step _ =
    (* One flushed and fenced line, then [dirty_lines] lines never
       flushed. *)
    Machine.store machine ~addr:0 (Bytes.make line 'f');
    Machine.clwb machine ~addr:0 ~size:line;
    Machine.sfence machine;
    for i = 1 to dirty_lines do
      Machine.store machine ~addr:(i * line) (Bytes.make line 'd')
    done;
    replayed := true
  in
  (* The claim under test: the first unflushed line is durable.  The
     pre-replay point asserts nothing, as in the fuzz contract. *)
  let recover img =
    if not !replayed then Ok ()
    else if Bytes.sub_string img 0 line <> String.make line 'f' then Error "fenced line lost"
    else if Bytes.sub_string img line line <> String.make line 'd' then
      Error "unflushed range not durable"
    else Ok ()
  in
  Crashtest.run ~machine ~recover ~steps:1 ~step ()

let test_end_of_trace_catches ~dirty_lines ~exhaustive ~images () =
  let v = end_of_trace_verdict ~dirty_lines in
  Alcotest.(check int) "pre-replay point and end of trace" 2 v.Crashtest.crash_points;
  Alcotest.(check int) "enumerated points" exhaustive v.Crashtest.exhaustive_points;
  Alcotest.(check int) "images tested" images v.Crashtest.images_tested;
  Alcotest.(check bool) "the false claim is caught" false (Crashtest.survived v);
  List.iter
    (fun (f : Crashtest.failure) ->
      Alcotest.(check int) "caught at the end of the trace" 0 f.Crashtest.crash_point;
      Alcotest.(check string) "only the unflushed line is missing" "unflushed range not durable"
        f.Crashtest.message)
    v.Crashtest.failures

(* --- Agreement with PMTest ------------------------------------------------------- *)

let test_pmtest_verdict_predicts_crash_outcome () =
  (* Soundness direction: if PMTest's trace verdict is clean, crash
     injection must not find a violating image. (PMTest may be stricter
     than one sampling run — that direction is fine.) *)
  let module Report = Pmtest_core.Report in
  let module Pmtest = Pmtest_core.Pmtest in
  let pmtest_fails bug =
    let session = Pmtest.init ~workers:0 () in
    let pool = Pool.create ~size:(1 lsl 21) ~sink:(Pmtest.sink session) () in
    let m = Ctree_map.create pool in
    for i = 0 to 9 do
      Pool.tx_checker_start pool;
      Ctree_map.insert ?bug m ~key:(Int64.of_int i) ~value:(value_of i);
      Pool.tx_checker_end pool;
      Pmtest.send_trace session
    done;
    Report.has_fail (Pmtest.finish session)
  in
  List.iter
    (fun (name, bug) ->
      let fails = pmtest_fails bug in
      let crashes =
        not (Crashtest.survived (crashtest_pmdk ~make_map:(ctree_map ?bug) ~steps:10 ()))
      in
      if (not fails) && crashes then
        Alcotest.failf "%s: PMTest clean but crash testing found a violation" name)
    [ ("no bug", None); ("skip-log-root", Some Ctree_map.Skip_log_root) ]

let () =
  Alcotest.run "crashtest"
    [
      ( "pmdk",
        [
          Alcotest.test_case "correct ctree survives" `Quick test_ctree_survives;
          Alcotest.test_case "unlogged root breaks recovery" `Quick
            test_ctree_unlogged_root_breaks;
          Alcotest.test_case "correct hashmap survives" `Quick test_hashmap_survives;
          Alcotest.test_case "commit fault loses committed data" `Quick
            test_hashmap_commit_fault_loses_data;
          Alcotest.test_case "unlogged bucket breaks recovery" `Quick
            test_hashmap_unlogged_bucket_breaks;
        ] );
      ( "other-substrates",
        [
          Alcotest.test_case "correct pmap survives" `Quick test_pmap_survives;
          Alcotest.test_case "unflushed apply loses data" `Quick test_pmap_unflushed_apply_breaks;
          Alcotest.test_case "correct pmfs survives" `Quick test_pmfs_survives;
          Alcotest.test_case "unjournaled pmfs breaks" `Quick test_pmfs_unjournaled_breaks;
        ] );
      ( "cxl",
        [
          Alcotest.test_case "correct gpf commit survives" `Quick test_cxl_correct_commit_survives;
          Alcotest.test_case "missing gpf breaks recovery" `Quick test_cxl_missing_gpf_breaks;
          Alcotest.test_case "visibility is not durability" `Quick
            test_cxl_visibility_is_not_durability;
        ] );
      ( "end-of-trace",
        [
          (* One dirty line: 2 crash states, enumerated. *)
          Alcotest.test_case "enumerated point catches a false claim" `Quick
            (test_end_of_trace_catches ~dirty_lines:1 ~exhaustive:2 ~images:3);
          (* Nine dirty lines: 512 crash states, over the default limit of
             256, so the end-of-trace point is sampled. *)
          Alcotest.test_case "sampled point catches a false claim" `Quick
            (test_end_of_trace_catches ~dirty_lines:9 ~exhaustive:1
               ~images:(1 + Crashtest.default_config.Crashtest.samples_per_point));
        ] );
      ( "pmtest-agreement",
        [
          Alcotest.test_case "clean verdicts imply crash survival" `Quick
            test_pmtest_verdict_predicts_crash_outcome;
        ] );
    ]
