(* The PMTest benchmark.  Runs one workload for a fixed time and prints,
   as its last line, one JSON object: whether every verdict was correct,
   the ops attempted and failed, and the metrics (end-to-end untraced,
   per-layer traced).  The line before it carries the run metadata.
   Exit code 1 when the correctness gate fails, 2 on a usage error.

   dune exec perfbench/bench.exe -- --workload pmdk-live --seed 1 --seconds 10 --trace 0 \
     --cli _build/default/bin/pmtest_cli.exe *)

open Common

let workloads = [ "pmdk-live"; "redis-serve"; "fuzz-campaign" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let cli = ref "" and run_dir = ref "." and expect_wrong = ref false in
  let rev = ref "unknown" and source = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the measured phase");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics and spans");
      ("--cli", Arg.Set_string cli, " path of the built pmtest-cli (the daemon)");
      ("--run-dir", Arg.Set_string run_dir, " directory for sockets and the span file");
      ("--rev", Arg.Set_string rev, " git revision of the source, for the metadata");
      ("--source-digest", Arg.Set_string source, " digest of the source tree, for the metadata");
      ("--expect-wrong", Arg.Set expect_wrong, " test hook: corrupt every expected verdict");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --cli PATH";
  if (not (List.mem !workload workloads)) || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline "bench: need --workload (pmdk-live | redis-serve | fuzz-campaign), --seconds > 0, --trace 0|1";
    exit 2
  end;
  let ctx =
    {
      seed = !seed;
      seconds = !seconds;
      traced = !trace = 1;
      cli = !cli;
      expect_wrong = !expect_wrong;
      run_dir = !run_dir;
    }
  in
  let stat0 = Sample.cpu_jiffies () in
  let o =
    match !workload with
    | "pmdk-live" -> Pmdk_live.run ctx
    | "redis-serve" -> Redis_serve.run ctx
    | "fuzz-campaign" -> Fuzz_campaign.run ctx
    | _ -> assert false
  in
  let stat1 = Sample.cpu_jiffies () in
  let slices, kept, threshold = Sample.Steal.summary () in
  (* A metric with no samples behind it is a broken run, not a result. *)
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then begin
        Printf.eprintf "bench: metric %s has no value (too few samples?)\n" m.name;
        exit 2
      end)
    o.metrics;
  List.iter print_endline o.notes;
  let spans =
    if not ctx.traced then []
    else begin
      let path = Filename.concat ctx.run_dir (Printf.sprintf "spans-%s-%d.json" !workload !seed) in
      Span.write path;
      Printf.printf "spans: %d written to %s (Chrome trace-event JSON), %d dropped\n" (Span.count ())
        path !Span.dropped;
      [ ("spans_file", json_string path); ("spans", string_of_int (Span.count ())) ]
    end
  in
  let failed_share = float_of_int o.failed /. float_of_int (max 1 o.attempted) in
  let meta =
    [
      ("workload", json_string !workload);
      ("seed", string_of_int !seed);
      ("seconds", json_float !seconds);
      ("traced", string_of_bool ctx.traced);
      ("cores", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("git_rev", json_string !rev);
      ("source_digest", json_string !source);
      ("failed_share", json_float failed_share);
      ("host_steal_share", json_float (Sample.steal_share stat0 stat1));
      ("slices", string_of_int slices);
      ("slices_kept", string_of_int kept);
      ("slice_steal_threshold", json_float threshold);
    ]
    @ spans @ o.meta
  in
  Printf.printf "meta %s\n"
    ("{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) meta) ^ "}");
  let correct = o.failed = 0 && o.attempted > 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float m.value) m.unit_)
          o.metrics));
  exit (if correct then 0 else 1)
