(* Benchmark entry point.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --spec      (prints BENCHMARK.json)

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones; a traced run also writes its spans, one JSON object per
   line, to perfbench/traces/<workload>-<seed>.jsonl. Everything else goes
   to standard error. *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and spec = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of the spec's workloads");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 1 for the per-layer breakdown");
      ("--spec", Arg.Set spec, " print BENCHMARK.json and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !spec then print_string (Perfbench.Spec.to_json ())
  else begin
    if not (List.mem !workload Perfbench.Workload.names) then begin
      prerr_endline
        ("--workload must be one of: "
        ^ String.concat ", " Perfbench.Workload.names);
      exit 2
    end;
    let trace = !trace = 1 in
    let spans_out =
      if trace then begin
        let dir = Filename.concat "perfbench" "traces" in
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        Some
          (Filename.concat dir (Printf.sprintf "%s-%d.jsonl" !workload !seed))
      end
      else None
    in
    let r =
      Perfbench.Workload.run ?spans_out ~workload:!workload ~seed:!seed
        ~seconds:!seconds ~trace ()
    in
    Printf.eprintf "%s seed=%d trace=%b: %d ops, %d failed, error_rate=%g\n"
      !workload !seed trace r.attempted r.failed
      (float_of_int r.failed /. float_of_int (max 1 r.attempted));
    let metrics =
      List.map
        (fun (name, v) ->
          Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
            (json_number v) (Perfbench.Spec.unit_of name))
        r.metrics
    in
    Printf.printf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
       {%s}}\n"
      r.correct r.attempted r.failed
      (String.concat ", " metrics)
  end
