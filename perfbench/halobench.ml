(* The benchmark's entry point.

     halobench.exe --workload NAME --seed N --seconds S --trace 0|1
     halobench.exe selftest

   Runs one workload in this process and prints, as its last line, one
   JSON object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 they
   are the per-layer ones, and the run's spans are written to
   .bench_build/traces/. *)

let workloads =
  [
    ("paper-suite", Pb_paper.run);
    ("serve-fleet", Pb_serve.run);
    ("fuzz-campaign", Pb_fuzz.run);
    ("traffic-drift", Pb_traffic.run);
  ]

let usage () =
  prerr_endline
    "usage: halobench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       halobench.exe selftest";
  exit 2

let parse argv =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] argv

let json_of_outcome (o : Pb_common.outcome) =
  Json.Obj
    [
      ("correct", Json.Bool o.Pb_common.correct);
      ("attempted", Json.Int o.Pb_common.attempted);
      ("failed", Json.Int o.Pb_common.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (m : Pb_common.metric) ->
               ( m.Pb_common.name,
                 Json.Obj
                   [
                     ("value", Json.Float m.Pb_common.value);
                     ("unit", Json.String m.Pb_common.unit_);
                   ] ))
             o.Pb_common.metrics) );
    ]

let run_workload args =
  let arg k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let name = arg "workload" in
  let run = match List.assoc_opt name workloads with Some r -> r | None -> usage () in
  let seed = int_of_string (arg "seed") in
  let seconds = float_of_string (arg "seconds") in
  let traced = arg "trace" = "1" in
  let root = ".bench_build" in
  let work_dir =
    Filename.concat root (Printf.sprintf "work-%s-%d" name (Unix.getpid ()))
  in
  let ctx =
    {
      Pb_common.seed;
      seconds;
      traced;
      jobs = Par.default_jobs ();
      work_dir;
    }
  in
  if traced then Pb_common.obs := Some (Obs.create ());
  let outcome =
    Fun.protect
      ~finally:(fun () -> Pb_common.rm_rf work_dir)
      (fun () -> run ctx)
  in
  List.iter
    (fun (k, v) -> Printf.printf "# %s: %s\n" k v)
    (("workload", name) :: ("domains", string_of_int ctx.Pb_common.jobs)
    :: outcome.Pb_common.notes);
  List.iter
    (fun (m : Pb_common.metric) ->
      Printf.printf "# %-40s %14.6g %s\n" m.Pb_common.name m.Pb_common.value
        m.Pb_common.unit_)
    outcome.Pb_common.metrics;
  if traced then begin
    let dir = Filename.concat root "traces" in
    Pb_common.mkdir_p dir;
    let path = Filename.concat dir (Printf.sprintf "%s-seed%d.json" name seed) in
    let obs = Option.get !Pb_common.obs in
    Obs.finish obs;
    Trace_event.write ~process_name:("halobench " ^ name) ~path obs;
    Printf.printf "# spans written to %s\n" path
  end;
  print_endline (Json.to_string ~pretty:false (json_of_outcome outcome))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "selftest" ] -> exit (Pb_selftest.run ())
  | argv -> run_workload (parse argv)
