(* The benchmark's own tests: every output check must accept the right
   answer and reject a planted wrong one. Run with
   `python3 perfbench/run.py selftest`; exits 0 when all pass. *)

open Pb_common

let results = ref []

(* [expect_fail] says whether the planted case must make a check fail. *)
let case name ~expect_fail f =
  let c = checks () in
  (match f c with
  | () -> ()
  | exception e -> check c ("raised " ^ Printexc.to_string e) false);
  let failed = c.failed > 0 in
  let ok = failed = expect_fail in
  Printf.printf "%-4s %s%s\n%!" (if ok then "ok" else "FAIL") name
    (if ok then "" else if expect_fail then " (wrong answer accepted)"
     else " (right answer rejected: " ^ String.concat "; " c.messages ^ ")");
  results := ok :: !results

let find name = Option.get (Workloads.find name)

let paper () =
  let mseed = 2 in
  let suite = Figures.run_suite ~seeds:[ mseed ] ~workloads:[ find "roms"; find "health" ] ~jobs:2 () in
  case "paper: suite checks accept the measured suite" ~expect_fail:false (fun c ->
      Pb_paper.check_suite c suite);
  let edit name kind f =
    {
      suite with
      Figures.data =
        List.map
          (fun (w, per) ->
            ( w,
              List.map
                (fun (k, ms) -> (k, if w = name && k = kind then List.map f ms else ms))
                per ))
          suite.Figures.data;
    }
  in
  let counters (m : Runner.measurement) g = { m with Runner.counters = g m.Runner.counters } in
  case "paper: an access count changed under one kind" ~expect_fail:true (fun c ->
      Pb_paper.check_suite c
        (edit "health" Runner.Halo (fun m ->
             counters m (fun k -> { k with Hierarchy.accesses = k.Hierarchy.accesses + 1 }))));
  case "paper: L3 misses above L2 misses" ~expect_fail:true (fun c ->
      Pb_paper.check_suite c
        (edit "health" Runner.Jemalloc (fun m ->
             counters m (fun k -> { k with Hierarchy.l3_misses = k.Hierarchy.l2_misses + 1 }))));
  let hds = Option.get (Pb_paper.measurement suite "roms" Runner.Hds) in
  case "paper: HALO worse than HDS on roms (claims 1 and 5)" ~expect_fail:true (fun c ->
      Pb_paper.check_suite c (edit "roms" Runner.Halo (fun m -> { hds with Runner.kind = m.Runner.kind })));
  let base = Option.get (Pb_paper.measurement suite "health" Runner.Jemalloc) in
  case "paper: HALO more than half a point below HDS on health (claim 1)" ~expect_fail:true
    (fun c ->
      Pb_paper.check_suite c
        (edit "health" Runner.Halo (fun m -> { base with Runner.kind = m.Runner.kind })));
  let w = find "health" in
  let cell = (w, w.Workload.make Workload.Test, w.Workload.make Workload.Ref) in
  let m = Option.get (Pb_paper.measurement suite "health" Runner.Jemalloc) in
  case "paper: reference LRU model reproduces health/jemalloc" ~expect_fail:false (fun c ->
      Pb_paper.ledger_cell c ~mseed cell Runner.Jemalloc m);
  case "paper: reference cache with the wrong associativity" ~expect_fail:true (fun c ->
      Pb_paper.ledger_cell
        ~reference:{ Pb_lru.xeon with Pb_lru.l1 = (32 * 1024, 2) }
        c ~mseed cell Runner.Jemalloc m);
  let mh = Option.get (Pb_paper.measurement suite "health" Runner.Halo) in
  case "paper: ledger of health/halo reproduces its counters" ~expect_fail:false (fun c ->
      Pb_paper.ledger_cell c ~mseed cell Runner.Halo mh);
  case "paper: ledger compared against another kind's cell" ~expect_fail:true (fun c ->
      Pb_paper.ledger_cell c ~mseed cell Runner.Halo m)

let serve ctx =
  let dir = fresh_dir ctx "serve" in
  let daemon, _ = Pb_serve.new_daemon ~jobs:1 dir in
  let st = { Pb_serve.stream = [||]; loads = [] } in
  let job id payload = { Serve_proto.id; payload } in
  let record w seed =
    Serve_proto.Profile_record { workload = w; seed; weight = 1.0; scale = Workload.Test }
  in
  let jobs =
    [ job 1 (record "ft" 7); job 2 (record "ft" 8); job 3 (Serve_proto.Plan_request { workload = "ft" }) ]
  in
  let responses = Serve.handle_batch daemon jobs in
  case "serve: round checks accept an in-order response stream" ~expect_fail:false (fun c ->
      Pb_serve.check_round c (Pb_serve.tally ()) st jobs responses);
  case "serve: responses out of submission order" ~expect_fail:true (fun c ->
      Pb_serve.check_round c (Pb_serve.tally ()) st jobs (List.rev responses));
  let answer = List.nth responses 2 in
  let compare c w inputs =
    let plan = Pb_serve.batch_plan ~tmp:(fresh_dir ctx "serve-batch") w inputs 2 in
    let g, m, n = Pb_serve.answer_of_plan plan in
    check c "serve: plan differs from batch path"
      (Pb_serve.int_field "groups" answer = g
      && Pb_serve.int_field "monitored_sites" answer = m
      && Pb_serve.int_field "graph_nodes" answer = n
      && Pb_serve.int_field "profiles" answer = 2)
  in
  case "serve: derived plan equals the batch path's" ~expect_fail:false (fun c ->
      compare c "ft" [ `Record (7, 1.0); `Record (8, 1.0) ]);
  case "serve: plan compared against another workload's batch plan" ~expect_fail:true (fun c ->
      compare c "health" [ `Record (7, 1.0); `Record (8, 1.0) ])

let fuzz () =
  let a = Fuzz_gen.generate ~ref_scale:3 ~seed:11 () in
  let b = Fuzz_gen.generate ~ref_scale:3 ~seed:12 () in
  case "fuzz: jemalloc and bump agree on a case" ~expect_fail:false (fun c ->
      Pb_fuzz.check_case c a);
  case "fuzz: bump side runs another case's program" ~expect_fail:true (fun c ->
      Pb_fuzz.check_case c ~against:b.Fuzz_gen.ref_ a);
  let s = Pb_fuzz.campaign ~jobs:1 ~seed_base:1 () in
  case "fuzz: campaign summary accepted" ~expect_fail:false (fun c ->
      Pb_fuzz.check_summary c s);
  case "fuzz: a campaign with an oracle violation" ~expect_fail:true (fun c ->
      Pb_fuzz.check_summary c { s with Fuzz_harness.violations = 1 })

let traffic () =
  let p = Pb_traffic.params ~drifts:[ 0.5 ] 5 in
  let lowered = Pb_traffic.lower p in
  let study = Traffic_study.run ~jobs:2 p in
  case "traffic: study checks accept the study" ~expect_fail:false (fun c ->
      Pb_traffic.check_study c p lowered study);
  let other =
    Traffic_mix.run
      ~config:{ p.Traffic_study.mix with Traffic_mix.reprofile_every = 1 }
      ~seed:6 (Pb_traffic.schedule p 0.5)
  in
  let planted =
    {
      study with
      Traffic_study.cells =
        List.map
          (fun (c : Traffic_study.cell) ->
            if c.Traffic_study.c_cadence = 1 then { c with Traffic_study.c_report = other }
            else c)
          study.Traffic_study.cells;
    }
  in
  case "traffic: a cell run at a different seed" ~expect_fail:true (fun c ->
      Pb_traffic.check_study c p lowered planted);
  case "traffic: stale baseline with a non-zero net-vs-stale" ~expect_fail:true (fun c ->
      Pb_traffic.check_study c p lowered
        {
          study with
          Traffic_study.cells =
            List.map
              (fun (c : Traffic_study.cell) ->
                if c.Traffic_study.c_cadence = 0 then { c with Traffic_study.c_net_speedup = 0.01 }
                else c)
              study.Traffic_study.cells;
        })

let run () =
  let ctx =
    {
      seed = 1;
      seconds = 0.0;
      traced = false;
      jobs = 2;
      work_dir = Filename.concat ".bench_build" (Printf.sprintf "selftest-%d" (Unix.getpid ()));
    }
  in
  Fun.protect
    ~finally:(fun () -> rm_rf ctx.work_dir)
    (fun () ->
      paper ();
      serve ctx;
      fuzz ();
      traffic ());
  let failed = List.length (List.filter not !results) in
  Printf.printf "%d/%d self-tests passed\n" (List.length !results - failed)
    (List.length !results);
  if failed = 0 then 0 else 1
