(* traffic-drift: Traffic_study on the reduced grid `figures drift`
   uses — drifts 0 / 0.5 / 1 x re-profile cadences never / 1 / 2, over
   4 epochs at 3 jobs per tick. All tenants share one heap and one
   hierarchy; live plans are re-instantiated at every re-plan. One round
   is the whole study; one operation is one grid cell. *)

open Pb_common

let drifts = [ 0.0; 0.5; 1.0 ]

let params ?(drifts = drifts) seed =
  {
    Traffic_study.default_params with
    Traffic_study.drifts;
    cadences = [ 0; 1; 2 ];
    phases = 4;
    rate = 3.0;
    seed;
  }

let schedule (p : Traffic_study.params) drift =
  Schedule.drifting ~ticks_per_phase:p.Traffic_study.ticks_per_phase
    ~rate:p.Traffic_study.rate ~phases:p.Traffic_study.phases ~drift ()

(* The lowered job stream of each drift, built once. *)
let lower (p : Traffic_study.params) =
  List.map
    (fun d ->
      let events = Schedule.events ~seed:p.Traffic_study.seed (schedule p d) in
      (d, (Schedule.digest events, List.length events)))
    p.Traffic_study.drifts

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

let check_study checks (p : Traffic_study.params) lowered (study : Traffic_study.t) =
  let expected_jobs =
    int_of_float p.Traffic_study.rate * p.Traffic_study.ticks_per_phase
    * p.Traffic_study.phases
  in
  check checks "traffic: grid size"
    (List.length study.Traffic_study.cells
    = List.length p.Traffic_study.drifts * List.length p.Traffic_study.cadences);
  List.iter
    (fun (drift, (digest, njobs)) ->
      let cells =
        List.filter (fun c -> c.Traffic_study.c_drift = drift) study.Traffic_study.cells
      in
      let label = Printf.sprintf "traffic: drift %g" drift in
      check checks (label ^ ": job count is not rate x ticks x phases")
        (njobs = expected_jobs);
      List.iter
        (fun (c : Traffic_study.cell) ->
          let r = c.Traffic_study.c_report in
          (* Re-profiling cadence cannot change the traffic itself. *)
          check checks (label ^ ": schedule digest differs across cadences")
            (r.Traffic_mix.schedule_digest = digest);
          check checks (label ^ ": job count differs across cadences")
            (r.Traffic_mix.jobs = njobs);
          check checks (label ^ ": access count differs across cadences")
            (r.Traffic_mix.counters.Hierarchy.accesses
            = (List.hd cells).Traffic_study.c_report.Traffic_mix.counters
                .Hierarchy.accesses);
          if c.Traffic_study.c_cadence = 0 then
            check checks (label ^ ": stale baseline's net-vs-stale is not 0")
              (c.Traffic_study.c_net_speedup = 0.0))
        cells)
    lowered

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let run ctx =
  let checks = checks () in
  let p = params (sub_seed ctx ~label:"traffic") in
  (* The study lowers its own schedules from its parameters, so the
     benchmark's set-up is what its output check compares against: each
     drift's lowered job stream, digested. *)
  let lowered, setup_s = timed_setup ~reps:2000 (fun () -> lower p) in
  let study ?obs ?(p = p) jobs = Traffic_study.run ?obs ~jobs p in
  let last = ref None in
  let round ~obs ~checks i =
    let s, _ = span_on obs ~group:i "traffic.study" (fun () -> study ?obs ctx.jobs) in
    check_study checks p lowered s;
    last := Some s;
    List.length s.Traffic_study.cells
  in
  let timed = timed_rounds ctx (round ~obs:!obs ~checks) in
  let study_r = Option.get !last in
  let notes = [ ("traffic seed", string_of_int p.Traffic_study.seed) ] in
  let metrics =
    if not ctx.traced then end_to_end ~setup_s timed
    else begin
      Pb_layers.overhead ~round timed;
      let reports = List.map (fun c -> c.Traffic_study.c_report) study_r.Traffic_study.cells in
      let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 reports) in
      let accesses = sum (fun r -> r.Traffic_mix.counters.Hierarchy.accesses) in
      Pb_layers.set "cachesim.accesses" accesses;
      Pb_layers.set "vm.events" accesses;
      Pb_layers.set "traffic.replans" (sum (fun r -> r.Traffic_mix.replans));
      let lower_times =
        List.map
          (fun d ->
            snd
              (span "traffic.lower" (fun () ->
                   Schedule.events ~seed:p.Traffic_study.seed (schedule p d))))
          p.Traffic_study.drifts
      in
      Pb_layers.set "traffic.lower_ms" (median lower_times *. 1e3);
      (* Traffic_mix.run's own span around each grid cell. *)
      Pb_layers.set "traffic.cell_s" (median (Pb_layers.span_durations "traffic.run"));
      (* Ledger over one seed-chosen tenant workload's job program. *)
      let all = Array.of_list Workloads.all in
      let w = all.(pick ctx ~label:"ledger" (Array.length all)) in
      let config = Pb_paper.halo_config w in
      let program = w.Workload.make Workload.Test in
      ignore
        (span ~group:0 "ledger.job" (fun () ->
             let profile =
               Pb_layers.program_probe ~config:config.Pipeline.profiler program
             in
             let plan =
               Pb_layers.time "core.derive" (fun () -> Pipeline.derive ~config profile)
             in
             ignore
               (Pb_layers.time "core.instantiate" (fun () ->
                    let vmem = Vmem.create () in
                    Pipeline.instantiate plan ~fallback:(Jemalloc_sim.create vmem) vmem)
                 : Pipeline.runtime);
             let fresh () = Jemalloc_sim.create (Vmem.create ()) in
             ignore
               (Pb_layers.ledger_cell ~program ~alloc:(fresh ()) ~fresh_alloc:fresh ())));
      Pb_layers.set "profile.calls"
        (sum (fun r -> r.Traffic_mix.profile_runs) +. Pb_layers.get "profile.profile.n");
      (* Parallel speedup on one seed-chosen drift row, untraced on both
         sides. *)
      let d = List.nth drifts (pick ctx ~label:"cell" (List.length drifts)) in
      let row = params ~drifts:[ d ] p.Traffic_study.seed in
      let wall jobs = snd (span "par.probe" (fun () -> study ~p:row jobs)) in
      let w1 = wall 1 in
      Pb_layers.set "par.speedup" (w1 /. wall ctx.jobs);
      Pb_layers.metrics ()
    end
  in
  outcome ~checks ~timed ~metrics ~notes
