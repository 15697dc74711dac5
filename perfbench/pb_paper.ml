(* paper-suite: Figures.run_suite over the 11 registry workloads x
   {jemalloc, HALO, HDS, random-4} at one measurement seed, cold, with
   no plan cache — the computation behind Figures 13-15 and Table 1.
   One round is one whole suite; one operation is one cell. *)

open Pb_common

let kinds = Figures.suite_kinds

(* The pipeline configuration Runner gives a workload's HALO cells. *)
let halo_config (w : Workload.t) =
  let base = Pipeline.default_config in
  {
    base with
    Pipeline.grouping = w.Workload.halo_grouping base.Pipeline.grouping;
    allocator = w.Workload.halo_allocator base.Pipeline.allocator;
  }

let measurement (suite : Figures.suite) name kind =
  match Figures.runs_of suite name kind with
  | [ m ] -> Some m
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

let cpu2017 = [ "povray"; "omnetpp"; "xalanc"; "leela"; "roms" ]

(* Claim 1 says HALO "matches or beats" hot-data-streams. On the five
   CPU2017 workloads the two diverge (claim 2) and HALO's L1D reduction
   must be at least HDS's. On the six prior-work workloads they tie, and
   "matches" is read within half a percentage point: across measurement
   seeds HDS came out ahead on ft by 0.18-0.23 points, and equake ties
   to four digits. *)
let claim1_tolerance name = if List.mem name cpu2017 then 0.0 else 0.005

(* Properties the method must have, over every workload of a suite. *)
let check_suite checks (suite : Figures.suite) =
  let red ~(base : Runner.measurement) (m : Runner.measurement) =
    Runner.miss_reduction_vs ~baseline:base m
  in
  List.iter
    (fun (w : Workload.t) ->
      let name = w.Workload.name in
      let ms = List.map (fun k -> (k, measurement suite name k)) kinds in
      let present = List.filter_map snd ms in
      check checks (name ^ ": a cell is missing")
        (List.length present = List.length kinds);
      (* Placement cannot change a program's access stream. *)
      (match present with
      | m0 :: rest ->
          check checks (name ^ ": access counts differ across kinds")
            (List.for_all
               (fun (m : Runner.measurement) ->
                 m.Runner.counters.Hierarchy.accesses
                 = m0.Runner.counters.Hierarchy.accesses)
               rest)
      | [] -> ());
      List.iter
        (fun (m : Runner.measurement) ->
          let c = m.Runner.counters in
          check checks
            (Printf.sprintf "%s/%s: misses not L3 <= L2 <= L1D" name
               (Runner.kind_name m.Runner.kind))
            (c.Hierarchy.l3_misses <= c.Hierarchy.l2_misses
            && c.Hierarchy.l2_misses <= c.Hierarchy.l1_misses))
        present;
      match
        ( measurement suite name Runner.Jemalloc,
          measurement suite name Runner.Halo,
          measurement suite name Runner.Hds )
      with
      | Some base, Some halo, Some hds ->
          check checks
            (Printf.sprintf "%s: HALO's L1D reduction %.4f below HDS's %.4f"
               name (red ~base halo) (red ~base hds))
            (red ~base halo >= red ~base hds -. claim1_tolerance name);
          (* Claim 5: on roms HDS raises misses and HALO does not. *)
          if name = "roms" then
            check checks "roms: HDS does not raise misses or HALO does"
              (red ~base hds < 0.0 && red ~base halo >= 0.0)
      | _ -> ())
    suite.Figures.workloads

(* ------------------------------------------------------------------ *)
(* Ledger cells                                                        *)
(* ------------------------------------------------------------------ *)

(* Build one cell's allocator the way Runner does, with every group
   classification logged, plus a function that builds a fresh copy replaying
   those classifications. *)
let cell_alloc ?group ~(w : Workload.t) ~kind ~mseed test_program =
  let decisions = Pb_ledger.Vec.create () in
  let grouped ~config classify =
    let vmem = Vmem.create () in
    let fallback = Jemalloc_sim.create vmem in
    Group_alloc.iface
      (Group_alloc.create ~config
         ~classify:(Pb_ledger.logged_classify decisions classify)
         ~fallback vmem)
  in
  let fresh_grouped ~config () =
    let vmem = Vmem.create () in
    let fallback = Jemalloc_sim.create vmem in
    Group_alloc.iface
      (Group_alloc.create ~config
         ~classify:(Pb_ledger.replayed_classify decisions)
         ~fallback vmem)
  in
  let alloc_cfg = w.Workload.halo_allocator Group_alloc.default_config in
  match kind with
  | Runner.Random_pools pools ->
      let rng = Rng.create ~seed:(mseed * 7919) in
      ( grouped ~config:alloc_cfg (fun ~size:_ -> Some (Rng.int rng pools)),
        [],
        None,
        fresh_grouped ~config:alloc_cfg )
  | Runner.Halo ->
      let config = halo_config w in
      let profile =
        Pb_layers.program_probe ?group ~config:config.Pipeline.profiler
          test_program
      in
      let plan =
        Pb_layers.time "core.derive" (fun () -> Pipeline.derive ~config profile)
      in
      let rt =
        Pb_layers.time "core.instantiate" (fun () ->
            let vmem = Vmem.create () in
            Pipeline.instantiate plan ~fallback:(Jemalloc_sim.create vmem) vmem)
      in
      let env = rt.Pipeline.env in
      let classify ~size:_ =
        Rewrite.classify plan.Pipeline.rewrite env.Exec_env.group_state
      in
      let config = plan.Pipeline.config.Pipeline.allocator in
      ( grouped ~config classify,
        rt.Pipeline.patches,
        Some env,
        fresh_grouped ~config )
  | Runner.Hds ->
      let hplan =
        Pb_layers.time "hds.plan" (fun () ->
            Hds_pipeline.plan ~config:Hds_pipeline.default_config test_program)
      in
      let env = Exec_env.create () in
      ( grouped ~config:alloc_cfg (Hds_pipeline.classifier hplan ~env),
        [],
        Some env,
        fresh_grouped ~config:alloc_cfg )
  | _ ->
      let fresh () = Jemalloc_sim.create (Vmem.create ()) in
      (fresh (), [], None, fresh)

(* Record one measured cell, replay it into every layer, and check the
   replays against the suite's measurement of that cell: the recorded
   stream must give the same hierarchy counters, and the reference LRU
   model in pb_lru.ml must count exactly the same misses. *)
let ledger_cell ?(reference = Pb_lru.xeon) ?group checks ~mseed
    (w, test, ref_) kind (m : Runner.measurement) =
  let label = w.Workload.name ^ "/" ^ Runner.kind_name kind in
  let alloc, patches, env, fresh_alloc = cell_alloc ?group ~w ~kind ~mseed test in
  let r, counters, same =
    Pb_layers.ledger_cell ?group ~seed:mseed ~patches ?env ~program:ref_ ~alloc
      ~fresh_alloc ()
  in
  check checks (label ^ ": allocator replay diverged") same;
  check checks (label ^ ": ledger stream gives other counters")
    (counters = m.Runner.counters);
  let l1, l2, l3, tlb = Pb_ledger.replay_reference ~config:reference r.Pb_ledger.stream in
  let c = m.Runner.counters in
  check checks (label ^ ": reference LRU model disagrees")
    (l1 = c.Hierarchy.l1_misses && l2 = c.Hierarchy.l2_misses
    && l3 = c.Hierarchy.l3_misses && tlb = c.Hierarchy.tlb_misses)

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let cells_per_suite = List.length Workloads.all * List.length kinds

(* The suite's inputs: every workload's program at both scales, built
   once. The suite's cells get them through [make], so the timed phase
   generates no program. *)
let prepare () =
  List.map
    (fun (w : Workload.t) ->
      let test = w.Workload.make Workload.Test in
      let ref_ = w.Workload.make Workload.Ref in
      let make = function
        | Workload.Test -> test
        | Workload.Ref -> ref_
        | scale -> w.Workload.make scale
      in
      { w with Workload.make })
    Workloads.all

let measure_suite ?obs ~workloads ~jobs mseed =
  Figures.run_suite ~seeds:[ mseed ] ~workloads ?obs ~jobs ()

let run ctx =
  let checks = checks () in
  let mseed = 2 + pick ctx ~label:"measure" 1000 in
  let workloads, setup_s = timed_setup ~reps:2000 prepare in
  let last = ref None in
  let round ~obs ~checks i =
    let s =
      fst
        (span_on obs ~group:i "experiments.run_suite" (fun () ->
             measure_suite ?obs ~workloads ~jobs:ctx.jobs mseed))
    in
    check_suite checks s;
    last := Some s;
    cells_per_suite
  in
  let timed = timed_rounds ctx (round ~obs:!obs ~checks) in
  let suite = Option.get !last in
  (* The reference-model check on one seed-chosen cell, every run. *)
  let all =
    Array.of_list
      (List.map
         (fun (w : Workload.t) ->
           (w, w.Workload.make Workload.Test, w.Workload.make Workload.Ref))
         workloads)
  in
  let kinds_a = Array.of_list kinds in
  let ((w, _, _) as ref_cell) =
    all.(pick ctx ~label:"ref-cell-workload" (Array.length all))
  in
  let kind = kinds_a.(pick ctx ~label:"ref-cell-kind" (Array.length kinds_a)) in
  (match measurement suite w.Workload.name kind with
  | Some m -> ledger_cell checks ~mseed ref_cell kind m
  | None -> check checks "reference cell missing" false);
  let geo f =
    geomean
      (List.filter_map
         (fun (w : Workload.t) ->
           match
             ( measurement suite w.Workload.name Runner.Jemalloc,
               measurement suite w.Workload.name Runner.Halo )
           with
           | Some b, Some h -> Some (f b h)
           | _ -> None)
         Workloads.all)
  in
  let speedup = geo (fun b h -> b.Runner.cycles /. h.Runner.cycles) in
  let l1_ratio =
    geo (fun b h ->
        float_of_int b.Runner.counters.Hierarchy.l1_misses
        /. float_of_int h.Runner.counters.Hierarchy.l1_misses)
  in
  let notes =
    [
      ("measurement seed", string_of_int mseed);
      ("halo_speedup_geomean", Printf.sprintf "%.4f ratio" speedup);
      ("halo_l1d_miss_ratio_geomean", Printf.sprintf "%.4f ratio" l1_ratio);
      ("reference cell", w.Workload.name ^ "/" ^ Runner.kind_name kind);
    ]
  in
  let metrics =
    if not ctx.traced then end_to_end ~setup_s timed
    else begin
      Pb_layers.overhead ~round timed;
      Pb_layers.set "experiments.halo_speedup_geomean" speedup;
      Pb_layers.set "experiments.halo_l1d_miss_ratio_geomean" l1_ratio;
      (* Runner.run's own span around each cell. *)
      Pb_layers.set "experiments.cell_s" (median (Pb_layers.span_durations "run"));
      let cells = List.concat_map (fun (_, per) -> List.concat_map snd per) suite.Figures.data in
      let accesses =
        List.fold_left (fun a (m : Runner.measurement) -> a + m.Runner.counters.Hierarchy.accesses) 0 cells
      in
      Pb_layers.set "vm.events" (float_of_int accesses);
      Pb_layers.set "cachesim.accesses" (float_of_int accesses);
      let hds_lengths =
        List.filter_map
          (fun (m : Runner.measurement) ->
            Option.map (fun h -> float_of_int h.Runner.trace_length) m.Runner.hds)
          cells
      in
      Pb_layers.set "hds.trace_length" (median hds_lengths);
      (* The ledger: every cell of two seed-chosen workloads. *)
      let i = pick ctx ~label:"ledger" (Array.length all) in
      let ledger_ws = [ all.(i); all.((i + 5) mod Array.length all) ] in
      let group = ref 0 in
      List.iter
        (fun ((w, _, ref_) as cell) ->
          ignore (Pb_layers.bare_probe ~seed:mseed ref_ : int);
          List.iter
            (fun kind ->
              incr group;
              match measurement suite w.Workload.name kind with
              | Some m ->
                  ignore
                    (span ~group:!group "ledger.cell" (fun () ->
                         ledger_cell checks ~group:!group ~mseed cell kind m))
              | None -> ())
            kinds)
        ledger_ws;
      (* Parallel speedup over the ledger workloads' cells. *)
      let workloads = List.map (fun (w, _, _) -> w) ledger_ws in
      let wall jobs = snd (span "par.probe" (fun () -> measure_suite ~workloads ~jobs mseed)) in
      let w1 = wall 1 in
      Pb_layers.set "par.speedup" (w1 /. wall ctx.jobs);
      Pb_layers.metrics ()
    end
  in
  outcome ~checks ~timed ~metrics ~notes
