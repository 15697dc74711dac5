(* fuzz-campaign: Fuzz_harness.run over consecutive seeds at ref-scale
   3 and nproc domains. One round is a campaign of [seeds_per_round]
   seeds; one operation is one case. Each case is a tiny generated
   program, so per-program fixed costs dominate. *)

open Pb_common

let seeds_per_round = 300
let ref_scale = 3
let sample = 8

let campaign ?obs ~jobs ~seed_base () =
  Fuzz_harness.run
    {
      Fuzz_harness.default with
      Fuzz_harness.seeds = seeds_per_round;
      seed_base;
      ref_scale;
      jobs;
      obs;
    }

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

let check_summary checks (s : Fuzz_harness.summary) =
  check checks "fuzz: cases reported differ from seeds swept"
    (s.Fuzz_harness.cases = seeds_per_round);
  check checks "fuzz: oracle violations" (s.Fuzz_harness.violations = 0)

(* Run a program under an allocator with the benchmark's own hooks:
   return value (or the crash) and the number of accesses. *)
let observe program alloc =
  let accesses = ref 0 in
  let hooks =
    { Interp.no_hooks with Interp.on_access = (fun _ _ _ -> incr accesses) }
  in
  let ret =
    match Interp.run (Interp.create ~hooks ~program ~alloc ()) with
    | v -> Ok v
    | exception e -> Error (Printexc.to_string e)
  in
  (ret, !accesses)

(* Placement must not change what a program computes or touches: the
   case's ref_ program under jemalloc and under bump. [against] replaces
   the bump side's program (the self-test plants another case there). *)
let check_case checks ?against (case : Fuzz_gen.case) =
  let prog = case.Fuzz_gen.ref_ in
  let r1, a1 = observe prog (Jemalloc_sim.create (Vmem.create ())) in
  let r2, a2 =
    observe (Option.value against ~default:prog) (Bump.create (Vmem.create ()))
  in
  check checks
    (Printf.sprintf "fuzz: seed %d differs between jemalloc and bump" case.Fuzz_gen.seed)
    (r1 = r2 && a1 = a2)

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let run ctx =
  let checks = checks () in
  let base = sub_seed ctx ~label:"campaign" * 1000 in
  (* The campaign generates its own cases from its seeds, so the
     benchmark's set-up is what its output check draws from: round 0's
     cases, generated the way the campaign generates them. All of them,
     not only the sampled ones, so that set-up does about the same work
     at every seed. *)
  let round0, setup_s =
    timed_setup ~reps:20 (fun () ->
        Array.init seeds_per_round (fun k ->
            Fuzz_gen.generate ~ref_scale ~seed:(base + k) ()))
  in
  let sample_cases =
    List.init sample (fun k ->
        round0.(pick ctx ~label:(Printf.sprintf "sample%d" k) seeds_per_round))
  in
  let accesses = ref 0 in
  let round ~obs ~checks i =
    let s, _ =
      span_on obs ~group:i "fuzz.campaign" (fun () ->
          campaign ?obs ~jobs:ctx.jobs ~seed_base:(base + (i * seeds_per_round)) ())
    in
    check_summary checks s;
    accesses := !accesses + s.Fuzz_harness.accesses;
    s.Fuzz_harness.cases
  in
  let timed = timed_rounds ctx (round ~obs:!obs ~checks) in
  let traced_accesses = !accesses in
  List.iter (check_case checks) sample_cases;
  let notes =
    [
      ("seed base", string_of_int base);
      ("rounds", string_of_int (List.length timed.rounds));
    ]
  in
  let metrics =
    if not ctx.traced then end_to_end ~setup_s timed
    else begin
      Pb_layers.overhead ~round timed;
      Pb_layers.set "vm.events" (float_of_int traced_accesses);
      let gen =
        List.init 200 (fun k ->
            snd
              (span "fuzz.generate" (fun () ->
                   Fuzz_gen.generate ~ref_scale ~seed:(base + k) ())))
      in
      Pb_layers.set "fuzz.gen_ms" (median gen *. 1e3);
      let oracle =
        List.init 1000 (fun k ->
            let case = Fuzz_gen.generate ~ref_scale ~seed:(base + k) () in
            snd
              (span ~group:k "fuzz.oracle" (fun () ->
                   Fuzz_oracle.run_case ~traced_config:true case)))
      in
      Pb_layers.set "fuzz.oracle_ms" (median oracle *. 1e3);
      Option.iter
        (fun p -> Pb_layers.set "fuzz.oracle_p99_ms" (percentile oracle (Float.min p 0.99) *. 1e3))
        (tail_rank (List.length oracle));
      (* Ledger over the sampled cases. *)
      List.iteri
        (fun k (case : Fuzz_gen.case) ->
          ignore
            (span ~group:k "ledger.case" (fun () ->
                 let profile = Pb_layers.program_probe case.Fuzz_gen.test in
                 let plan =
                   Pb_layers.time "core.derive" (fun () -> Pipeline.derive profile)
                 in
                 ignore
                   (Pb_layers.time "core.instantiate" (fun () ->
                        let vmem = Vmem.create () in
                        Pipeline.instantiate plan ~fallback:(Jemalloc_sim.create vmem) vmem)
                     : Pipeline.runtime);
                 let fresh () = Jemalloc_sim.create (Vmem.create ()) in
                 ignore
                   (Pb_layers.ledger_cell ~program:case.Fuzz_gen.ref_ ~alloc:(fresh ())
                      ~fresh_alloc:fresh ()))))
        sample_cases;
      List.iter
        (fun k -> Pb_layers.set k 0.0)
        [
          "cachesim.accesses"; "cachesim.ns_per_access";
          "cachesim.tlb_ns_per_access"; "cachesim.same_line_share";
        ];
      (* Parallel speedup over round 0's seeds, untraced on both sides. *)
      let wall jobs =
        snd (span "par.probe" (fun () -> campaign ~jobs ~seed_base:base ()))
      in
      let w1 = wall 1 in
      Pb_layers.set "par.speedup" (w1 /. wall ctx.jobs);
      Pb_layers.metrics ()
    end
  in
  outcome ~checks ~timed ~metrics ~notes
