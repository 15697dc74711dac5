(* Per-layer metrics of the traced run. Every traced run reports the
   whole list; a layer that a workload never calls reads 0 there. *)

let spec =
  [
    ("vm.events", "count");
    ("vm.compile_ms", "ms");
    ("vm.ns_per_event", "ns");
    ("cachesim.accesses", "count");
    ("cachesim.ns_per_access", "ns");
    ("cachesim.tlb_ns_per_access", "ns");
    ("cachesim.same_line_share", "ratio");
    ("alloc.calls", "count");
    ("alloc.ns_per_call", "ns");
    ("profile.calls", "count");
    ("profile.busy_s", "s");
    ("profile.ns_per_event", "ns");
    ("profile.heap_find_ns", "ns");
    ("profile.affinity_ns_per_access", "ns");
    ("profile.graph_edges", "count");
    ("core.derive_ms", "ms");
    ("core.derive_calls", "count");
    ("core.instantiate_ms", "ms");
    ("hds.plan_ms", "ms");
    ("hds.trace_length", "count");
    ("store.encode_mb_per_s", "MB/s");
    ("store.decode_mb_per_s", "MB/s");
    ("store.merge_ms", "ms");
    ("store.artifact_bytes", "bytes");
    ("store.cache_hit_share", "ratio");
    ("serve.batch_ms", "ms");
    ("serve.plan_memo_share", "ratio");
    ("serve.profile_runs_per_record", "ratio");
    ("serve.record_p50_ms", "ms");
    ("serve.record_p95_ms", "ms");
    ("fuzz.gen_ms", "ms");
    ("fuzz.oracle_ms", "ms");
    ("fuzz.oracle_p99_ms", "ms");
    ("par.speedup", "ratio");
    ("traffic.lower_ms", "ms");
    ("traffic.cell_s", "s");
    ("traffic.replans", "count");
    ("experiments.cell_s", "s");
    ("experiments.halo_speedup_geomean", "ratio");
    ("experiments.halo_l1d_miss_ratio_geomean", "ratio");
    ("trace.overhead_s", "s");
    ("trace.spans", "count");
  ]

let tbl : (string, float) Hashtbl.t = Hashtbl.create 64

let get k = Option.value (Hashtbl.find_opt tbl k) ~default:0.0
let set k v = Hashtbl.replace tbl k v
let add k v = set k (get k +. v)
let addi k v = add k (float_of_int v)

(* Accumulate a timed call of a layer: "<key>.s" and "<key>.n". *)
let time key f =
  let v, secs = Pb_common.span key f in
  add (key ^ ".s") secs;
  add (key ^ ".n") 1.0;
  v

(* Every span of the traced run so far, the libraries' included. *)
let spans () = match !Pb_common.obs with Some o -> Obs.spans o | None -> []

let span_durations name =
  List.filter_map
    (fun (s : Obs.span) -> if s.Obs.name = name then Some s.Obs.dur_s else None)
    (spans ())

(* trace.overhead_s: the median of the traced rounds minus the median of
   as many untraced rounds of the same work, run after them in the same
   process. The untraced rounds' checks are discarded, so they do not
   count as operations. *)
let overhead ~round (timed : Pb_common.timed) =
  let untraced =
    List.mapi
      (fun i _ ->
        let t0 = Pb_common.now () in
        ignore (round ~obs:None ~checks:(Pb_common.checks ()) i : int);
        Pb_common.now () -. t0)
      timed.Pb_common.rounds
  in
  set "trace.overhead_s"
    (Pb_common.median (Pb_common.walls timed) -. Pb_common.median untraced)

let per k_num k_den scale =
  let d = get k_den in
  if d > 0.0 then get k_num /. d *. scale else 0.0

(* ------------------------------------------------------------------ *)
(* Ledger cells                                                        *)
(* ------------------------------------------------------------------ *)

(* Record one cell and replay its streams into each layer, then drop
   them. [fresh_alloc] builds the cell's allocator again for the
   allocator replay, answering classifications from the recording.
   Returns the hierarchy counters of the replayed stream. *)
let ledger_cell ?group ?seed ?patches ?env ~program ~alloc ~fresh_alloc () =
  let r = Pb_ledger.record ?group ?seed ?patches ?env ~program ~alloc () in
  let s = r.Pb_ledger.stream in
  let n = Pb_ledger.accesses s in
  add "lg.compile.s" r.Pb_ledger.compile_s;
  add "lg.compile.n" 1.0;
  let counters, hier_s = Pb_ledger.replay_hierarchy ?group s in
  addi "lg.accesses" n;
  add "lg.hier.s" hier_s;
  add "lg.tlb.s" (Pb_ledger.replay_tlb ?group s);
  add "lg.same_line" (Pb_ledger.same_line_share s *. float_of_int n);
  let alloc_s, same = Pb_ledger.replay_alloc ?group s (fresh_alloc ()) in
  addi "lg.alloc.n" (Pb_ledger.calls s);
  add "lg.alloc.s" alloc_s;
  let find_s, aff_s, edges = Pb_ledger.replay_profile ?group s in
  add "lg.find.s" find_s;
  add "lg.aff.s" aff_s;
  addi "lg.edges" edges;
  (r, counters, same)

(* A program's bare run plus its profiling run: the interpreter's and
   the profiler's cost per event of the same execution. *)
let bare_probe ?group ~seed program =
  let compile_s, run_s, events = Pb_ledger.bare_run ?group ~seed program in
  add "lg.compile.s" compile_s;
  add "lg.compile.n" 1.0;
  add "lg.bare.s" run_s;
  addi "lg.bare.events" events;
  events

let program_probe ?group ?(config = Profiler.default_config) program =
  let events = bare_probe ?group ~seed:config.Profiler.seed program in
  let result =
    time "profile.profile" (fun () -> Profiler.profile ~config program)
  in
  addi "lg.prof.events" events;
  result

(* The derived metrics, in [spec] order. Metrics a workload set directly
   win over the ledger's. *)
let metrics () =
  let derived =
    [
      ("vm.compile_ms", per "lg.compile.s" "lg.compile.n" 1e3);
      ("vm.ns_per_event", per "lg.bare.s" "lg.bare.events" 1e9);
      ("cachesim.ns_per_access", per "lg.hier.s" "lg.accesses" 1e9);
      ("cachesim.tlb_ns_per_access", per "lg.tlb.s" "lg.accesses" 1e9);
      ("cachesim.same_line_share", per "lg.same_line" "lg.accesses" 1.0);
      ("alloc.calls", get "lg.alloc.n");
      ("alloc.ns_per_call", per "lg.alloc.s" "lg.alloc.n" 1e9);
      ("profile.calls", get "profile.profile.n");
      ("profile.busy_s", get "profile.profile.s");
      ("profile.ns_per_event", per "profile.profile.s" "lg.prof.events" 1e9);
      ("profile.heap_find_ns", per "lg.find.s" "lg.accesses" 1e9);
      ("profile.affinity_ns_per_access", per "lg.aff.s" "lg.accesses" 1e9);
      ("profile.graph_edges", get "lg.edges");
      ("core.derive_ms", per "core.derive.s" "core.derive.n" 1e3);
      ("core.derive_calls", get "core.derive.n");
      ("core.instantiate_ms", per "core.instantiate.s" "core.instantiate.n" 1e3);
      ("hds.plan_ms", per "hds.plan.s" "hds.plan.n" 1e3);
      ("store.merge_ms", per "store.merge.s" "store.merge.n" 1e3);
      ("trace.spans", float_of_int (List.length (spans ())));
    ]
  in
  List.map
    (fun (name, unit_) ->
      let value =
        match Hashtbl.find_opt tbl name with
        | Some v -> v
        | None -> Option.value (List.assoc_opt name derived) ~default:0.0
      in
      Pb_common.m name unit_ value)
    spec
