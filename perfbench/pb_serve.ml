(* serve-fleet: a Serve_sim-shaped fleet (quadratic-skew popularity,
   drift 0.25, record probability 0.02, 1000 clients) replayed round by
   round through Serve.handle_batch against a fresh plan cache, as a
   closed loop: one round's batch is in flight at a time. Every round
   also carries four profile-load jobs: two intact v2 artifacts written
   during set-up, and two copies of them whose header program digest
   has one hex digit changed. One benchmark round is one whole fleet of
   [fleet_rounds] rounds from a fresh daemon and cache, so every round
   does the same work; one operation is one job. *)

open Pb_common

let clients = 1000
let fleet_rounds = 12
let load_weight = 1.0

(* The workloads whose recorded artifacts are loaded. They are fixed so
   that set-up records the same programs in every run (the seed sets
   their input seeds); drawn per seed, set-up time varied by half
   between seeds with the profiled programs. *)
let load_workloads = [ "health"; "omnetpp" ]

type load = { l_path : string; l_workload : string; l_intact : bool }

type state = { stream : Serve_proto.job list array; loads : load list }

(* One fleet's daemon, with its plan cache under [dir]. *)
type pass = { daemon : Serve.t; cache : Plan_cache.t; dir : string }

(* The fleet's shape — which workload each job names and which jobs are
   profile uploads — is Serve_sim's stream at its default seed, the
   same for every run; the run's seed reaches the fleet through the
   input seed of every profile-record job (see [reseed]). A shape drawn
   per seed would move the number of profiled programs per round, and
   with it every timing, by more than the gate could resolve. *)
let fleet_config =
  { Serve_sim.default_config with Serve_sim.clients; rounds = fleet_rounds }

let reseed ctx stream =
  let rng = Rng.split ~label:"record-seeds" (Rng.create ~seed:ctx.seed) in
  List.map
    (List.map (fun (j : Serve_proto.job) ->
         match j.Serve_proto.payload with
         | Serve_proto.Profile_record r ->
             {
               j with
               Serve_proto.payload =
                 Serve_proto.Profile_record { r with seed = 1 + Rng.int rng 1_000_000 };
             }
         | _ -> j))
    stream

let new_daemon ?obs ~jobs dir =
  let cache = Plan_cache.create (Filename.concat dir "cache") in
  (Serve.create ?obs { Serve.default_config with Serve.jobs; cache = Some cache }, cache)

(* The pipeline configuration the daemon resolves a workload to. *)
let workload_config name =
  Pb_paper.halo_config (Option.get (Workloads.find name))

(* A v2 profile artifact of one workload's test-scale program, written
   the way [halo profile record] writes one. *)
let write_artifact ~path ~workload ~seed =
  let config = { (workload_config workload).Pipeline.profiler with Profiler.seed } in
  let program = (Option.get (Workloads.find workload)).Workload.make Workload.Test in
  let result = Profiler.profile ~config program in
  match
    Store.write_profile ~format:Store.V2 ~created:0.0
      ~extra_meta:[ ("workload", Json.String workload) ]
      ~path ~program_digest:(Ir_digest.program program) ~config result
  with
  | Ok () -> ()
  | Error e -> failwith (Store.error_to_string e)

(* Flip the first hex digit of the header's program digest. *)
let corrupt_copy ~src ~dst ~digest =
  let s = file_bytes src in
  let rec find i =
    if i + String.length digest > String.length s then failwith "digest not in header"
    else if String.sub s i (String.length digest) = digest then i
    else find (i + 1)
  in
  let bytes = Bytes.of_string s in
  let i = find 0 in
  Bytes.set bytes i (if s.[i] = '0' then '1' else '0');
  write_bytes dst (Bytes.to_string bytes)

let setup ctx dir =
  let stream = Array.of_list (reseed ctx (Serve_sim.job_stream fleet_config)) in
  let loads =
    List.concat_map
      (fun (k, w) ->
        let path = Filename.concat dir (Printf.sprintf "load%d.profile.bin" k) in
        write_artifact ~path ~workload:w ~seed:(sub_seed ctx ~label:("load" ^ w));
        let program = (Option.get (Workloads.find w)).Workload.make Workload.Test in
        let bad = Filename.concat dir (Printf.sprintf "load%d-bad.profile.bin" k) in
        corrupt_copy ~src:path ~dst:bad ~digest:(Ir_digest.program program);
        [
          { l_path = path; l_workload = w; l_intact = true };
          { l_path = bad; l_workload = w; l_intact = false };
        ])
      (List.mapi (fun k w -> (k, w)) load_workloads)
  in
  { stream; loads }

let load_id = 1_000_000_000

(* Round [i]'s batch: the fleet's jobs, then the four loads. *)
let batch st i =
  let jobs = st.stream.(i) in
  jobs
  @ List.mapi
      (fun k l ->
        {
          Serve_proto.id = load_id + (i * 10) + k;
          payload = Serve_proto.Profile_load { path = l.l_path; weight = load_weight };
        })
      st.loads

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

type answer = {
  a_source : string;
  a_profiles : int;
  a_groups : int;
  a_monitored : int;
  a_nodes : int;
}

type tally = {
  mutable records_ok : int;
  mutable requests_ok : int;
  mutable records_sent : int;
  mutable requests_sent : int;
  mutable memo : int;
  mutable derived : int;  (** plans the daemon derived *)
  answers : (string, answer list) Hashtbl.t;  (** per workload, newest first *)
}

let tally () =
  {
    records_ok = 0;
    requests_ok = 0;
    records_sent = 0;
    requests_sent = 0;
    memo = 0;
    derived = 0;
    answers = Hashtbl.create 16;
  }

let int_field k r = match Json.get_int k r with Ok v -> v | Error _ -> -1
let str_field k r = match Json.get_string k r with Ok v -> v | Error _ -> ""
let is_ok r = Json.get_bool "ok" r = Ok true

(* Check one round's responses and count the known fault. *)
let check_round checks tl st (jobs : Serve_proto.job list) responses =
  check checks "serve: one response per job"
    (List.length responses = List.length jobs);
  if List.length responses = List.length jobs then
    List.iter2
      (fun (j : Serve_proto.job) r ->
        check checks "serve: responses out of submission order"
          (int_field "id" r = j.Serve_proto.id);
        match j.Serve_proto.payload with
        | Serve_proto.Profile_record _ ->
            tl.records_sent <- tl.records_sent + 1;
            check checks "serve: profile-record failed" (is_ok r);
            if is_ok r then tl.records_ok <- tl.records_ok + 1
        | Serve_proto.Plan_request { workload } ->
            tl.requests_sent <- tl.requests_sent + 1;
            check checks "serve: plan-request failed" (is_ok r);
            if is_ok r then begin
              tl.requests_ok <- tl.requests_ok + 1;
              let a =
                {
                  a_source = str_field "source" r;
                  a_profiles = int_field "profiles" r;
                  a_groups = int_field "groups" r;
                  a_monitored = int_field "monitored_sites" r;
                  a_nodes = int_field "graph_nodes" r;
                }
              in
              if a.a_source = "memory" then tl.memo <- tl.memo + 1;
              if a.a_source = "aggregate" || a.a_source = "profiled" then
                tl.derived <- tl.derived + 1;
              Hashtbl.replace tl.answers workload
                (a :: Option.value (Hashtbl.find_opt tl.answers workload) ~default:[])
            end
        | Serve_proto.Profile_load { path; _ } ->
            let l = List.find (fun l -> l.l_path = path) st.loads in
            if l.l_intact then check checks "serve: intact profile-load failed" (is_ok r)
            else if is_ok r then
              (* Named fault: neither store codec's checksum covers the
                 header, so a corrupted program digest is accepted. *)
              known_fault checks
        | _ -> ())
      jobs responses

(* The merge inputs of [workload]'s program over one fleet, in
   submission order: each round's record jobs, then its intact loads. *)
let merge_inputs st workload =
  List.concat
    (List.init fleet_rounds (fun i ->
         List.filter_map
           (fun (j : Serve_proto.job) ->
             match j.Serve_proto.payload with
             | Serve_proto.Profile_record { workload = w; seed; weight; _ }
               when w = workload ->
                 Some (`Record (seed, weight))
             | Serve_proto.Profile_load { path; weight } ->
                 let l = List.find (fun l -> l.l_path = path) st.loads in
                 if l.l_intact && l.l_workload = workload then Some (`Load (path, weight))
                 else None
             | _ -> None)
           (batch st i)))

(* The batch path, separate from the daemon: profile, write and read
   back each record input through the store, merge the first [n] with
   Store.merge_profiles and derive the plan. *)
let batch_plan ~tmp workload inputs n =
  let config = workload_config workload in
  let artifacts =
    List.mapi
      (fun k input ->
        match input with
        | `Load (path, weight) -> (path, weight)
        | `Record (seed, weight) ->
            let path = Filename.concat tmp (Printf.sprintf "%s-%d.profile.bin" workload k) in
            if not (Sys.file_exists path) then write_artifact ~path ~workload ~seed;
            (path, weight))
      (List.filteri (fun k _ -> k < n) inputs)
  in
  let read (path, w) =
    match Store.read_profile path with
    | Ok a -> (a, w)
    | Error e -> failwith (Store.error_to_string e)
  in
  let decoded = List.map read artifacts in
  match Pb_layers.time "store.merge" (fun () -> Store.merge_profiles decoded) with
  | Error e -> failwith (Store.error_to_string e)
  | Ok (_, merged) ->
      Pb_layers.time "core.derive" (fun () -> Pipeline.derive ~config merged)

let answer_of_plan (plan : Pipeline.plan) =
  ( Array.length plan.Pipeline.grouping.Grouping.groups,
    List.length (Identify.monitored_sites plan.Pipeline.selectors),
    List.length (Affinity_graph.nodes plan.Pipeline.profile.Profiler.graph) )

(* The derived answers of one seed-chosen workload must equal the batch
   path's plan at the reported profile count. *)
let check_derived ctx checks tl st =
  let with_derived =
    List.filter
      (fun w ->
        List.exists
          (fun a -> a.a_source = "aggregate")
          (Option.value (Hashtbl.find_opt tl.answers w) ~default:[]))
      Workloads.names
  in
  check checks "serve: no derived plan answers" (with_derived <> []);
  if with_derived <> [] then begin
    let arr = Array.of_list with_derived in
    let w = arr.(pick ctx ~label:"derive-check" (Array.length arr)) in
    let inputs = merge_inputs st w in
    let counts =
      List.sort_uniq compare
        (List.filter_map
           (fun a -> if a.a_source = "aggregate" then Some a.a_profiles else None)
           (Hashtbl.find tl.answers w))
    in
    let counts = List.filteri (fun k _ -> k < 3) counts in
    let tmp = fresh_dir ctx "derive-check" in
    List.iter
      (fun n ->
        let plan = batch_plan ~tmp w inputs n in
        let g, m, nodes = answer_of_plan plan in
        let a =
          List.find
            (fun a -> a.a_source = "aggregate" && a.a_profiles = n)
            (Hashtbl.find tl.answers w)
        in
        check checks
          (Printf.sprintf "serve: %s plan at %d profiles differs from batch path" w n)
          (a.a_groups = g && a.a_monitored = m && a.a_nodes = nodes))
      counts;
    w
  end
  else ""

(* The composition of the fleet stream, counted separately. *)
let check_composition checks tl =
  let count f =
    List.fold_left
      (List.fold_left (fun n (j : Serve_proto.job) -> if f j.Serve_proto.payload then n + 1 else n))
      0 (Serve_sim.job_stream fleet_config)
  in
  let recs = count (function Serve_proto.Profile_record _ -> true | _ -> false) in
  let reqs = count (function Serve_proto.Plan_request _ -> true | _ -> false) in
  check checks "serve: record count differs from the stream's"
    (tl.records_ok = recs && tl.records_sent = recs);
  check checks "serve: plan-request count differs from the stream's"
    (tl.requests_ok = reqs && tl.requests_sent = reqs)

(* ------------------------------------------------------------------ *)
(* Per-layer extras of the traced run                                  *)
(* ------------------------------------------------------------------ *)

(* Decode and re-encode every artifact the fleet left in its cache. *)
let store_codec pass =
  ignore (Serve.save_aggregates pass.daemon : int);
  let rec files d =
    Array.fold_left
      (fun acc f ->
        let p = Filename.concat d f in
        if Sys.is_directory p then files p @ acc else p :: acc)
      [] (Sys.readdir d)
  in
  let all = files (Filename.concat pass.dir "cache") in
  let out = Filename.concat pass.dir "reencoded.bin" in
  let bytes = ref 0 and dec = ref 0.0 and enc = ref 0.0 in
  List.iter
    (fun p ->
      let size = String.length (file_bytes p) in
      if Filename.check_suffix p ".plan.bin" then begin
        let r, d = span "store.decode" (fun () -> Store.read_plan p) in
        match r with
        | Ok (h, plan) ->
            let _, e =
              span "store.encode" (fun () ->
                  Store.write_plan ~format:Store.V2 ~path:out
                    ~program_digest:h.Store.program_digest plan)
            in
            bytes := !bytes + size;
            dec := !dec +. d;
            enc := !enc +. e
        | Error _ -> ()
      end
      else if Filename.check_suffix p ".profile.bin" then begin
        let r, d = span "store.decode" (fun () -> Store.read_profile p) in
        match r with
        | Ok a ->
            let _, e =
              span "store.encode" (fun () ->
                  Store.write_profile ~format:Store.V2 ~path:out
                    ~program_digest:a.Store.header.Store.program_digest
                    ~config:a.Store.config a.Store.result)
            in
            bytes := !bytes + size;
            dec := !dec +. d;
            enc := !enc +. e
        | Error _ -> ()
      end)
    all;
  let mb = float_of_int !bytes /. 1e6 in
  Pb_layers.set "store.artifact_bytes" (float_of_int !bytes);
  if !dec > 0.0 then Pb_layers.set "store.decode_mb_per_s" (mb /. !dec);
  if !enc > 0.0 then Pb_layers.set "store.encode_mb_per_s" (mb /. !enc)

let replay_rounds ctx st ~jobs k =
  let dir = fresh_dir ctx (Printf.sprintf "replay-%d" jobs) in
  let daemon, _ = new_daemon ~jobs dir in
  snd
    (span "par.probe" (fun () ->
         for i = 0 to k - 1 do
           ignore (Serve.handle_batch daemon (batch st i) : Json.t list)
         done))

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let run ctx =
  let checks = checks () in
  let n_setup = ref 0 in
  let st, setup_s =
    timed_setup ~reps:3 (fun () ->
        incr n_setup;
        setup ctx (fresh_dir ctx (Printf.sprintf "fleet%d" !n_setup)))
  in
  let tl = ref (tally ()) in
  let last = ref None in
  let records = ref 0 in
  let fleet ~obs ~checks p =
    let dir = fresh_dir ctx (Printf.sprintf "pass%d" p) in
    let daemon, cache = new_daemon ?obs ~jobs:ctx.jobs dir in
    let t = tally () in
    for i = 0 to fleet_rounds - 1 do
      let jobs = batch st i in
      let responses, _ =
        span_on obs ~group:i "serve.handle_batch" (fun () -> Serve.handle_batch daemon jobs)
      in
      check_round checks t st jobs responses
    done;
    check_composition checks t;
    last := Some { daemon; cache; dir };
    tl := t;
    records := !records + t.records_sent;
    Array.fold_left (fun n jobs -> n + List.length jobs + List.length st.loads) 0 st.stream
  in
  let timed = timed_rounds ctx (fleet ~obs:!obs ~checks) in
  let tl = !tl in
  let derived_w = check_derived ctx checks tl st in
  let notes =
    [
      ("profile-record jobs per fleet", string_of_int tl.records_sent);
      ("plan-request jobs per fleet", string_of_int tl.requests_sent);
      ("derive-checked workload", derived_w);
      ( "loads",
        String.concat ", "
          (List.map
             (fun l -> l.l_workload ^ if l.l_intact then "" else " (corrupted)")
             st.loads) );
    ]
  in
  let metrics =
    if not ctx.traced then end_to_end ~setup_s timed
    else begin
      let batches = Pb_layers.span_durations "serve.handle_batch" in
      let pass = Option.get !last in
      Pb_layers.set "serve.batch_ms" (median batches *. 1e3);
      Pb_layers.set "serve.plan_memo_share"
        (float_of_int tl.memo /. float_of_int (max 1 tl.requests_ok));
      let reg = Obs.metrics (Option.get !obs) in
      let runs = Metrics.counter_value (Metrics.counter reg "profile.runs") in
      Pb_layers.set "serve.profile_runs_per_record"
        (float_of_int runs /. float_of_int (max 1 !records));
      let h = Metrics.histogram reg "serve.job.profile-record.latency_s" in
      let q p = Option.value (Metrics.quantile h p) ~default:0.0 *. 1e3 in
      Pb_layers.set "serve.record_p50_ms" (q 0.5);
      (match tail_rank (Metrics.histogram_count h) with
      | Some p -> Pb_layers.set "serve.record_p95_ms" (q (Float.min p 0.95))
      | None -> ());
      Pb_layers.set "profile.calls" (float_of_int runs);
      Pb_layers.set "profile.busy_s" (Metrics.histogram_sum h);
      let s = Plan_cache.stats pass.cache in
      Pb_layers.set "store.cache_hit_share"
        (float_of_int s.Plan_cache.hits
        /. float_of_int (max 1 (s.Plan_cache.hits + s.Plan_cache.misses)));
      store_codec pass;
      (* Ledger: one record job's program, replayed into each layer. *)
      let w = if derived_w = "" then List.hd Workloads.names else derived_w in
      let config = (workload_config w).Pipeline.profiler in
      let program = (Option.get (Workloads.find w)).Workload.make Workload.Test in
      let profile = Pb_layers.program_probe ~config program in
      let plan = Pb_layers.time "core.derive" (fun () ->
          Pipeline.derive ~config:(workload_config w) profile) in
      ignore
        (Pb_layers.time "core.instantiate" (fun () ->
             let vmem = Vmem.create () in
             Pipeline.instantiate plan ~fallback:(Jemalloc_sim.create vmem) vmem)
          : Pipeline.runtime);
      let fresh () = Jemalloc_sim.create (Vmem.create ()) in
      ignore
        (Pb_layers.ledger_cell ~seed:config.Profiler.seed ~program ~alloc:(fresh ())
           ~fresh_alloc:fresh ());
      (* The hierarchy is never called on this workload. *)
      List.iter
        (fun k -> Pb_layers.set k 0.0)
        [
          "cachesim.accesses"; "cachesim.ns_per_access";
          "cachesim.tlb_ns_per_access"; "cachesim.same_line_share";
        ];
      Pb_layers.set "vm.events" (Pb_layers.get "lg.bare.events");
      (* Parallel speedup over the first fleet rounds, each side from a
         fresh daemon, untraced. *)
      let w1 = replay_rounds ctx st ~jobs:1 3 in
      let wn = replay_rounds ctx st ~jobs:ctx.jobs 3 in
      Pb_layers.set "par.speedup" (w1 /. wn);
      Pb_layers.set "core.derive_calls" (float_of_int tl.derived);
      (* Last: the untraced fleets start daemons of their own. *)
      Pb_layers.overhead ~round:fleet timed;
      Pb_layers.metrics ()
    end
  in
  outcome ~checks ~timed ~metrics ~notes
