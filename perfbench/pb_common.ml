(* Shared plumbing of the benchmark: the run context, clocks, the
   check ledger, the timed-round loop and the per-layer metric table. *)

type ctx = {
  seed : int;  (** The run's workload seed (--seed). *)
  seconds : float;  (** Length of the timed phase (--seconds). *)
  traced : bool;  (** --trace 1: per-layer run instead of end-to-end. *)
  jobs : int;  (** Worker domains: nproc. *)
  work_dir : string;  (** Scratch directory inside the checkout. *)
}

let now () = Unix.gettimeofday ()

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The traced run's one observability context: the benchmark's own
   spans and the libraries' land in it, and it is written out as a
   Chrome trace when the run ends. [None] in the untraced run. *)
let obs : Obs.t option ref = ref None

(* [f ()] inside a span of [obs], tagged with the cell, job or case it
   belongs to; returns [f]'s value and its wall seconds, traced or not. *)
let span_on obs ?group name f =
  let attrs = match group with Some g -> [ ("group", Json.Int g) ] | None -> [] in
  let t0 = now () in
  let v = Obs.span ~attrs obs name f in
  (v, now () -. t0)

(* The same, in the traced run's context. *)
let span ?group name f = span_on !obs ?group name f

(* A seed-derived choice: the same (seed, label) always picks the same
   value, and different labels draw independent streams. *)
let pick ctx ~label n =
  let rng = Rng.split ~label (Rng.create ~seed:ctx.seed) in
  Rng.int rng n

let sub_seed ctx ~label = 1 + pick ctx ~label 1_000_000

(* Peak resident set of this process, MiB (VmHWM). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let fresh_dir ctx name =
  let d = Filename.concat ctx.work_dir name in
  rm_rf d;
  mkdir_p d;
  d

let file_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

(* Every output check lands here. A failed check is one failed operation
   and makes the run incorrect; a known fault is a failed operation that
   the program is known to get wrong, and leaves [correct] alone. *)
type checks = {
  mutable failed : int;
  mutable known_faults : int;
  mutable messages : string list;
}

let checks () = { failed = 0; known_faults = 0; messages = [] }

let check c name ok =
  if not ok then begin
    c.failed <- c.failed + 1;
    if List.length c.messages < 20 then c.messages <- name :: c.messages
  end

let known_fault c = c.known_faults <- c.known_faults + 1

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let median xs =
  match xs with [] -> 0.0 | _ -> Stats.median (Array.of_list xs)

(* The highest percentile with at least ten samples beyond it, as the
   percentile rank; [None] below forty samples. *)
let tail_rank n = if n < 40 then None else Some (1.0 -. (10.0 /. float_of_int n))

let percentile xs p =
  match xs with [] -> 0.0 | _ -> Stats.percentile (Array.of_list xs) (p *. 100.0)

let geomean xs = Stats.geomean (Array.of_list xs)

(* ------------------------------------------------------------------ *)
(* Timed rounds                                                        *)
(* ------------------------------------------------------------------ *)

type round = { r_wall : float; r_cpu : float; r_ops : int }

type timed = {
  rounds : round list;
  timed_wall : float;  (** The whole timed phase. *)
  rss_mb : float;
      (** Peak resident set after the first round: set-up plus one round
          of work, the same in every run however many rounds follow (the
          GC's heap keeps growing in steps for many rounds). *)
}

(* Run whole rounds until the timed phase has lasted [ctx.seconds]; at
   least one round always runs. [round i] returns the operations it
   attempted. *)
let timed_rounds ctx round =
  let start = now () in
  let rss_mb = ref 0.0 in
  let rec go i acc =
    if i > 0 && now () -. start >= ctx.seconds then List.rev acc
    else begin
      let t0 = now () and c0 = cpu_now () in
      let ops = round i in
      let r = { r_wall = now () -. t0; r_cpu = cpu_now () -. c0; r_ops = ops } in
      if i = 0 then rss_mb := peak_rss_mb ();
      go (i + 1) (r :: acc)
    end
  in
  let rounds = go 0 [] in
  { rounds; timed_wall = now () -. start; rss_mb = !rss_mb }

(* Set-up is timed in [batches] batches of [reps] repetitions each, and
   setup_s is the median over the batches of a batch's time divided by
   [reps]. [reps] is fixed per workload (the same work in every run) and
   chosen so that a batch lasts a third of a second or so: on a shared
   machine a sub-millisecond set-up timed alone runs up to half again
   slower from one tenth of a second to the next, and an average over a
   longer batch moves much less. The last result is the one the workload
   uses. *)
let timed_setup ?(batches = 5) ~reps f =
  let last = ref None in
  let batch () =
    let t0 = now () in
    for _ = 1 to reps do
      last := Some (f ())
    done;
    (now () -. t0) /. float_of_int reps
  in
  let times = List.init batches (fun _ -> batch ()) in
  (Option.get !last, median times)

(* ------------------------------------------------------------------ *)
(* Outcome of one run                                                  *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

type outcome = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : metric list;
  notes : (string * string) list;  (** Human-readable extras. *)
}

(* The end-to-end metrics every workload reports from its timed rounds. *)
let end_to_end ~setup_s t =
  let ops = List.fold_left (fun a r -> a + r.r_ops) 0 t.rounds in
  [
    m "setup_s" "s" setup_s;
    m "wall_s" "s" (median (List.map (fun r -> r.r_wall) t.rounds));
    m "cpu_s" "s" (median (List.map (fun r -> r.r_cpu) t.rounds));
    m "peak_rss_mb" "MiB" t.rss_mb;
    m "ops_per_s" "ops/s" (float_of_int ops /. t.timed_wall);
  ]

let walls t = List.map (fun r -> r.r_wall) t.rounds

let outcome ~(checks : checks) ~timed ~metrics ~notes =
  {
    attempted = List.fold_left (fun a r -> a + r.r_ops) 0 timed.rounds;
    failed = checks.failed + checks.known_faults;
    correct = checks.failed = 0;
    metrics;
    notes =
      notes
      @ [
          ( "round walls (s)",
            String.concat " " (List.map (Printf.sprintf "%.3f") (walls timed)) );
        ]
      @ List.rev_map (fun s -> ("check failed", s)) checks.messages;
  }
