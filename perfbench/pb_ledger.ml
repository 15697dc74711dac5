(* The layer ledger. A cell's program is run once more through Interp
   with recording hooks and a call-logging allocator wrapper; the
   recorded access and allocation streams are then replayed into each
   layer on its own (Hierarchy, Tlb, the allocator, Heap_model.find,
   Affinity_queue.add) so each layer's cost per event is measured
   without the others. Streams live only as long as one cell. *)

module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    Array.unsafe_set v.a v.n x;
    v.n <- v.n + 1

  let get v i = Array.unsafe_get v.a i
end

(* Allocator calls, in program order. *)
let call_malloc = 0
let call_free = 1
let call_realloc = 2

(* Heap events as the Interp hooks report them. *)
let ev_alloc = 0
let ev_free = 1

type stream = {
  addr : Vec.t;  (** Per access: address. *)
  size : Vec.t;  (** Per access: bytes. *)
  ev_at : Vec.t;  (** Per heap event: accesses recorded before it. *)
  ev_kind : Vec.t;
  ev_addr : Vec.t;
  ev_size : Vec.t;
  ev_ctx : Vec.t;
  c_kind : Vec.t;  (** Per allocator call. *)
  c_arg : Vec.t;  (** malloc: size; free/realloc: address. *)
  c_size : Vec.t;  (** realloc: new size. *)
  c_ret : Vec.t;  (** malloc/realloc: returned address. *)
  contexts : Context.table;
}

let create_stream () =
  let v () = Vec.create () in
  {
    addr = v ();
    size = v ();
    ev_at = v ();
    ev_kind = v ();
    ev_addr = v ();
    ev_size = v ();
    ev_ctx = v ();
    c_kind = v ();
    c_arg = v ();
    c_size = v ();
    c_ret = v ();
    contexts = Context.create ();
  }

let accesses s = s.addr.Vec.n
let calls s = s.c_kind.Vec.n

let hooks s =
  let event kind addr size ctx =
    Vec.push s.ev_at s.addr.Vec.n;
    Vec.push s.ev_kind kind;
    Vec.push s.ev_addr addr;
    Vec.push s.ev_size size;
    Vec.push s.ev_ctx ctx
  in
  {
    Interp.on_access =
      (fun addr size _write ->
        Vec.push s.addr addr;
        Vec.push s.size size);
    on_alloc =
      (fun addr size _site ctx ->
        event ev_alloc addr size (Context.intern s.contexts ctx));
    on_realloc =
      (fun old addr size _site ctx ->
        event ev_free old 0 0;
        event ev_alloc addr size (Context.intern s.contexts ctx));
    on_free = (fun addr -> event ev_free addr 0 0);
  }

let logging s (a : Alloc_iface.t) =
  let log kind arg size ret =
    Vec.push s.c_kind kind;
    Vec.push s.c_arg arg;
    Vec.push s.c_size size;
    Vec.push s.c_ret ret
  in
  {
    a with
    Alloc_iface.malloc =
      (fun n ->
        let r = a.Alloc_iface.malloc n in
        log call_malloc n 0 r;
        r);
    free =
      (fun p ->
        a.Alloc_iface.free p;
        log call_free p 0 0);
    realloc =
      (fun p n ->
        let r = a.Alloc_iface.realloc p n in
        log call_realloc p n r;
        r);
  }

(* A classify function that logs its decisions, and the replay side that
   hands them back in order: a group allocator's choices depend on the
   interpreter's group-state bits, which a replay without the program
   does not have. *)
let logged_classify (decisions : Vec.t) classify ~size =
  let d = classify ~size in
  Vec.push decisions (match d with Some g -> g | None -> -1);
  d

let replayed_classify (decisions : Vec.t) =
  let k = ref 0 in
  fun ~size:_ ->
    let d = Vec.get decisions !k in
    incr k;
    if d < 0 then None else Some d

type recording = {
  stream : stream;
  compile_s : float;  (** Interp.create *)
  run_s : float;  (** Interp.run with recording hooks *)
  ret : int;
}

let record ?(seed = 1) ?(patches = []) ?env ?group ~program ~alloc () =
  let s = create_stream () in
  let interp, compile_s =
    Pb_common.span ?group "vm.compile" (fun () ->
        Interp.create ~seed ~hooks:(hooks s) ~patches ?env ~program
          ~alloc:(logging s alloc) ())
  in
  let ret, run_s =
    Pb_common.span ?group "vm.run_recorded" (fun () -> Interp.run interp)
  in
  { stream = s; compile_s; run_s; ret }

(* ------------------------------------------------------------------ *)
(* Replays                                                             *)
(* ------------------------------------------------------------------ *)

let replay_hierarchy ?group s =
  Pb_common.span ?group "cachesim.replay" (fun () ->
      let h = Hierarchy.create () in
      for i = 0 to accesses s - 1 do
        Hierarchy.access h (Vec.get s.addr i) (Vec.get s.size i)
      done;
      Hierarchy.counters h)

let replay_tlb ?group s =
  snd
    (Pb_common.span ?group "cachesim.tlb_replay" (fun () ->
         let t = Tlb.create () in
         let page = Tlb.page_bytes t in
         for i = 0 to accesses s - 1 do
           let a = Vec.get s.addr i in
           let last = a + Vec.get s.size i - 1 in
           let p = ref (a - (a mod page)) in
           while !p <= last do
             ignore (Tlb.access t !p : bool);
             p := !p + page
           done
         done))

let replay_reference ?(config = Pb_lru.xeon) s =
  let t = Pb_lru.create config in
  for i = 0 to accesses s - 1 do
    Pb_lru.access t (Vec.get s.addr i) (Vec.get s.size i)
  done;
  Pb_lru.misses t

let same_line_share s =
  let n = accesses s in
  if n < 2 then 0.0
  else begin
    let same = ref 0 in
    for i = 1 to n - 1 do
      if Vec.get s.addr i / 64 = Vec.get s.addr (i - 1) / 64 then incr same
    done;
    float_of_int !same /. float_of_int (n - 1)
  end

(* Replay the allocator calls into a fresh allocator. Returns the
   seconds taken and whether every returned address matched the
   recording (the allocators are deterministic, so they must). *)
let replay_alloc ?group s (fresh : Alloc_iface.t) =
  let same = ref true in
  let (), secs =
    Pb_common.span ?group "alloc.replay" (fun () ->
        for i = 0 to calls s - 1 do
          let k = Vec.get s.c_kind i in
          if k = call_malloc then begin
            if fresh.Alloc_iface.malloc (Vec.get s.c_arg i) <> Vec.get s.c_ret i
            then same := false
          end
          else if k = call_free then fresh.Alloc_iface.free (Vec.get s.c_arg i)
          else if
            fresh.Alloc_iface.realloc (Vec.get s.c_arg i) (Vec.get s.c_size i)
            <> Vec.get s.c_ret i
          then same := false
        done)
  in
  (secs, !same)

(* Replay the heap events and accesses into the profiler's heap model,
   then again with the affinity queue fed every tracked access. Returns
   (find seconds, queue seconds, graph edges). The queue's cost is the
   second pass minus the first. *)
let replay_profile ?group ?(affinity_distance = 128) ?(max_tracked = 4096) s =
  let pass ~with_queue =
    let heap = Heap_model.create () in
    let graph = Affinity_graph.create () in
    let queue =
      Affinity_queue.create ~affinity_distance ~heap
        ~on_affinity:(fun x y -> Affinity_graph.add_affinity graph x y)
        ()
    in
    let ev = ref 0 and nev = s.ev_at.Vec.n in
    let apply_events upto =
      while !ev < nev && Vec.get s.ev_at !ev <= upto do
        let a = Vec.get s.ev_addr !ev in
        if Vec.get s.ev_kind !ev = ev_alloc then
          ignore
            (Heap_model.on_alloc heap ~addr:a ~size:(Vec.get s.ev_size !ev)
               ~ctx:(Vec.get s.ev_ctx !ev)
              : Heap_model.obj)
        else ignore (Heap_model.on_free heap ~addr:a : Heap_model.obj option);
        incr ev
      done
    in
    for i = 0 to accesses s - 1 do
      apply_events i;
      match Heap_model.find heap (Vec.get s.addr i) with
      | Some o when with_queue && o.Heap_model.size <= max_tracked ->
          if Affinity_queue.add queue o ~bytes:(Vec.get s.size i) then
            Affinity_graph.add_access graph o.Heap_model.ctx
      | _ -> ()
    done;
    apply_events max_int;
    List.length (Affinity_graph.edges graph)
  in
  let _, find_s =
    Pb_common.span ?group "profile.heap_find_replay" (fun () ->
        pass ~with_queue:false)
  in
  let edges, both_s =
    Pb_common.span ?group "profile.affinity_replay" (fun () ->
        pass ~with_queue:true)
  in
  (find_s, Float.max 0.0 (both_s -. find_s), edges)

(* A bare run: no hooks, the reference allocator. *)
let bare_run ?group ?(seed = 1) program =
  let alloc = Jemalloc_sim.create (Vmem.create ()) in
  let interp, compile_s =
    Pb_common.span ?group "vm.compile" (fun () ->
        Interp.create ~seed ~program ~alloc ())
  in
  let _, run_s =
    Pb_common.span ?group "vm.run" (fun () -> Interp.run interp)
  in
  let loads, stores = Interp.load_store_counts interp in
  (compile_s, run_s, loads + stores)
