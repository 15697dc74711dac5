(* A reference model of the simulated memory hierarchy, written
   independently of lib/cachesim: set-associative levels with true LRU
   (a per-way last-use stamp), non-inclusive L1 -> L2 -> L3 probing on
   misses, and a set-associative TLB over 4 KiB pages. Fed the same
   access stream, it must count exactly the misses lib/cachesim counts. *)

type level = {
  sets : int;
  assoc : int;
  tags : int array;  (** sets * assoc; -1 = invalid way. *)
  stamps : int array;
  mutable clock : int;
  mutable misses : int;
}

let level ~size ~assoc ~block =
  let sets = size / (assoc * block) in
  {
    sets;
    assoc;
    tags = Array.make (sets * assoc) (-1);
    stamps = Array.make (sets * assoc) 0;
    clock = 0;
    misses = 0;
  }

(* Look up block number [b]; fill it on a miss. [true] on hit. *)
let touch lv b =
  let base = b mod lv.sets * lv.assoc and tag = b / lv.sets in
  lv.clock <- lv.clock + 1;
  let rec find w victim =
    if w = lv.assoc then begin
      lv.misses <- lv.misses + 1;
      lv.tags.(base + victim) <- tag;
      lv.stamps.(base + victim) <- lv.clock;
      false
    end
    else if lv.tags.(base + w) = tag then begin
      lv.stamps.(base + w) <- lv.clock;
      true
    end
    else
      let victim =
        if lv.stamps.(base + w) < lv.stamps.(base + victim) then w else victim
      in
      find (w + 1) victim
  in
  find 0 0

type config = {
  l1 : int * int;  (** size bytes, ways *)
  l2 : int * int;
  l3 : int * int;
  line : int;
  tlb : int * int;  (** entries, ways *)
  page : int;
}

(* The evaluation machine of the paper's section 5.1. *)
let xeon =
  {
    l1 = (32 * 1024, 8);
    l2 = (1024 * 1024, 16);
    l3 = (25344 * 1024, 11);
    line = 64;
    tlb = (64, 4);
    page = 4096;
  }

type t = { cfg : config; c1 : level; c2 : level; c3 : level; tlb : level }

let create cfg =
  let mk (size, assoc) = level ~size ~assoc ~block:cfg.line in
  let entries, ways = cfg.tlb in
  {
    cfg;
    c1 = mk cfg.l1;
    c2 = mk cfg.l2;
    c3 = mk cfg.l3;
    tlb = level ~size:(entries * cfg.page) ~assoc:ways ~block:cfg.page;
  }

let access t addr size =
  for b = addr / t.cfg.line to (addr + size - 1) / t.cfg.line do
    if not (touch t.c1 b) then
      if not (touch t.c2 b) then ignore (touch t.c3 b : bool)
  done;
  for p = addr / t.cfg.page to (addr + size - 1) / t.cfg.page do
    ignore (touch t.tlb p : bool)
  done

(* (l1, l2, l3, tlb) miss counts. *)
let misses t = (t.c1.misses, t.c2.misses, t.c3.misses, t.tlb.misses)
