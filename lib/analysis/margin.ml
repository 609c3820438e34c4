module Audit = Dh_obs.Audit
module Size_class = Dh_alloc.Size_class
module Heap = Diehard.Heap
module Config = Diehard.Config

type class_margin = {
  cm_class : int;
  cm_size : int;
  cm_live : int;
  cm_threshold : int;
  cm_capacity : int;
  cm_allocs : int;
  cm_frees : int;
  cm_failed : int;
  cm_occupancy : float;
  cm_overflow_mask : float;
  cm_dangling_mask : float;
  cm_entropy_bits : float;
  cm_entropy_ideal : float;
  cm_samples : int;
}

type empirical = { em_kind : string; em_masked : int; em_trials : int; em_rate : float }

type report = {
  replicas : int;
  dangling_allocations : int;
  uninit_detect : float;
  uninit_bits : int;
  classes : class_margin list;
  empirical : empirical list;
  sites : Audit.site_stat list;
}

let binomial_sigma ~p ~trials =
  if trials <= 0 then 0. else sqrt (p *. (1. -. p) /. float_of_int trials)

(* Theorem 3's uninitialized-read width. *)
let uninit_bits = 32

let of_heap ?(replicas = 1) ?(dangling_allocations = 10) heap =
  let snap = Audit.snapshot [ Heap.audit heap ] in
  (* A class the heap has mapped or holds objects in, read from the heap
     itself: a checkpoint rewind restores its live counts, which the
     audit's cumulative flow never sees.  The large pseudo-class has no
     region. *)
  let occ_of cls =
    if cls >= Size_class.count then None
    else
      let live = Heap.region_in_use heap ~class_:cls in
      if live = 0 && Heap.region_base heap ~class_:cls = None then None
      else
        let threshold = Config.threshold (Heap.config heap) ~class_:cls in
        Some (live, threshold, Heap.region_capacity heap ~class_:cls)
  in
  let classes =
    Array.to_list snap.Audit.classes
    |> List.filter_map (fun (c : Audit.class_stat) ->
           let occ = occ_of c.Audit.cls in
           let samples = Array.fold_left ( + ) 0 c.Audit.slot_hist in
           if occ = None && c.Audit.allocs = 0 && c.Audit.frees = 0 && c.Audit.failed = 0
           then None
           else begin
             let live, threshold, capacity = Option.value occ ~default:(0, 0, 0) in
             let occupancy = Audit.ratio live capacity in
             (* Theorem 1 at the class's current fullness: a one-object
                overflow lands on a free slot with probability F/H.
                Vacuously 1 for an empty (or never-occupied) class. *)
             let overflow_mask =
               if capacity <= 0 then 1.
               else
                 Theorems.overflow_mask_probability
                   ~free_fraction:(1. -. occupancy) ~objects:1 ~replicas
             in
             (* Theorem 2: Q is the class's free slots right now.  A
                completely full class has nowhere safe for reuse to
                land, so the bound collapses to 0 (the theorem needs
                Q > 0). *)
             let dangling_mask =
               if capacity <= 0 then 1.
               else if capacity - live <= 0 then 0.
               else
                 Theorems.dangling_mask_probability
                   ~allocations:dangling_allocations
                   ~free_slots:(capacity - live)
                   ~replicas
             in
             let size =
               if c.Audit.cls < Size_class.count then Size_class.size c.Audit.cls
               else 0
             in
             Some
               {
                 cm_class = c.Audit.cls;
                 cm_size = size;
                 cm_live = live;
                 cm_threshold = threshold;
                 cm_capacity = capacity;
                 cm_allocs = c.Audit.allocs;
                 cm_frees = c.Audit.frees;
                 cm_failed = c.Audit.failed;
                 cm_occupancy = occupancy;
                 cm_overflow_mask = overflow_mask;
                 cm_dangling_mask = dangling_mask;
                 cm_entropy_bits = Audit.entropy_bits c.Audit.slot_hist;
                 cm_entropy_ideal =
                   (if samples = 0 then 0.
                    else log (float_of_int Audit.slot_buckets) /. log 2.);
                 cm_samples = samples;
               }
           end)
  in
  {
    replicas;
    dangling_allocations;
    (* Theorem 3 needs a voter to see replicas disagree; stand-alone
       mode (k = 1) detects nothing, even though the distinct-fill
       product is vacuously 1. *)
    uninit_detect =
      (if replicas < 2 then 0.
       else Theorems.uninit_detect_probability ~bits:uninit_bits ~replicas);
    uninit_bits;
    classes;
    empirical = [];
    sites = Audit.top_sites snap.sites;
  }

(* --- rendering --- *)

let to_json r =
  let b = Buffer.create 2048 in
  let out fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let sep l = String.concat "," l in
  out "{\"replicas\":%d,\"dangling_allocations\":%d,\"uninit_bits\":%d,"
    r.replicas r.dangling_allocations r.uninit_bits;
  out "\"uninit_detect\":%.6f," r.uninit_detect;
  out "\"classes\":[%s],"
    (sep
       (List.map
          (fun c ->
            Printf.sprintf
              "{\"class\":%d,\"size\":%d,\"live\":%d,\"threshold\":%d,\
               \"capacity\":%d,\"allocs\":%d,\"frees\":%d,\"failed\":%d,\
               \"occupancy\":%.6f,\"overflow_mask\":%.6f,\"dangling_mask\":%.6f,\
               \"entropy_bits\":%.4f,\"entropy_ideal\":%.4f,\"samples\":%d}"
              c.cm_class c.cm_size c.cm_live c.cm_threshold c.cm_capacity
              c.cm_allocs c.cm_frees c.cm_failed c.cm_occupancy c.cm_overflow_mask
              c.cm_dangling_mask c.cm_entropy_bits c.cm_entropy_ideal c.cm_samples)
          r.classes));
  out "\"empirical\":[%s],"
    (sep
       (List.map
          (fun e ->
            Printf.sprintf "{\"kind\":\"%s\",\"masked\":%d,\"trials\":%d,\"rate\":%.6f}"
              (Dh_obs.Json.escape e.em_kind) e.em_masked e.em_trials e.em_rate)
          r.empirical));
  out "\"sites\":[%s]}"
    (sep
       (List.map
          (fun (s : Audit.site_stat) ->
            Printf.sprintf
              "{\"name\":\"%s\",\"allocs\":%d,\"frees\":%d,\"canaries\":%d,\
               \"faults\":%d,\"rescues\":%d}"
              (Dh_obs.Json.escape s.Audit.name) s.Audit.s_allocs s.Audit.s_frees
              s.Audit.canaries s.Audit.faults s.Audit.rescues)
          r.sites));
  Buffer.contents b

let to_csv r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "class,size,live,threshold,capacity,allocs,frees,failed,occupancy,\
     overflow_mask,dangling_mask,entropy_bits,entropy_ideal,samples\n";
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%d,%.6f,%.6f,%.6f,%.4f,%.4f,%d\n"
           c.cm_class c.cm_size c.cm_live c.cm_threshold c.cm_capacity c.cm_allocs
           c.cm_frees c.cm_failed c.cm_occupancy c.cm_overflow_mask c.cm_dangling_mask
           c.cm_entropy_bits c.cm_entropy_ideal c.cm_samples))
    r.classes;
  Buffer.contents b

let pp ppf r =
  Format.fprintf ppf
    "safety margin (k=%d, A=%d, B=%d bits; uninit detect %.4f)@." r.replicas
    r.dangling_allocations r.uninit_bits r.uninit_detect;
  Format.fprintf ppf
    "  class  size   live/thresh/cap     occ    P(ovf mask)  P(dgl mask)  \
     entropy@.";
  List.iter
    (fun c ->
      Format.fprintf ppf
        "  %5d %5d  %6d/%6d/%7d  %5.3f  %10.4f  %10.4f  %5.2f/%.2f (%d)@."
        c.cm_class c.cm_size c.cm_live c.cm_threshold c.cm_capacity c.cm_occupancy
        c.cm_overflow_mask c.cm_dangling_mask c.cm_entropy_bits c.cm_entropy_ideal
        c.cm_samples)
    r.classes;
  (match r.empirical with
  | [] -> ()
  | es ->
    Format.fprintf ppf "  empirical masking:@.";
    List.iter
      (fun e ->
        Format.fprintf ppf "    %-8s %d/%d masked (rate %.4f, sigma %.4f)@."
          e.em_kind e.em_masked e.em_trials e.em_rate
          (binomial_sigma ~p:e.em_rate ~trials:e.em_trials))
      es);
  match r.sites with
  | [] -> ()
  | sites ->
    Format.fprintf ppf "  top sites:@.";
    List.iter
      (fun (s : Audit.site_stat) ->
        Format.fprintf ppf
          "    %-24s allocs=%d frees=%d canaries=%d faults=%d rescues=%d@."
          s.Audit.name s.Audit.s_allocs s.Audit.s_frees s.Audit.canaries
          s.Audit.faults s.Audit.rescues)
      sites
