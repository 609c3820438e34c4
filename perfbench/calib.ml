(* The machine-speed ruler.  On a VM shared with other tenants the same
   work can take up to twice as long from one minute to the next, and
   every absolute timing moves with it.  [probe] times a fixed kernel
   that lives here, in the benchmark, so no change to the code under
   test can move it: pseudo-random 64-bit loads and stores over a 4 MiB
   byte buffer with direct-mapped tag arrays (the shape of the simulated
   memory's accesses and its TLB/cache model), branchy integer work, and
   a small persistent map rebuilt as it goes (minor-heap allocation).
   Kernels confined to 64 KiB or 1 MiB were tried: on a busy stretch they
   slowed less than the workloads did, so they under-corrected.

   The machine changes speed within a run too, so every pass is
   bracketed by two probes and its timings are multiplied by the mean of
   their speed indexes: they read as the times the pass would have taken
   on the reference machine, a 2-vCPU VM on which the kernel took
   [reference_s] when it was quiet. *)

let mem_bytes = 4 lsl 20
let iters = 60_000
let reference_s = 3.6e-3

module Imap = Map.Make (Int)

let buf = lazy (Bytes.make mem_bytes '\000')
let pages = Array.make 64 (-1)
let lines = Array.make 1024 (-1)

let kernel () =
  let b = Lazy.force buf in
  let x = ref 0x2545F4914F6CDD1D and acc = ref 0 and misses = ref 0 in
  let map = ref Imap.empty in
  for i = 1 to iters do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    let off = v land (mem_bytes - 8) in
    let page = off lsr 12 and line = off lsr 6 in
    if pages.(page land 63) <> page then begin
      pages.(page land 63) <- page;
      incr misses
    end;
    if lines.(line land 1023) <> line then begin
      lines.(line land 1023) <- line;
      incr misses
    end;
    let w = Int64.to_int (Bytes.get_int64_le b off) in
    Bytes.set_int64_le b off (Int64.of_int (w + i));
    if i land 7 = 0 then map := Imap.add (v land 4095) w !map;
    if i land 4095 = 0 then begin
      acc := !acc + Imap.cardinal !map;
      map := Imap.empty
    end;
    acc := !acc + (w land 1)
  done;
  !acc + !misses

let sink = ref 0

(* One reading of the machine's speed: the reference time over the
   median of three timed kernel runs, so one preemption does not set it.
   Above 1 on a machine faster than the reference, below 1 on a slower
   one. *)
let probe () =
  let once () =
    let v, ns = Ledger.timed kernel in
    sink := !sink + v;
    Ledger.seconds ns
  in
  reference_s /. Ledger.median (List.init 3 (fun _ -> once ()))
