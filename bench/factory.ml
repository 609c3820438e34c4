(* Fresh-allocator factories shared by the benchmark modules.  Every
   experiment builds its heaps through these, one simulated address
   space per allocator instance. *)

module Allocator = Dh_alloc.Allocator

let freelist ?variant () =
  let mem = Dh_mem.Mem.create () in
  Dh_alloc.Freelist.allocator (Dh_alloc.Freelist.create ?variant mem)

let gc ?arena_size ?heap_limit () =
  let mem = Dh_mem.Mem.create () in
  Dh_alloc.Gc.allocator (Dh_alloc.Gc.create ?arena_size ?heap_limit mem)

let diehard_heap ?(seed = 1) ?(heap_size = Diehard.Config.default.Diehard.Config.heap_size)
    ?(mesh = false) () =
  let mem = Dh_mem.Mem.create () in
  let config = Diehard.Config.v ~heap_size ~seed ~mesh () in
  Diehard.Heap.create ~config mem

let diehard ?seed ?heap_size ?mesh () =
  Diehard.Heap.allocator (diehard_heap ?seed ?heap_size ?mesh ())

(* Allocators for the "systems" columns of Table 1.  Each returns the
   allocator and the access-policy kind the system implies. *)
type system = {
  label : string;  (** Column name, as in the paper's Table 1. *)
  make : unit -> Allocator.t * Dh_alloc.Policy.kind;
  rx_retry : bool;  (** Re-execute on crash with the rescue allocator. *)
}

let systems ~seed =
  [
    { label = "GNU libc"; make = (fun () -> (freelist (), Dh_alloc.Policy.Raw)); rx_retry = false };
    { label = "BDW GC"; make = (fun () -> (gc (), Dh_alloc.Policy.Raw)); rx_retry = false };
    (* CCured "relies on the BDW garbage collector to protect against
       double frees and dangling pointers" (§8): checked accesses over a
       collected heap. *)
    {
      label = "CCured";
      make = (fun () -> (gc (), Dh_alloc.Policy.Fail_stop));
      rx_retry = false;
    };
    { label = "Rx"; make = (fun () -> (freelist (), Dh_alloc.Policy.Raw)); rx_retry = true };
    {
      label = "FailObliv";
      make = (fun () -> (freelist (), Dh_alloc.Policy.Oblivious));
      rx_retry = false;
    };
    {
      label = "DieHard";
      make = (fun () -> (diehard ~seed (), Dh_alloc.Policy.Raw));
      rx_retry = false;
    };
  ]
