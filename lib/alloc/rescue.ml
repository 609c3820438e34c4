(* Rx's rescue configuration, fixed: every request padded by [pad]
   bytes, frees deferred forever, allocations zero-filled.  A negative
   size passes through unpadded, for the allocator to reject. *)
let pad = 64

let wrap (alloc : Allocator.t) =
  let malloc sz =
    let addr = alloc.Allocator.malloc (if sz < 0 then sz else sz + pad) in
    if addr <> Allocator.null then
      Dh_mem.Mem.fill alloc.Allocator.mem ~addr ~len:(sz + pad) '\000';
    addr
  in
  let free _ =
    alloc.Allocator.stats.Stats.ignored_frees <- alloc.Allocator.stats.Stats.ignored_frees + 1
  in
  { alloc with Allocator.name = alloc.Allocator.name ^ "+rescue"; malloc; free }
