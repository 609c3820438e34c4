(** Partial protection: DieHard for selected size classes only.

    §9 lists ways of "reducing the memory requirements of DieHard",
    including "selectively applying the technique to particular size
    classes".  This allocator does exactly that: requests up to
    256 bytes are served by a DieHard heap (randomized, validated,
    probabilistically safe); larger requests are delegated to a
    conventional freelist on the same address space.

    The trade: most heap errors involve small objects (the size mixes of
    §7.1's benchmarks are dominated by them), so protecting only the
    small classes keeps most of the probabilistic guarantee while the
    address-space cost drops from M x 12 regions to M x the protected
    classes.  Errors on unprotected objects behave exactly like the
    freelist baseline — the ablation bench quantifies both sides. *)

type t

val create : ?config:Config.t -> Dh_mem.Mem.t -> t
(** [create mem] builds the hybrid.  Requests up to 256 bytes are served
    by DieHard; [config] sizes the protected DieHard heap (its regions
    for classes above 256 bytes are simply never mapped). *)

val protected_heap : t -> Heap.t
(** The DieHard side — for white-box inspection. *)

val allocator : t -> Dh_alloc.Allocator.t

val is_protected : t -> int -> bool
(** Whether the given {e live object address} is managed by the DieHard
    side. *)
