(** Per-domain buffered cells: the storage primitive for state written
    from several domains.  It has two users, {!Tracing}'s rings and
    {!Audit}'s ambient site.  A heap's audit counters and a latency
    histogram are not cells: the heap, or the supervised run, owns them
    and writes them from one domain.

    A cell set holds one private value per domain that ever wrote to it,
    created on that domain's first {!get} and never unregistered.
    Domain ids are never reused, so a set gains one value per helper
    domain that records while obs is on (the parallel pool spawns
    fresh helpers for every fan-out); values are never dropped, so a
    helper's trace ring outlives its domain.  A handle caches its
    owner's value: the steady-state {!get} is a load of the calling
    domain's local-storage root (a field of the domain's state, no C
    call), one pointer compare against the cached owner's root and a
    field load, with no lock, no atomic and no hash lookup.  When the
    calling domain differs from the cached owner, the handle re-resolves
    by scanning the set's short (one entry per domain) list, taking the
    set's lock only to register a new domain.

    A handle may be used from several domains at once: the cached owner
    and value are replaced together, so a domain only ever receives its
    own value, but concurrent writers evict each other's cache and each
    pay the re-resolve.  A long-lived single-writer component (a heap's
    audit) therefore takes its own handle with {!share}.

    Values are written only by their owning domain with plain stores.
    Reads ({!fold}) see every value without synchronizing: they may lag
    a domain still mid-burst, and are exact once writers have been
    joined or have stopped.  Resetting is the instrument's business:
    each zeroes its values in place, so handles held across a reset
    stay valid and keep recording from zero. *)

type 'a t
(** A handle onto a set of per-domain values of type ['a]. *)

val create : (unit -> 'a) -> 'a t
(** A fresh, empty set (values are made by the given function on each
    domain's first {!get}) and a handle onto it. *)

val share : 'a t -> 'a t
(** Another handle onto the same set, with its own cache. *)

val get : 'a t -> 'a
(** The calling domain's value, registered on first use. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Fold over every domain's value (merge on read). *)
