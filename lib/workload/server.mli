(** squid-server: the long-running Squid-style cache the ROADMAP's
    "millions of users" scenario needs, in the step-structured
    {!Dh_alloc.Program.service} shape the supervisor's rewind rung
    requires.

    The server keeps a hash-chained URL cache entirely in simulated
    memory — table, nodes, URL copies, counters, even its output
    checksum — so {!Dh_mem.Mem.rewind} plus {!Diehard.Heap.restore} is a
    complete resume: there is no OCaml-side state to roll back.  Request
    [k]'s content is a pure function of [k], so a rewound window replays
    identically (modulo fresh object placement from the reseed).

    Every request formats a fixed 64-byte title buffer with the unchecked
    [strcpy] of Squid 2.3s5 (paper §7.3, "Real Faults"), stored with
    {!Dh_mem.Mem.write_cstring}: byte for byte what a bytewise copy
    stores, counts and faults on.  Well-formed URLs fit.  With
    [attack_every > 0], every [attack_every]-th request carries a
    3000-byte URL: the overflow tramples title slots —
    under DieHard almost always free ones — and, when the victim buffer
    sits near the end of its size-class region, runs onto the unmapped
    hole page and faults.  Output (progress lines plus a final
    content-derived checksum) is independent of heap placement, so it
    doubles as the determinism fingerprint for rewind-equivalence checks:
    a run recovered by rewind-and-reseed must print exactly what a
    never-faulted run prints. *)

val service :
  requests:int -> ?attack_every:int -> ?zipf:float -> unit -> Dh_alloc.Program.service
(** [attack_every] defaults to 0 (no attacks).  The 3000-byte attack URL
    is long enough to reach the hole page from the last ~4.5% of title
    slots under {!heap_size}.  [zipf] skews the key popularity to a
    Zipf([zipf]) distribution over the key space (real cache traffic is
    heavy-headed); keys stay a pure function of the request index — the
    uniform variate is the request hash, inverted through
    {!Dh_rng.Dist.zipf_rank} over one table the service builds when it
    is created — so the rewind-determinism contract is unchanged.
    Omitted = uniform keys.  Raises [Invalid_argument] when
    [requests < 0] or [attack_every < 0]. *)

val program :
  ?requests:int -> ?attack_every:int -> ?zipf:float -> unit -> Dh_alloc.Program.t
(** {!service} wrapped via {!Dh_alloc.Program.of_service} (4096 requests
    by default), so plain runs and checkpointed runs execute the same
    steps. *)

val url_of : ?zipf:float -> unit -> attack:bool -> int -> string
(** [url_of ?zipf ()] builds the key stream {!service} builds for the
    same [zipf] and returns request [k]'s URL under it:
    [Printf.sprintf "http://h%03x.example/%d" key path] for the request's
    key and path, padded with ['A'] to 3000 bytes when [attack]. *)

val heap_size : int
(** A heap sized so the title region spans 16 pages (64 KiB per class):
    big enough for the cache's live set, small enough that overlong-URL
    attacks fault at a usefully observable rate. *)
