module Mem = Dh_mem.Mem
module Process = Dh_mem.Process
module Program = Dh_alloc.Program
module Allocator = Dh_alloc.Allocator

(* Layout constants.  Nodes and URL buffers are sized to land in the 32 B
   size class, so the 64 B class holds nothing but title buffers: an
   overflowing title tramples only free title slots (the current request's
   title is the sole live one) or runs off the region into the unmapped
   hole page and faults — never silently corrupts the cache.  That is the
   paper's Squid story, and it is also what keeps the server's output a
   pure function of the request stream no matter where objects land. *)
let bucket_count = 64
let node_size = 32 (* key, next, hits, url pointer *)
let title_size = 64
let max_chain = 6
let key_space = 1024
let progress_every = 512

(* splitmix-style request hash: everything about request [k] derives from
   this, so a rewound-and-replayed window rebuilds identical requests. *)
let mix k =
  let h = (k * 0x9E3779B9) + 0x7F4A7C15 in
  let h = (h lxor (h lsr 16)) * 0x85EBCA6B in
  (h lxor (h lsr 13)) land 0x3FFFFFFF

(* Key choice stays a pure function of [k] even under a skewed
   distribution: the uniform variate is the request hash itself (30
   bits), inverted through the service's Zipf table.  No RNG state is
   consumed, so rewound windows and reseeded retries replay the exact
   same key sequence.  The table is built once, when the key stream is. *)
let key_stream ?zipf () =
  match zipf with
  | None -> fun k -> mix k land (key_space - 1)
  | Some s ->
    let table = Dh_rng.Dist.zipf_table ~n:key_space ~s in
    fun k -> Dh_rng.Dist.zipf_rank table ~u:(float_of_int (mix k) /. 1073741824.) - 1

(* An attack URL's length: long enough to reach the hole page from the
   last ~4.5% of title slots under [heap_size]. *)
let attack_len = 3000

let hex = "0123456789abcdef"

(* [Printf.sprintf "http://h%03x.example/%d" key path], padded with 'A's
   to [attack_len] for an attack, written straight into its bytes.  A
   key is below [key_space] <= 0x1000, so the host is always exactly
   three hex digits, taken by shifts; the path is below 0x1000, so it has
   one to four decimal digits, written by the constant divisor 10. *)
let () = assert (key_space <= 0x1000)

let url ~attack ~key k =
  let path = mix (k + 1) land 0xFFF in
  let path_len = if path < 10 then 1 else if path < 100 then 2 else if path < 1000 then 3 else 4 in
  let base_len = 20 + path_len in
  let b = Bytes.make (if attack then attack_len else base_len) 'A' in
  Bytes.blit_string "http://h" 0 b 0 8;
  Bytes.unsafe_set b 8 (String.unsafe_get hex (key lsr 8));
  Bytes.unsafe_set b 9 (String.unsafe_get hex ((key lsr 4) land 15));
  Bytes.unsafe_set b 10 (String.unsafe_get hex (key land 15));
  Bytes.blit_string ".example/" 0 b 11 9;
  let v = ref path in
  for i = base_len - 1 downto 20 do
    Bytes.unsafe_set b i (String.unsafe_get hex (!v mod 10));
    v := !v / 10
  done;
  Bytes.unsafe_to_string b

let url_of ?zipf () =
  let key_of = key_stream ?zipf () in
  fun ~attack k -> url ~attack ~key:(key_of k) k

(* Counter block offsets (a malloc'd block of simulated memory: the
   server keeps NO mutable OCaml state, which is what makes memory
   rewind a complete resume). *)
let c_stored = 0
let c_hits = 8
let c_failed = 16
let c_checksum = 24
let counters_size = 32

(* The node holding [key] in the chain from [node], or [-(depth + 1)]
   on a miss, [depth] being the chain's length: node addresses are never
   0, so the sign tells the two apart without boxing a result.  Every
   step past a mismatching node burns a unit of fuel. *)
let rec find mem fuel key node depth =
  if node = 0 then -(depth + 1)
  else if Mem.read64 mem node = key then node
  else begin
    Process.Fuel.burn fuel;
    find mem fuel key (Mem.read64 mem (node + 8)) (depth + 1)
  end

(* The [i]th node after [node], or 0 if the chain ends first. *)
let rec nth mem node i =
  if node = 0 || i = 0 then node else nth mem (Mem.read64 mem (node + 8)) (i - 1)

let service ~requests ?(attack_every = 0) ?zipf () =
  if requests < 0 then invalid_arg "Server.service: requests must be >= 0";
  if attack_every < 0 then invalid_arg "Server.service: attack_every must be >= 0";
  let key_of = key_stream ?zipf () in
  let init ctx =
    let a = ctx.Program.alloc in
    let mem = a.Allocator.mem in
    (* Audit provenance: each of the server's four allocation callsites
       gets an interned site, bracketed ambiently around the malloc (the
       allocator record can't carry it).  Write-only; a site never
       changes what is allocated or where. *)
    let s_boot = Dh_obs.Audit.site "server:boot"
    and s_node = Dh_obs.Audit.site "server:cache-node"
    and s_url = Dh_obs.Audit.site "server:url-copy"
    and s_title = Dh_obs.Audit.site "server:title" in
    let must sz =
      match Dh_obs.Audit.with_site s_boot a.Allocator.malloc sz with
      | Some p -> p
      | None -> raise (Process.Abort "server: out of memory at boot")
    in
    let table = must (bucket_count * 8) in
    let counters = must counters_size in
    Mem.fill mem ~addr:table ~len:(bucket_count * 8) '\000';
    Mem.fill mem ~addr:counters ~len:counters_size '\000';
    let bump off v =
      Mem.write64 mem (counters + off) (Mem.read64 mem (counters + off) + v)
    in
    let handle k =
      Process.Fuel.burn ctx.Program.fuel;
      let attack = attack_every > 0 && k > 0 && k mod attack_every = attack_every - 1 in
      let key = key_of k in
      let url = url ~attack ~key k in
      let bucket = table + (key land (bucket_count - 1)) * 8 in
      let found = find mem ctx.Program.fuel key (Mem.read64 mem bucket) 0 in
      let node_hits =
        if found > 0 then begin
          let h = Mem.read64 mem (found + 16) + 1 in
          Mem.write64 mem (found + 16) h;
          bump c_hits 1;
          h
        end
        else
          let depth = -found - 1 in
          (* miss: store a node and its URL copy (both 32 B class) *)
          match
            ( Dh_obs.Audit.with_site s_node a.Allocator.malloc node_size,
              Dh_obs.Audit.with_site s_url a.Allocator.malloc (String.length url + 1) )
          with
          | Some node, Some ucopy ->
            Mem.write_cstring mem ~addr:ucopy url;
            Mem.write64 mem node key;
            Mem.write64 mem (node + 8) (Mem.read64 mem bucket);
            Mem.write64 mem (node + 16) 0;
            Mem.write64 mem (node + 24) ucopy;
            Mem.write64 mem bucket node;
            bump c_stored 1;
            (* keep chains bounded: truncate past max_chain, freeing the
               evicted suffix (the server's steady free traffic) *)
            if depth >= max_chain then begin
              let keep = nth mem (Mem.read64 mem bucket) (max_chain - 1) in
              if keep <> 0 then begin
                let rec free_chain node =
                  if node <> 0 then begin
                    Process.Fuel.burn ctx.Program.fuel;
                    let next = Mem.read64 mem (node + 8) in
                    a.Allocator.free (Mem.read64 mem (node + 24));
                    a.Allocator.free node;
                    bump c_stored (-1);
                    free_chain next
                  end
                in
                let excess = Mem.read64 mem (keep + 8) in
                Mem.write64 mem (keep + 8) 0;
                free_chain excess
              end
            end;
            0
          | (Some p, None | None, Some p) ->
            a.Allocator.free p;
            bump c_failed 1;
            0
          | None, None ->
            bump c_failed 1;
            0
      in
      (* format the response title — the crash site: the unchecked strcpy
         of Squid 2.3s5, no bounds test, into a fixed 64-byte buffer.  A
         well-formed URL fits; an overlong one writes on past the end of
         the slot. *)
      (match Dh_obs.Audit.with_site s_title a.Allocator.malloc title_size with
      | Some title ->
        Mem.write_cstring mem ~addr:title url;
        a.Allocator.free title
      | None -> bump c_failed 1);
      (* fold the request into the running checksum: content-derived
         (keys, hit history, the threshold-deterministic failure count) —
         never addresses, so every seed and every rewind agrees *)
      let c = Mem.read64 mem (counters + c_checksum) in
      let c' =
        mix (c lxor ((k * 0x61C88647) + (key * 31) + (node_hits * 7)))
        + Mem.read64 mem (counters + c_failed)
      in
      Mem.write64 mem (counters + c_checksum) (c' land 0x3FFFFFFFFFFF);
      if (k + 1) mod progress_every = 0 then
        Process.Out.printf ctx.Program.out "t=%d stored=%d hits=%d\n" (k + 1)
          (Mem.read64 mem (counters + c_stored))
          (Mem.read64 mem (counters + c_hits))
    in
    let finish () =
      Process.Out.printf ctx.Program.out
        "done requests=%d stored=%d hits=%d failed=%d checksum=%d\n" requests
        (Mem.read64 mem (counters + c_stored))
        (Mem.read64 mem (counters + c_hits))
        (Mem.read64 mem (counters + c_failed))
        (Mem.read64 mem (counters + c_checksum))
    in
    { Program.handle; finish }
  in
  { Program.requests; init }

let program ?(requests = 4096) ?(attack_every = 0) ?zipf () =
  Program.of_service ~name:"server" (service ~requests ~attack_every ?zipf ())

let heap_size =
  (* 64 KiB per size-class region: the 64 B title region spans 16 pages,
     so a 3000-byte overflow runs off the end (and faults on the hole
     page) from roughly the last 4.5% of slots — attacks usually scribble
     harmlessly over free title slots, occasionally fault, exactly the
     probabilistic exposure the rewind rung is for. *)
  12 * 64 * 1024
