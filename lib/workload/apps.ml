let espresso_rounds = 1500

(* See the .mli for why this program has the shape it has.  Allocation
   profile: ~1600 objects of 16..160 bytes, linked cells read back and
   freed in batches, a ring of arrays re-read at eviction time. *)
let espresso_source =
  Printf.sprintf
    {|
// espresso-sim: allocation-intensive compute with linked structures.
fn main() {
  var ring = calloc(8 * 16);
  var head = 0;
  var nodes = 0;
  var acc = 0;
  for (var i = 0; i < %d; i = i + 1) {
    // a fresh working array; sizes are 4 mod 8, like real C structs,
    // so a 4-byte under-allocation really shrinks the usable space
    var sz = 12 + (i %% 7) * 20;
    var a = malloc(sz);
    var words = sz / 8;
    a[0] = sz;
    for (var j = 1; j < words; j = j + 1) { a[j] = i * 31 + j * 7 + 11; }
    store8(a + sz - 1, i);            // tail byte at the requested size
    for (var j = 1; j < words; j = j + 1) { acc = (acc + a[j]) %% 9973; }
    // evict the ring slot: re-read through the (old) pointer (its stored
    // size and its tail byte), then free
    var slot = i %% 16;
    if (ring[slot]) {
      var old = ring[slot];
      acc = (acc + old[0] + load8(old + old[0] - 1)) %% 9973;
      free(old);
    }
    ring[slot] = a;
    // push a list cell
    var n = malloc(16);
    n[0] = i;
    n[1] = head;
    head = n;
    nodes = nodes + 1;
    // periodically pop half the list: traverse and free
    if (nodes >= 20) {
      for (var k = 0; k < 10; k = k + 1) {
        var t = head;
        acc = (acc + t[0]) %% 9973;
        head = t[1];
        free(t);
      }
      nodes = nodes - 10;
    }
    if (i %% 100 == 99) { print_int(acc); print_char(' '); }
  }
  // drain the list and the ring
  while (head) {
    var t = head;
    acc = (acc + t[0]) %% 9973;
    head = t[1];
    free(t);
  }
  for (var s = 0; s < 16; s = s + 1) {
    if (ring[s]) { free(ring[s]); }
  }
  print_char('#');
  print_int(acc);
  return 0;
}
|}
    espresso_rounds

let espresso () = Dh_lang.Interp.program_of_source ~name:"espresso-sim" espresso_source

(* See the .mli: the fixed 64-byte title buffer copied with an unchecked
   strcpy is the Squid 2.3s5-style bug; the cache-node allocation right
   after it is what a sequential allocator places physically adjacent. *)
let squid_source =
  {|
// squid-sim: a toy caching web server with a heap buffer overflow.
fn main() {
  var cache = 0;
  var served = 0;
  var line = malloc(4096);
  while (1) {
    var got = gets(line);
    if (got == 0) { break; }
    if (strlen(line) == 0) { break; }
    // cache lookup: traverse the list, comparing stored URLs
    var n = cache;
    var hit = 0;
    while (n) {
      if (strcmp(n[0], line) == 0) { hit = 1; n[1] = n[1] + 1; break; }
      n = n[2];
    }
    if (hit) {
      print_str("HIT ");
      print_str(line);
      print_char(10);
    } else {
      // miss: build a response title and insert a cache entry.
      var title = malloc(64);
      var node = malloc(24);
      var url = malloc(strlen(line) + 1);
      strcpy(url, line);      // correctly sized: safe
      node[0] = url;
      node[1] = 1;
      node[2] = cache;
      cache = node;
      strcpy(title, line);    // BUG: fixed 64-byte buffer, no length check
      print_str("MISS ");
      print_str(node[0]);
      print_char(10);
      free(title);
    }
    served = served + 1;
  }
  print_str("served=");
  print_int(served);
  print_char(10);
  return 0;
}
|}

let squid () = Dh_lang.Interp.program_of_source ~name:"squid-sim" squid_source

(* lindsay-sim: the paper's hypercube simulator carries "an uninitialized
   read error that DieHard detects and terminates" (§7.2.3) — it was
   excluded from the 16-replica experiment for exactly that reason.  The
   bug here is the classic off-by-one initialization: the last node's
   state word is never written, and the final checksum folds it in. *)
let lindsay_source =
  {|
// lindsay-sim: hypercube message routing with an uninitialized read.
fn popcount(x) {
  var n = 0;
  while (x) { n = n + (x & 1); x = x >> 1; }
  return n;
}

fn main() {
  var dim = 4;
  var nodes = 1 << dim;          // 16 nodes
  var state = malloc(8 * nodes);
  // BUG: off-by-one -- node nodes-1 is never initialized
  for (var i = 0; i < nodes - 1; i = i + 1) { state[i] = i * i + 1; }
  // route a message from every node to its antipode, accumulating hops
  var hops = 0;
  for (var src = 0; src < nodes; src = src + 1) {
    var dst = nodes - 1 - src;
    hops = hops + popcount(src ^ dst);
  }
  print_str("hops=");
  print_int(hops);
  // fold every node's state into the checksum: reads state[nodes-1]
  var sum = 0;
  for (var i = 0; i < nodes; i = i + 1) { sum = sum + state[i]; }
  print_str(" checksum=");
  print_int(sum & 65535);
  print_char(10);
  // like most C programs, lindsay leaves exit-time cleanup to the OS
  return 0;
}
|}

let lindsay () = Dh_lang.Interp.program_of_source ~name:"lindsay-sim" lindsay_source

(* cfrac-sim: the continued-fraction-factorization benchmark's stand-in.
   Real cfrac is bug-free but extremely allocation-intensive (bignum
   limbs allocated and freed constantly); this Pollard-rho factoriser
   allocates a scratch limb buffer on every iteration the same way.
   Used by tests and the CLI as a third well-behaved application. *)
let cfrac_source =
  {|
// cfrac-sim: integer factorization with cfrac-style allocation churn.
fn gcd(a, b) {
  while (b) {
    var t = a % b;
    a = b;
    b = t;
  }
  return a;
}

// Pollard's rho with increment c; returns a nontrivial factor or 0.
fn rho(n, c) {
  var x = 2;
  var y = 2;
  var d = 1;
  var steps = 0;
  while (d == 1 && steps < 200000) {
    // a fresh "limb" per iteration, like cfrac's bignum temporaries
    var limb = malloc(24);
    x = (x * x + c) % n;
    y = (y * y + c) % n;
    y = (y * y + c) % n;
    limb[0] = x;
    limb[1] = y;
    var diff = x - y;
    if (diff < 0) { diff = -diff; }
    limb[2] = diff;
    d = gcd(limb[2], n);
    free(limb);
    steps = steps + 1;
  }
  if (d != n && d != 1) { return d; }
  return 0;
}

fn factor(n) {
  print_int(n);
  print_str(" = ");
  var c = 1;
  var d = 0;
  while (d == 0 && c < 20) {
    d = rho(n, c);
    c = c + 1;
  }
  if (d == 0) {
    print_str("prime\n");
  } else {
    var small = d;
    var big = n / d;
    if (big < small) {
      var t = small;
      small = big;
      big = t;
    }
    print_int(small);
    print_str(" * ");
    print_int(big);
    print_char(10);
  }
  return 0;
}

fn main() {
  factor(8051);          // 83 * 97
  factor(10403);         // 101 * 103
  factor(121094707);     // 10007 * 12101
  factor(999632189);     // 31567 * 31667
  return 0;
}
|}

let cfrac () = Dh_lang.Interp.program_of_source ~name:"cfrac-sim" cfrac_source

let squid_good_input ~requests =
  let buf = Buffer.create (requests * 32) in
  for i = 1 to requests do
    (* a few repeats so the HIT path is exercised too *)
    Buffer.add_string buf (Printf.sprintf "http://example.com/page%d\n" (i mod 7))
  done;
  Buffer.contents buf

let squid_attack_input ~requests =
  let buf = Buffer.create ((requests * 32) + 256) in
  for i = 1 to requests do
    if i = (requests / 2) + 1 then
      Buffer.add_string buf (String.make 200 'A' ^ "\n")  (* ill-formed *)
    else
      Buffer.add_string buf (Printf.sprintf "http://example.com/page%d\n" (i mod 7))
  done;
  Buffer.contents buf
