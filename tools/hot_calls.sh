#!/bin/sh
# Checks, in the release objects, that the hot paths call only what they
# must: every step listed below inlines into its caller.  It reads each
# function's call and address relocations from `objdump -dr` and exits 1,
# naming the caller and the callee, when a hot function references a
# listed callee, or when a hot function is missing from its object (a
# renamed function would otherwise pass unseen).  Symbols are matched by
# name up to their numeric suffix (camlDh_alloc__Bitmap.get_388 is
# Bitmap.get).  The out-of-line rare paths (a range check's raise, the
# audit's array growth, the rejection draw, a site table's widening) are
# not listed, so their calls pass.
#
# The same reading checks that DieHard's malloc and free and the trace
# ring's record allocate nothing: a reference to caml_call_gc (a minor
# heap allocation's slow path) or caml_alloc* fails them.  An
# allocation inside a called C primitive (Bytes.create, Array.make) is
# not seen here; test_heap's minor-word pins see it.  probe_slot and
# region_from are left out of that check: each is a recursive
# function, and OCaml 5 puts a caml_call_gc poll point in it that
# allocates nothing.
#
# Usage: tools/hot_calls.sh [BUILD_DIR]   (default _build/default; run
# `make hot-calls`, which builds the objects first)
set -eu

build=${1:-_build/default}
heap=$build/lib/core/.diehard.objs/native/diehard__Heap.o
interp=$build/lib/lang/.dh_lang.objs/native/dh_lang__Interp.o
tracing=$build/lib/obs/.dh_obs.objs/native/dh_obs__Tracing.o
status=0

# check OBJECT CALLERS CALLEES [WHAT]: CALLERS and CALLEES are extended
# regexps over symbol names without their "_<digits>" suffix; WHAT names
# the fault in the report.
check() {
  obj=$1 callers=$2 callees=$3 what=${4:-"calls what should inline"}
  if [ ! -f "$obj" ]; then
    echo "hot-calls: $obj is not built" >&2
    exit 1
  fi
  # The regexps reach awk through the environment, which keeps their
  # backslashes (a -v assignment would process them as escapes).
  report=$(objdump -dr "$obj" | callers="^($callers)\$" callees="^($callees)\$" awk '
    BEGIN { callers = ENVIRON["callers"]; callees = ENVIRON["callees"] }
    function base(s) { sub(/[-+]0x[0-9a-f]+$/, "", s); sub(/_[0-9]+$/, "", s); return s }
    /^[0-9a-f]+ <.*>:$/ {
      fn = base(substr($2, 2, length($2) - 3))
      hot = fn ~ callers
      if (hot) seen[fn] = 1
      next
    }
    hot && $2 ~ /^R_/ && base($3) ~ callees { print "  " fn " calls " base($3) }
    END { for (f in seen) print "seen " f }')
  for f in $(echo "$callers" | tr '|' ' '); do
    if ! echo "$report" | grep -qx "seen $f"; then
      echo "hot-calls: no function matches $f in $obj" >&2
      status=1
    fi
  done
  calls=$(echo "$report" | grep -v '^seen ' | sort | uniq -c || true)
  if [ -n "$calls" ]; then
    echo "hot-calls: $obj $what:" >&2
    echo "$calls" >&2
    status=1
  fi
}

# DieHard's small-object malloc and free.
check "$heap" \
  'camlDiehard__Heap\.malloc|camlDiehard__Heap\.malloc_small|camlDiehard__Heap\.probe_slot|camlDiehard__Heap\.free' \
  'camlDh_alloc__Bitmap\.(get|set|clear|check)|camlDh_alloc__Size_class\.(size|of_size|of_size_exn|ceil_log2|is_aligned)|camlDh_alloc__Stats\.on_(malloc|free)|camlDh_rng__Mwc\.(below|next_u32)|camlDh_obs__Audit\.(record_alloc|record_free|slot_bucket)|camlDiehard__Heap\.(ensure_mapped|observe_malloc|site_get|site_set|site_put)'

# They allocate nothing, obs on or off, and neither does recording a
# trace event.
allocation='caml_call_gc|caml_alloc.*'
check "$heap" \
  'camlDiehard__Heap\.malloc|camlDiehard__Heap\.malloc_small|camlDiehard__Heap\.free' \
  "$allocation" allocates
check "$tracing" 'camlDh_obs__Tracing\.record' "$allocation" allocates

# The MiniC interpreter, every function of it: fuel and the Raw access
# policy inline into each compiled closure.
check "$interp" 'camlDh_lang__Interp\..*' \
  'camlDh_mem__Process\.burn|camlDh_alloc__Policy\.(load|store|load8|store8)'

if [ "$status" -eq 0 ]; then echo "hot-calls: ok"; fi
exit "$status"
