# Convenience targets for the DieHard reproduction.

.PHONY: all build test size hot-calls profile perf-pairs bench bench-quick bench-scaling bench-space bench-serve obs-check audit-check examples check clean

all: build

build:
	dune build @all

test:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

# The code's size: library lines, modules, top-level .mli vals and
# optional parameters in .mli files, plus the bench harness's and the
# CLI's lines — the figures ROADMAP's Recent section quotes — and the
# library's process-wide mutable values: top-level bindings (on one line
# or the next) to an Atomic.make, ref, Hashtbl.create, Mutex.create or
# Domain.DLS value.  Last, the .mli vals that no code outside their own
# module in lib/, bench/, bin/ or examples/ calls, counted exactly from
# the typed trees that `dune build @check` writes
# (tools/interface_callers.ml): each must carry an "Oracle:" note (tests
# reach it) or a "Benchmark:" note (perfbench does), and the target
# fails naming any that has none.  CI's build job runs it on every run.
size:
	@dune build @check ./tools/interface_callers.exe
	@echo "lib lines:           $$(cat lib/*/*.ml lib/*/*.mli | wc -l)"
	@echo "bench lines:         $$(cat bench/*.ml | wc -l)"
	@echo "bin lines:           $$(cat bin/*.ml | wc -l)"
	@echo "lib modules:         $$(ls lib/*/*.ml | wc -l)"
	@echo "mli vals:            $$(cat lib/*/*.mli | grep -c '^val ')"
	@echo "optional parameters: $$(cat lib/*/*.mli | grep -o '?[a-z_0-9]*:' | wc -l)"
	@echo "lib mutable globals: $$(cat lib/*/*.ml | awk '/^let /{d=$$0; if (d ~ /= *$$/) {getline n; d = d " " n}; \
		if (d ~ /^let [a-z_0-9]+( *:[^=]*)? *= *(Atomic\.make|ref[ (]|Hashtbl\.create|Mutex\.create|Domain\.DLS)/) c++} \
		END {print c+0}')"
	@_build/default/tools/interface_callers.exe _build/default

# Whether the hot paths of the release build inline what they must:
# objdump's relocations of DieHard's small-object malloc and free may
# name no bitmap, size-class, stats, draw or audit step, and the MiniC
# interpreter's no fuel burn or Raw policy access
# (tools/hot_calls.sh, which exits 1 naming each call).  CI's build job
# runs it on every run.
hot-calls:
	@dune build ./lib/core/diehard.cmxa ./lib/lang/dh_lang.cmxa ./lib/obs/dh_obs.cmxa
	@sh tools/hot_calls.sh _build/default

# A clock profile of one repo-benchmark workload (WORKLOAD=serve, alloc
# or minic; minic by default): gprofng samples perfbench.exe for about
# 20 s and prints the 30 functions with the most exclusive CPU time.
# It profiles the release build that dune-workspace selects, the same
# build perfbench/run.py times, so cross-module inlining shows as it runs.
# The sample count is the "Total CPU" line; on some virtual machines the
# collector keeps only a fraction of its timer's samples and warns that
# the "interval timer period was changed".
WORKLOAD ?= minic

profile:
	@command -v gprofng > /dev/null || { echo "make profile: gprofng is not installed"; exit 1; }
	dune build ./perfbench/perfbench.exe
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	gprofng collect app -o "$$tmp/run.er" $(CURDIR)/_build/default/perfbench/perfbench.exe \
		--workload $(WORKLOAD) --seed 1 --seconds 20 --trace 0 --out "$$tmp/out" > /dev/null && \
	gprofng display text -limit 30 -functions "$$tmp/run.er"

# Paired timing of one repo-benchmark workload against a git revision
# (BASE=HEAD by default): BASE is checked out into a temporary git
# worktree, and perfbench/run.py runs there and in the working tree for
# PAIRS pairs of SECONDS-second runs on seeds 101, 102, ..., alternating
# which side runs first.  Prints each end-to-end metric's median per
# side, the per-pair ratio range and in how many pairs the change was
# better, then the same for the freelist-lea reference side
# (freelist_wall_s); it gates nothing.  RAW=FILE also writes every run's
# metrics to FILE as JSON lines.  The worktree is removed afterwards.
BASE ?= HEAD
PAIRS ?= 10
SECONDS ?= 10
RAW ?=

perf-pairs:
	python3 tools/perf_pairs.py --base $(BASE) --workload $(WORKLOAD) \
		--pairs $(PAIRS) --seconds $(SECONDS) $(if $(RAW),--raw $(RAW))

bench:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

bench-quick:
	dune exec bench/main.exe -- quick

# The throughput gate, full size: the parallel scaling sweep (jobs
# 1, 2, 4, 8 up to max(2, cores)) with its speedup/efficiency table,
# bulk/bytewise bandwidth, rewind recovery and the obs budget, plus the
# allocation and write-path rates against the committed
# BENCH_throughput.json, which it then rewrites.  It only times: on a
# >= 2-core machine jobs=2 must beat jobs=1 in wall-clock (single-core
# runners skip that check with a note).  That parallel runs equal
# sequential ones is checked by `make test` (suite parallel).
bench-scaling:
	dune exec bench/main.exe -- throughput-gate

# Runs bench/main.exe in a fresh scratch directory, so a quick or
# traced gate neither compares against nor overwrites the committed
# BENCH_*.json baselines.
SCRATCH_BENCH = tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && cd "$$tmp" && \
	$(CURDIR)/_build/default/bench/main.exe

# The §4.5 space gate: run the meshing frontier (touched pages
# with/without page meshing per workload), rewrite BENCH_space.json,
# and fail unless some workload's full-mode touched-page reduction
# reaches 2x — the cap pair-only meshing can deliver, so the gate
# catches any regression in the mesher (see DESIGN.md, "Page
# meshing").  CI smoke runs the quick variant with a relaxed 1.5x bar.
bench-space:
	dune exec bench/main.exe -- space-gate

# The serve-loop SLO gate: full-scale serve bench (2M Zipf requests
# with attack injection under the supervisor), rewrites
# BENCH_serve.json, and fails on any deterministic regression —
# a seed that stops surviving, or an output checksum diverging from
# the committed baseline.  The wall-clock SLO-compliance gate is live
# on >= 2-core machines and skips loudly on single-core runners, where
# scheduling noise (not the allocator) sets the tail.  CI smoke runs
# the quick variant.
bench-serve:
	dune exec bench/main.exe -- serve-gate

# Telemetry + checkpoint gate, two legs.  First an untraced full
# throughput gate against the committed baseline: the obs-disabled
# allocation path and the no-checkpoint write path (dirty-page tracking
# is always on) must stay within 5% of the committed floor, rewind
# recovery must beat from-scratch retry, and the run rewrites
# BENCH_throughput.json.  (That the rewound output equals the scratch
# output is checked by `make test`, suite checkpoint.)  Then a quick traced run in a
# scratch directory: --trace builds every address space the bench's runs
# make with telemetry on, which sinks the rates, so its report records
# traced=true and is never compared with an untraced baseline.  The trace must parse as JSON and
# cover the heap/GC/supervisor/replica spans the inspector expects.
obs-check:
	dune build @all
	dune exec bench/main.exe -- throughput-gate
	$(SCRATCH_BENCH) quick throughput-gate --trace $(CURDIR)/obs_trace.json
	python3 -m json.tool obs_trace.json > /dev/null
	dune exec bin/diehard_cli.exe -- obs obs_trace.json \
		--expect heap.malloc,gc.collect,gc.mark,gc.sweep,supervisor.attempt,replica.run
	rm -f obs_trace.json

# The safety-margin audit gate: sweep M over {1.5, 2, 3, 4}, measure
# empirical overflow/dangling masking on the real heap against the
# paper's analytic curves, check the slot-choice entropy behind the
# uniformity assumption, rewrite BENCH_audit.json, and fail if any
# point deviates beyond the declared statistical tolerance (4 sigma +
# slack; see DESIGN.md, "Safety-margin auditing").  CI smoke runs the
# quick variant.
audit-check:
	dune exec bench/main.exe -- audit-gate

examples:
	dune exec examples/quickstart.exe
	dune exec examples/squid_survival.exe
	dune exec examples/fault_injection.exe
	dune exec examples/replicated_voting.exe
	dune exec examples/minic_tour.exe
	dune exec examples/heap_debugging.exe
	dune exec examples/supervised_run.exe

# Everything CI runs: full build, full test suite (every correctness
# check, the bench geometries' included, and the gate failure-mode
# tests), a smoke run of the survival supervisor that retries twice and
# replays a diagnosis, and a quick
# throughput gate (scaling speedup, rewind speedup, obs budget) in a
# scratch directory, so the committed BENCH_throughput.json stays
# untouched.
check:
	dune build @all
	dune runtest --force
	dune exec bin/diehard_cli.exe -- survive server --requests 2000 --attack-every 97
	$(SCRATCH_BENCH) quick throughput-gate

clean:
	dune clean
