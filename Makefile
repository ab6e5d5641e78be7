# Convenience targets; everything is plain dune underneath.

.PHONY: all ci build opaque-check json-lint api-lint test serve-e2e chaos-e2e figures-e2e serve-demo bench bench-quick bench-full bench-scale bench-compare bench-trend profile figures validate report examples telemetry-demo status-demo clean

all: build

# The full gate: build everything, run the test suites, print the
# trend over the checked-in bench records, take a fresh bench record,
# and judge it against the previous one (fails on hot-path regressions
# > 20% or any fixed-seed counter drift; set EBRC_COMPARE_WARN_ONLY=1
# when a simulator change makes drift intentional).
ci: build opaque-check json-lint api-lint test serve-e2e chaos-e2e figures-e2e bench-trend bench-quick bench-compare

build:
	dune build @all

# The build the simulator's speed rests on: dune-workspace selects the
# release profile, under which dune compiles no lib/ module with
# -opaque (the dev profile does, and then no cross-module call is ever
# inlined), and restores the dev profile's compiler flags. Fails if a
# lib/ module is compiled with -opaque, the default profile's OCaml
# flags differ from the dev profile's, or an event-core caller object
# in lib/sim, lib/net, lib/tcp or lib/tfrc still calls a function it
# should inline (nm -u; each object must still name one call it keeps
# out of line, so a changed symbol mangling cannot pass unchecked), or
# a module other than Engine names the engine's clock cell.
opaque-check:
	sh scripts/opaque_check.sh

# One JSON printer and one reader. Every machine-output writer builds
# an Ebrc_obs.Json.t and renders it with Json.print: fails on a format
# template that builds a JSON object or field ({\" or \":%) anywhere
# in lib/, bin/ or bench/ outside the printer itself and the manifest
# envelope. Every reader decodes through Json's checked field decoders
# (Json.field, Json.int, ...): fails on a lenient lookup
# (Json.member, Json.to_float, Json.to_int or Json.to_string) there
# outside lib/obs/json.ml.
json-lint:
	@! grep -rnE --include='*.ml' '\{\\"|\\":%' lib bin bench \
	  | grep -v -e '^lib/obs/json\.ml:' -e '^lib/serve/manifest\.ml:'
	@! grep -rnE --include='*.ml' --include='*.mli' \
	  'Json\.(member|to_float|to_int|to_string)\b' lib bin bench \
	  | grep -v -e '^lib/obs/json\.ml:'

# A public surface no bigger than its callers: lists every top-level
# val of a lib/**/*.mli that nothing outside its own module calls, or
# that only test/ calls, and fails on any that tools/api_lint/allowlist
# does not name with a reason (and on a stale allowlist entry). Also
# runs under `dune runtest`.
api-lint:
	dune exec tools/api_lint/main.exe -- . tools/api_lint/allowlist

test:
	dune runtest

# End-to-end check of the multi-process sweep service: serve a 6-task
# manifest with 2 workers to completion, resume over a partial store,
# warm-resume with --workers 0, retry a task left with a stale failure
# record, and assert the exit-code contract (0 = all published, 2 =
# bad manifest, 124 = malformed environment knob or flag value).
serve-e2e: build
	sh scripts/serve_ci.sh

# Chaos soak end to end: serve a manifest under injected I/O faults
# and random worker SIGKILLs, corrupt and scrub the store, resume
# fault-free, and assert the healed store is byte-identical to a
# fault-free reference run.
chaos-e2e: build
	sh scripts/chaos_ci.sh

# Every figure as one batch, then every validation check as one batch,
# with no result store, on 1 and on 2 domains: each pair of outputs
# must be byte-identical, and the figures must match the pinned md5 in
# scripts/figures-all.md5 (a deliberate result change re-pins it).
# The figure runs also stream their simulations: the per-run records
# ("run": lines) must match too. The manifest record carries the job
# count and the figure records wall time, so those lines are left out.
# Then the result store: figure 17 with --store, cold and warm, prints
# the same bytes as without a store, the warm run adds no record, and
# the store scrubs clean.
figures-e2e: build
	rm -rf figures-j1.stream figures-j2.stream figures-store
	dune exec bin/ebrc_cli.exe -- figure all -j 1 --stream figures-j1.stream --stream-wall 0 > figures-j1.out
	dune exec bin/ebrc_cli.exe -- figure all -j 2 --stream figures-j2.stream --stream-wall 0 > figures-j2.out
	cmp figures-j1.out figures-j2.out
	md5sum -c scripts/figures-all.md5
	grep '"run":' figures-j1.stream > figures-j1.runs
	grep '"run":' figures-j2.stream > figures-j2.runs
	cmp figures-j1.runs figures-j2.runs
	dune exec bin/ebrc_cli.exe -- validate -j 1 > validate-j1.out
	dune exec bin/ebrc_cli.exe -- validate -j 2 > validate-j2.out
	cmp validate-j1.out validate-j2.out
	dune exec bin/ebrc_cli.exe -- figure 17 > figures-store-none.out
	dune exec bin/ebrc_cli.exe -- figure 17 --store figures-store > figures-store-cold.out
	n=$$(ls figures-store | grep -c '\.json$$'); test "$$n" -gt 0 && echo "$$n" > figures-store.count
	dune exec bin/ebrc_cli.exe -- figure 17 --store figures-store > figures-store-warm.out
	ls figures-store | grep -c '\.json$$' | cmp - figures-store.count
	cmp figures-store-none.out figures-store-cold.out
	cmp figures-store-cold.out figures-store-warm.out
	dune exec bin/ebrc_cli.exe -- scrub figures-store
	rm -rf figures-j1.out figures-j2.out validate-j1.out validate-j2.out \
	  figures-j1.stream figures-j2.stream figures-j1.runs figures-j2.runs \
	  figures-store figures-store-none.out figures-store-cold.out \
	  figures-store-warm.out figures-store.count

# The sweep service end to end, human-sized: write a demo manifest,
# serve it with 2 workers (live fleet progress), then re-serve to show
# the warm resume skipping everything already in the store.
serve-demo: build
	dune exec bin/ebrc_cli.exe -- manifest serve-demo.json --tasks 6 --duration 20
	dune exec bin/ebrc_cli.exe -- serve serve-demo.json --workers 2
	dune exec bin/ebrc_cli.exe -- serve serve-demo.json --workers 0
	@echo
	@echo "serve-demo.json       : the sweep manifest (canonical hex-float JSON)"
	@echo "serve-demo.json.queue : task queue (tasks/ + leases/) and store/ with"
	@echo "                        one content-addressed record per task; re-running"
	@echo "                        'serve' is a warm resume and completes instantly."

# Regenerate every paper figure (quick mode) plus the micro-benchmarks;
# writes BENCH_<date>.json. Set EBRC_JOBS=N to size the domain pool.
bench: bench-quick

bench-quick:
	dune exec bench/main.exe

# Paper-scale sweeps (long).
bench-full:
	EBRC_BENCH_FULL=1 dune exec bench/main.exe

# Just the scale points: flows100k (packet-only scheduler) and flows1m
# (hybrid packet/fluid). No JSON record.
bench-scale:
	EBRC_BENCH_ONLY=scale dune exec bench/main.exe

# Where the droptail kernel's time goes: ~5 s of the perfbench
# droptail task in process, sampled every 100 us by a SIGPROF timer
# and symbolised with nm; prints the minor words allocated per run and
# per event, the top functions and per-module shares. Linux (x86-64 or
# AArch64) with nm on the PATH; not part of ci.
profile:
	dune exec bench/profile.exe

# Judge the newest BENCH_*.json record against the previous one;
# exits non-zero when any hot-path micro-benchmark regressed by more
# than 20%, a fixed-seed counter changed at all, or a determinism gate
# (stream bit-identity, flows1m reruns, sweep-service store identity)
# broke.
bench-compare:
	dune exec bench/compare.exe

# Longitudinal view over the whole BENCH_*.json history: first/last/
# best, per-record slope and regression flags for every hot-path
# timing and fixed-seed counter.
bench-trend:
	dune exec bin/ebrc_cli.exe -- bench-trend

figures:
	dune exec bin/ebrc_cli.exe -- figure all

validate:
	dune exec bin/ebrc_cli.exe -- validate

report:
	dune exec bin/ebrc_cli.exe -- report -o report.md

# Run one figure with full telemetry: structured events + the figure
# batch's span land in telemetry.jsonl / trace.json, and a summary
# table is printed on exit.
telemetry-demo:
	dune exec bin/ebrc_cli.exe -- figure 17 \
	  --telemetry telemetry.jsonl --trace trace.json --telemetry-summary
	@echo
	@echo "telemetry.jsonl : one JSON object per line (metrics, spans, events)"
	@echo "trace.json      : Chrome trace_event format -- open chrome://tracing"
	@echo "                  (or https://ui.perfetto.dev) and load the file to"
	@echo "                  see the batch span and simulated-time events."

# Live observability end to end: stream a figure run to ebrc.stream,
# then render the finished stream with `ebrc status` (while a run is
# still going, the same command in another terminal shows live
# progress and `--once` emits machine-readable JSON).
status-demo:
	dune exec bin/ebrc_cli.exe -- figure 17 --stream ebrc.stream
	dune exec bin/ebrc_cli.exe -- status ebrc.stream
	@echo
	@echo "ebrc.stream : self-describing JSONL (meta/manifest/figure/delta"
	@echo "              records); 'ebrc status --once ebrc.stream' prints"
	@echo "              one JSON object for scripting."

examples:
	dune exec examples/quickstart.exe
	dune exec examples/audio_rate_control.exe
	dune exec examples/bottleneck_sharing.exe
	dune exec examples/many_sources_demo.exe
	dune exec examples/theorem_explorer.exe
	dune exec examples/design_advisor.exe

clean:
	dune clean
	rm -rf serve-demo.json serve-demo.json.queue figures-j1.out figures-j2.out \
	  validate-j1.out validate-j2.out
