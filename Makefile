# Build/verify entry points. `make check` is the full gate: vet + race tests.

GO ?= go

.PHONY: build test vet fmt-check race race-obs bench bench-json bench-smoke bench-compare perf-gate profile check report check-gates golden fuzz-smoke check-shards check-lineage check-perfbench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails, listing the files, if any Go file outside the
# hidden build directories is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l $$(find . -name '*.go' -not -path './.*')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# Focused race pass over the concurrency-heavy layers (quick pre-commit).
race-obs:
	$(GO) test -race ./internal/obs/... ./internal/par/...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable bench record: every bench as test2json events, stamped
# with the run date so successive runs accumulate as an experiment log.
# The workers=1 vs workers=4 sub-benches of BenchmarkTable2Colocation and
# BenchmarkSec421PeeringSurvey record the parallel-substrate speedup.
bench-json:
	@f=BENCH_$$(date +%Y-%m-%d).json; n=1; \
	while [ -e $$f ]; do n=$$((n+1)); f=BENCH_$$(date +%Y-%m-%d).$$n.json; done; \
	$(GO) test -run '^$$' -bench . -benchmem -json ./... > $$f && echo "wrote $$f"

# One iteration of every benchmark — a CI smoke test so benches can't bitrot.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# Benchstat-style ratios between the two most recent BENCH_*.json records.
bench-compare:
	@set -- $$(ls -t BENCH_*.json 2>/dev/null | head -2); \
	if [ $$# -lt 2 ]; then echo "bench-compare: need two BENCH_*.json records" >&2; exit 1; fi; \
	$(GO) run ./cmd/benchcompare $$2 $$1

# Perf-trajectory gate: the newest BENCH_*.json record must keep the pinned
# kernel benchmarks (PairDistance, OpticsRun) within 1.3x of their best
# historical ns/op. Records order by the date in their filenames, so the gate
# is identical on every checkout.
perf-gate:
	$(GO) run ./cmd/benchcompare -gate BENCH_*.json

# Execution-timeline profile of a tiny run: Perfetto trace + critical-path /
# worker-utilization analysis printed to stdout.
profile:
	$(GO) run ./cmd/reproduce -tiny -seed 42 -out /tmp/profile-out \
		-manifest /tmp/profile-out/manifest.json -trace /tmp/profile-out/trace.json
	$(GO) run ./cmd/obsprofile -validate-trace /tmp/profile-out/trace.json /tmp/profile-out/manifest.json
	@echo "trace: /tmp/profile-out/trace.json (load in ui.perfetto.dev)"

# fmt-check fails on any file gofmt would change; race-obs runs first so
# concurrency regressions in the observability and parallel substrates fail
# fast, before the full race suite; perf-gate is pure file analysis;
# check-gates reproduces every row of the golden gate table and diffs it
# against its committed manifest; check-lineage queries the lineage row's
# capture with cmd/explain; check-shards proves the huge tier generates and
# streams; check-perfbench vets and tests the benchmark harness against the
# library helpers it calls.
check: build fmt-check vet race-obs race perf-gate check-gates check-lineage check-shards check-perfbench

# The benchmark harness is its own module (perfbench/go.mod), so the root
# ./... patterns never reach it.
check-perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Full reproduction report with provenance manifest.
report:
	$(GO) run ./cmd/reproduce -out out -manifest out/manifest.json

# The golden gate table: one row per determinism gate, as
#   name  mode  golden (under out/)  cmd/reproduce flags
# `make check-gates` reproduces every row into $(GATE_OUT)/<name> and diffs
# its manifest against the golden with cmd/runsdiff, failing on any counter,
# histogram bucket, funnel, digest or stage-sequence drift (wall times and
# gauges are informational) and on a non-zero reproduce exit (a heavy-chaos
# run must come back degraded, not failed). `make golden` regenerates every
# golden from its `gen` row; `check` rows re-run a golden's reference run
# with an output-invariant knob changed (-shards, -workers) and are never
# written. Commit regenerated goldens and say why in the commit message.
#
# Rows: the plain seed-42 tiny run (the default scenario at tiny scale) and
# its -shards 4 twin; the heavy chaos profile; the provenance recorder on
# (lineage digest and per-stage decision counts); the seed-42 flash-crowd
# temporal replay and its -workers 4 twin; and every distinctive named
# scenario at test scale. The registry's tiny/large entries are the default
# world at those scales, so they would only repeat the first row.
GATE_OUT ?= /tmp/gates
define GATES
plain                   gen    golden_manifest.json                         -tiny -seed 42
shards-4                check  golden_manifest.json                         -tiny -seed 42 -shards 4
chaos                   gen    golden_chaos_manifest.json                   -tiny -seed 42 -chaos heavy -chaos-seed 7
lineage                 gen    golden_lineage_manifest.json                 -tiny -seed 42 -lineage $(GATE_OUT)/lineage/lineage.jsonl
temporal                gen    golden_temporal_manifest.json                -tiny -seed 42 -hours 24 -schedule schedules/ios-flash-crowd.json
temporal-workers-4      check  golden_temporal_manifest.json                -tiny -seed 42 -workers 4 -hours 24 -schedule schedules/ios-flash-crowd.json
open-connect-everywhere gen    golden_scenario_open-connect-everywhere.json -scenario open-connect-everywhere -tiny -seed 42
ios-flash-crowd         gen    golden_scenario_ios-flash-crowd.json         -scenario ios-flash-crowd -tiny -seed 42
meta-cdn                gen    golden_scenario_meta-cdn.json                -scenario meta-cdn -tiny -seed 42
ocdn                    gen    golden_scenario_ocdn.json                    -scenario ocdn -tiny -seed 42
endef
export GATES

check-gates:
	@mkdir -p $(GATE_OUT)
	$(GO) build -o $(GATE_OUT)/reproduce ./cmd/reproduce
	$(GO) build -o $(GATE_OUT)/runsdiff ./cmd/runsdiff
	@echo "$$GATES" | while read -r name mode golden flags; do \
		echo "== gate $$name ($$mode): $$flags"; \
		mkdir -p $(GATE_OUT)/$$name; \
		$(GATE_OUT)/reproduce $$flags -out $(GATE_OUT)/$$name -manifest $(GATE_OUT)/$$name/manifest.json || exit 1; \
		$(GATE_OUT)/runsdiff out/$$golden $(GATE_OUT)/$$name/manifest.json || exit 1; \
	done

golden:
	@mkdir -p $(GATE_OUT)
	$(GO) build -o $(GATE_OUT)/reproduce ./cmd/reproduce
	@echo "$$GATES" | while read -r name mode golden flags; do \
		[ "$$mode" = gen ] || continue; \
		echo "== golden $$golden: $$flags"; \
		mkdir -p $(GATE_OUT)/$$name; \
		$(GATE_OUT)/reproduce $$flags -out $(GATE_OUT)/$$name -manifest out/$$golden || exit 1; \
	done

# Short live-fuzz pass over every fuzz target (one target per invocation, as
# the toolchain requires) — keeps the fuzz harnesses and seed corpora honest
# without burning CI time.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test ./internal/cert -run '^FuzzMatchPattern$$' -fuzz '^FuzzMatchPattern$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cert -run '^FuzzFingerprint$$' -fuzz '^FuzzFingerprint$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/offnetmap -run '^FuzzRuleMatches$$' -fuzz '^FuzzRuleMatches$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rdns -run '^FuzzExtractMetro$$' -fuzz '^FuzzExtractMetro$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rdns -run '^FuzzLearnedExtract$$' -fuzz '^FuzzLearnedExtract$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/scenario -run '^FuzzParseSchedule$$' -fuzz '^FuzzParseSchedule$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/scenario -run '^FuzzParse$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs -run '^FuzzReadManifest$$' -fuzz '^FuzzReadManifest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netaddr -run '^FuzzParseAddr$$' -fuzz '^FuzzParseAddr$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netaddr -run '^FuzzParsePrefix$$' -fuzz '^FuzzParsePrefix$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/inet -run '^FuzzReadWorld$$' -fuzz '^FuzzReadWorld$$' -fuzztime $(FUZZTIME)

# Lineage evidence queries: cmd/explain must answer from the capture the
# lineage gate row wrote — a populated Table 1 cell comes back with its
# evidence chain (explain exits 1 on no match).
check-lineage: check-gates
	$(GO) run ./cmd/explain -lineage $(GATE_OUT)/lineage/lineage.jsonl -isp 10000 -hg Akamai > /dev/null
	$(GO) run ./cmd/explain -lineage $(GATE_OUT)/lineage/lineage.jsonl -list

# Huge-tier smoke: generate the huge tier (generation only, no deployment),
# spill it to a snapshot, and stream it back — bounded wall-clock proof that
# 50k+-entity worlds build and load. (The -shards output-invariance half of
# the shard gate is the shards-4 row of the gate table.)
check-shards:
	@rm -f /tmp/huge-smoke.ofnw
	$(GO) run ./cmd/offnetgen -scenario huge -seed 42 -gen-only -snapshot /tmp/huge-smoke.ofnw
	$(GO) run ./cmd/offnetgen -scenario huge -seed 42 -gen-only -snapshot /tmp/huge-smoke.ofnw
