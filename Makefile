GO ?= go

.PHONY: build vet test race bench-smoke bench-pair doc-check fuzz-smoke chaos-smoke obs-smoke flight-smoke stress verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repo benchmark's own smoke test (1/50 of the fixed work, ~3 s).
# bench/ is a nested module that `go build ./... && go test ./...` does
# not reach, so this is what notices an API change breaking the harness.
bench-smoke:
	cd bench && $(GO) test ./...

# Parent-vs-change comparison of one workload of the repo benchmark:
# REF is archived into a throw-away directory, each tree runs its own
# bench/run.sh, the two alternate over seeds 41.. and the table gives
# median [quartiles] per end-to-end metric beside its BENCHMARK.json
# bound. e.g. `make bench-pair WORKLOAD=bulk_select PAIRS=10`.
WORKLOAD ?=
PAIRS ?= 5
REF ?= HEAD~1
bench-pair:
	bash scripts/benchpair.sh "$(WORKLOAD)" "$(PAIRS)" "$(REF)"

# Every `make <target>`, cmd/<x>, examples/<x> and Test…/Fuzz… function
# the documents name exists, and every name in a -run pattern below
# still matches a test.
doc-check:
	bash scripts/doccheck.sh

# Seed-corpus smoke for the fuzz targets (the wire parsers, the httpx
# head parser and the synthetic content definition): runs each corpus as
# regular tests plus a short randomized burst, so CI exercises their
# invariants without an open-ended fuzz session.
fuzz-smoke:
	$(GO) test ./internal/registry/ -run '^Fuzz' -fuzz FuzzParseRequest -fuzztime 10s
	$(GO) test ./internal/registry/ -run '^Fuzz' -count=1
	$(GO) test ./internal/httpx/ -run '^Fuzz' -fuzz FuzzReadRequest -fuzztime 10s
	$(GO) test ./internal/httpx/ -run '^Fuzz' -fuzz FuzzReadResponse -fuzztime 10s
	$(GO) test ./internal/httpx/ -run '^Fuzz' -count=1
	$(GO) test ./internal/relay/ -run '^Fuzz' -fuzz FuzzContentSplit -fuzztime 10s
	$(GO) test ./internal/relay/ -run '^Fuzz' -count=1

# The chaos tier: the fault-injection regression tests under the race
# detector (packet faults on the simulator, connection faults on the
# shaper's listener, the bug-sweep regressions they pinned), then the
# full nine-class campaign with its JSON scorecard and the anomaly
# debug bundles the flight trigger engine captured per live fault
# class (archived as a CI artifact).
chaos-smoke:
	$(GO) test -race -count=1 ./internal/simnet/ ./internal/shaper/ \
		-run 'Fault|Listener|Burst'
	$(GO) test -race -count=1 ./internal/relay/ ./internal/realnet/ ./internal/obs/ \
		-run 'Chaos|WarmFetch|Forward|Taxonomy|FillForward|CachedRelay'
	$(GO) test -race -count=1 . -run 'Chaos'
	$(GO) run ./cmd/indirectlab -exp chaos -scale quick -chaos-json chaos.json -chaos-bundle-dir chaos-bundles

# The observability tier: the fetch -fleet e2e (a live registry and
# three loopback relays read over real HTTP, an induced upstream death,
# a relay that stops answering), the striped-counter and exemplar
# correctness suite, the tail-retention policy tests, concurrent
# structured logging, and the scraped-exemplar -> stitched-trace
# acceptance path — all under the race detector.
obs-smoke:
	$(GO) test -race -count=1 ./cmd/fetch/ ./internal/obs/slogx/
	$(GO) test -race -count=1 ./internal/obs/ \
		-run 'Striped|StripePicker|Exemplar|Tail|OpenMetrics|Accepts|ClassicByteCompatible|Runtime|HistogramSum|HistogramEdges'
	$(GO) test -race -count=1 ./internal/realnet/ -run 'ExemplarResolvesToStitchedTrace'

# The flight-recorder tier: the whole wide-event/profiler/trigger
# package under the race detector (ring rotation, trigger rate limiting,
# bundle assembly), the realnet and relay wide-event integrations, the
# health-transition callback that fires the bundles, and the daemon debug
# surfaces (/debug/requests, /debug/active, /debug/bundle, /debug/stack).
flight-smoke:
	$(GO) test -race -count=1 ./internal/obs/flight/
	$(GO) test -race -count=1 ./internal/realnet/ ./internal/relay/ -run 'Flight'
	$(GO) test -race -count=1 ./internal/obs/ -run 'HealthOnTransition'
	$(GO) test -race -count=1 ./internal/daemon/ -run 'AllDaemonMetricsPagesLint'

# The determinism tier: the packages whose tests read what a request
# leaves behind (spans, wide events, histograms, health folds, cache and
# byte counters), the shaper the chaos tests inject faults with, the
# object cache's buffer-reuse invariant (no buffer rewritten while a
# reader holds it), the codec's recycled heads and the engine's shared
# cancellation errors, twenty times over under the race detector; the
# whole root package (the facade's accounting and the live end-to-end
# tests) ten times under it; the quick report against its golden five
# times (before the report was a function of -seed it differed one run in
# two); then the repo benchmark's smoke test ten times. Everything those
# tests read either lands before the final byte or is waited for with
# WaitIdle, so one failure here is a bug, not a flake.
stress:
	$(GO) test -race -count=20 ./internal/relay/ ./internal/realnet/ ./internal/obs/flight/ ./internal/obs/ ./internal/shaper/ ./internal/objcache/ ./internal/httpx/ ./internal/core/
	$(GO) test -race -count=10 .
	$(GO) test -count=5 ./cmd/indirectlab -run QuickReportGolden
	cd bench && $(GO) test -count=10 ./...

# The CI tier: static checks plus the full suite under the race detector.
verify: vet race
