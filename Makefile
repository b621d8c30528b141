GO ?= go

.PHONY: build vet cross test race examples-smoke bench-smoke relay-bench-smoke registry-bench-smoke obs-bench-smoke bench-pair doc-check fuzz-smoke chaos-smoke obs-smoke flight-smoke stress verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The other builds: the non-amd64 one, where the content kernels'
# scalar fallback (content_other.go) and everything else compile, and
# vet, without the AVX-512 assembly; and the non-Linux ones, where the
# object cache's span buffers fall back to the heap (mmap_other.go).
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...
	GOOS=windows $(GO) build ./...
	GOOS=darwin $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Each example built and run once: quickstart, planetlab and adaptive on
# the simulator, realrelay and multipath on loopback TCP (~11 s in all on
# a 2-vCPU machine, most of it the two loopback ones). Nothing else runs
# them, so this is what notices an example that no longer runs.
EXAMPLES = quickstart planetlab adaptive realrelay multipath
examples-smoke:
	@for e in $(EXAMPLES); do \
		echo "== examples/$$e"; \
		$(GO) run ./examples/$$e || exit 1; \
	done

# The repo benchmark's own smoke test (1/50 of the fixed work, ~3 s).
# bench/ is a nested module that `go build ./... && go test ./...` does
# not reach, so this is what notices an API change breaking the harness.
bench-smoke:
	cd bench && $(GO) test ./...

# One iteration of every benchmark in internal/relay (the forward path's
# flight-store pricing, the writes that carry an 8 MiB response, the
# content kernels), so none of them rots unbuilt and unrun.
relay-bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/relay/

# One iteration of every benchmark in internal/registry (the full sync a
# mirror starts from, the server's full answer, the mirror's and the
# server's top ten, the wire's ranked listing, all on a 40k-relay
# table), so none of them rots.
registry-bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/registry/

# One iteration of every benchmark in internal/obs (a client operation's
# fold and a traced request-latency observation, each from 8 goroutines
# on two Ps under -cpu 2), so none of them rots.
obs-bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/obs/

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

# Every `make <target>`, cmd/<x>, examples/<x>, Test…/Fuzz… function and
# package-qualified Go name (repro.X, obs.X, …) the documents name
# exists, as does every such Go name a comment line outside bench/ names,
# and every name in a -run pattern below still matches a test.
doc-check:
	bash scripts/doccheck.sh

# Seed-corpus smoke for the fuzz targets (the wire parsers and their
# agreement with the strings.Fields parsers they replaced, the httpx
# head parser and the synthetic content definition): runs each corpus as
# regular tests plus a short randomized burst, so CI exercises their
# invariants without an open-ended fuzz session.
fuzz-smoke:
	$(GO) test ./internal/registry/ -run '^Fuzz' -fuzz FuzzParseRequest -fuzztime 10s
	$(GO) test ./internal/registry/ -run '^Fuzz' -fuzz FuzzSplitMatchesFields -fuzztime 10s
	$(GO) test ./internal/registry/ -run '^Fuzz' -count=1
	$(GO) test ./internal/httpx/ -run '^Fuzz' -fuzz FuzzReadRequest -fuzztime 10s
	$(GO) test ./internal/httpx/ -run '^Fuzz' -fuzz FuzzReadResponse -fuzztime 10s
	$(GO) test ./internal/httpx/ -run '^Fuzz' -count=1
	$(GO) test ./internal/relay/ -run '^Fuzz' -fuzz FuzzContentSplit -fuzztime 10s
	$(GO) test ./internal/relay/ -run '^Fuzz' -count=1

# The chaos tier: the fault-injection regression tests under the race
# detector (packet faults on the simulator, connection faults on the
# shaper's listener, the bug-sweep regressions they pinned, the live
# classes giving one scorecard per seed on their logical clock), then the
# full nine-class campaign with its JSON scorecard and the anomaly
# debug bundles the flight trigger engine captured per live fault
# class (archived as a CI artifact).
chaos-smoke:
	$(GO) test -race -count=1 ./internal/simnet/ ./internal/shaper/ \
		-run 'Fault|Listener|Burst'
	$(GO) test -race -count=1 ./internal/relay/ ./internal/realnet/ ./internal/obs/ \
		-run 'WarmFetch|Forward|Taxonomy|FillForward|CachedRelay'
	$(GO) test -race -count=1 . -run 'Chaos'
	$(GO) test -race -count=1 ./internal/experiment/ -run 'LiveChaosDeterministic'
	$(GO) run ./cmd/indirectlab -exp chaos -scale quick -chaos-json chaos.json -chaos-bundle-dir chaos-bundles

# The observability tier: the fetch -fleet e2e (a live registry and
# three loopback relays read over real HTTP, an induced upstream death,
# a relay that stops answering), the counter, histogram and exemplar
# correctness suite, and the scraped-exemplar -> stitched-trace
# acceptance path — all under the
# race detector. (The flight store's tail-rule tests run with the rest
# of internal/obs/flight in flight-smoke.)
obs-smoke:
	$(GO) test -race -count=1 ./cmd/fetch/
	$(GO) test -race -count=1 ./internal/obs/ \
		-run 'MetricsCounters|Histogram|Exemplar|OpenMetrics|Accepts|ClassicByteCompatible|Runtime'
	$(GO) test -race -count=1 ./internal/realnet/ -run 'ExemplarResolvesToStitchedTrace'

# The flight-recorder tier: the whole store/profiler/trigger package
# under the race detector (ring rotation and the tail rule's eviction,
# trigger rate limiting, bundle assembly, the span archive golden), the
# realnet and relay wide-event integrations, the
# health-transition callback that fires the bundles and the reads that
# must not commit a transition (and so fire one), and the daemon debug
# surfaces (/debug/requests, /debug/active, /debug/bundle, /debug/stack).
flight-smoke:
	$(GO) test -race -count=1 ./internal/obs/flight/
	$(GO) test -race -count=1 ./internal/realnet/ ./internal/relay/ -run 'Flight'
	$(GO) test -race -count=1 ./internal/obs/ -run 'HealthOnTransition|HealthReadsCommitNothing'
	$(GO) test -race -count=1 ./internal/daemon/ -run 'AllDaemonMetricsPagesLint'

# The determinism tier: the packages whose tests read what a request
# leaves behind (spans, wide events, histograms, health folds, cache and
# byte counters), the shaper the chaos tests inject faults with, the
# object cache's buffer-reuse invariant (no buffer rewritten while a
# reader holds it), the codec's recycled heads and the engine's shared
# cancellation errors, twenty times over under the race detector; the
# whole root package (the facade's accounting and the live end-to-end
# tests) and the registry (delta polls through change-log trims beside
# concurrent writers, TTL expiry, heartbeat fan-out) ten times under it; the
# quick report against its golden five
# times (before the report was a function of -seed it differed one run in
# two); RunCampaign and the extension experiments, whose
# selecting processes keep per-campaign state under RunAll's workers,
# three times under the race detector; then the repo benchmark's smoke
# test ten times. Everything those
# tests read either lands before the final byte or is waited for with
# WaitIdle, so one failure here is a bug, not a flake.
stress:
	$(GO) test -race -count=20 ./internal/relay/ ./internal/realnet/ ./internal/obs/flight/ ./internal/obs/ ./internal/shaper/ ./internal/objcache/ ./internal/httpx/ ./internal/core/
	$(GO) test -race -count=10 . ./internal/registry/
	$(GO) test -count=5 ./cmd/indirectlab -run QuickReportGolden
	$(GO) test -race -count=3 ./internal/experiment/ -run 'RunCampaign|RunAll|Adaptive|Monitored|Multipath|Background'
	cd bench && $(GO) test -count=10 ./...

# The CI tier: static checks plus the full suite under the race detector.
verify: vet race
