# Developer entry points. CI should run `make check`.

GO ?= go

.PHONY: build test vet loc check-runs check-seam check-bench race race-stress fsck-smoke metrics-smoke chaos-smoke dedup-smoke codec-smoke pull-smoke scrub-smoke cluster-smoke fuzz check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Guard against rotting smoke lists: every alternative of every
# `$(GO) test ... -run '<re>' <pkgs>` line in this Makefile must still
# match at least one test in the packages it is run against, so a
# renamed or merged test cannot silently drop out of a smoke target.
check-runs:
	@set -eu; \
	grep -E "^[[:space:]]*\\$$\(GO\) test .*-run '" Makefile | while read -r line; do \
		re=$$(printf '%s\n' "$$line" | sed -E "s/.*-run '([^']*)'.*/\1/"); \
		pkgs=$$(printf '%s\n' "$$line" | sed -E "s/.*-run '[^']*' *//"); \
		for alt in $$(printf '%s' "$$re" | tr '|' ' '); do \
			n=$$($(GO) test -list "$$alt" $$pkgs | grep -c '^Test' || true); \
			test "$$n" -gt 0 || { \
				echo "check-runs FAILED: -run '$$alt' matches no test in $$pkgs"; exit 1; }; \
		done; \
	done; \
	echo "check-runs OK: every -run pattern still matches a test"

# Guard the logical-blob seam: cas.Store alone knows "raw or recipe"
# and a blob store holds its one cas.Store, so cas.For is called where
# a component is built (and by one-shot store-level commands), never
# per operation; and core neither builds recipe keys nor touches the
# cache namespace outside fsck's physical-level CAS pass.
SEAM_FOR_FILES = internal/core/base.go internal/core/dedup.go internal/core/fsck_cas.go \
	internal/scrub/scrub.go internal/server/service.go internal/server/pullclient.go
check-seam:
	@set -eu; \
	sites=$$(grep -rn 'cas\.For(' --include='*.go' internal | grep -v '_test\.go:' || true); \
	for f in $(SEAM_FOR_FILES); do sites=$$(printf '%s\n' "$$sites" | grep -v "^$$f:" || true); done; \
	test -z "$$sites" || { echo "check-seam FAILED: cas.For outside a constructor:"; echo "$$sites"; exit 1; }; \
	n=$$(grep -c 'cas\.For(' $(SEAM_FOR_FILES) | awk -F: '$$2 > 1' | wc -l); \
	test "$$n" -eq 0 || { echo "check-seam FAILED: more than one cas.For in a constructor file"; exit 1; }; \
	leaks=$$(grep -n 'InvalidateRaw\|RecipeKey(' internal/core/*.go | grep -v '_test\.go:' | grep -v '^internal/core/fsck_cas\.go:' || true); \
	test -z "$$leaks" || { echo "check-seam FAILED: core reaches below the seam:"; echo "$$leaks"; exit 1; }; \
	echo "check-seam OK: cas.For only in constructors, no recipe keys or cache calls in core"

# bench/ is a module of its own, so `go build ./... && go test ./...`
# never compiles it — yet it imports internal/ packages. Vet and test
# it here, so a signature change that breaks the benchmark fails
# locally instead of at the next benchmark run.
check-bench:
	$(GO) -C bench vet .
	$(GO) -C bench test .

# Non-test, non-generated Go lines per package under internal/ and
# cmd/ — the number simplification PRs report before and after.
loc:
	@total=0; \
	for d in $$(find internal cmd -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u); do \
		n=$$(find "$$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec grep -L '^// Code generated' {} + | xargs cat | wc -l); \
		printf '%7d %s\n' "$$n" "$$d"; \
		total=$$((total + n)); \
	done; \
	printf '%7d total\n' "$$total"

# Serving-tier concurrency battery: the chunk cache's eviction/promotion
# machinery, the CAS read paths (parallel recover + save + GC +
# eviction with pinned in-flight reads), the background scrubber
# racing saves, recoveries, releases, and GC, and the cluster router's
# membership churn under concurrent routed saves — all under the race
# detector, repeated to shake out schedule-dependent interleavings.
race-stress:
	$(GO) test -race -count=3 -run 'Stress' ./internal/storage/cache ./internal/storage/cas ./internal/scrub ./internal/cluster

# End-to-end durability smoke test through the real CLI and a real
# on-disk store: save a fleet, assert fsck passes, flip a single byte
# in a saved parameter blob, and assert fsck detects the damage.
fsck-smoke: build
	@set -eu; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/mmstore init -dir "$$tmp/store" -approach baseline -n 5 -samples 30 >/dev/null; \
	$(GO) run ./cmd/mmstore fsck -dir "$$tmp/store" >/dev/null; \
	blob="$$tmp/store/blobs/baseline/bl-000001/params.bin"; \
	byte=$$(od -An -tu1 -j100 -N1 "$$blob" | tr -d ' '); \
	printf "$$(printf '\\%03o' $$(( (byte + 1) % 256 )))" | dd of="$$blob" bs=1 seek=100 conv=notrunc status=none; \
	if $(GO) run ./cmd/mmstore fsck -dir "$$tmp/store" >/dev/null 2>&1; then \
		echo "fsck-smoke FAILED: flipped byte not detected"; exit 1; \
	fi; \
	echo "fsck-smoke OK: corruption detected"

# End-to-end observability smoke test: start mmserve on a scratch
# store, save a tiny set over HTTP, and assert /metrics exposes a
# nonzero TTS histogram plus backend counters.
metrics-smoke: build
	@set -eu; \
	tmp=$$(mktemp -d); \
	srv=; \
	trap 'test -z "$$srv" || kill "$$srv" 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/mmserve" ./cmd/mmserve; \
	"$$tmp/mmserve" -dir "$$tmp/store" -addr 127.0.0.1:18471 >/dev/null 2>&1 & srv=$$!; \
	up=; \
	for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:18471/healthz >/dev/null 2>&1; then up=1; break; fi; \
		sleep 0.1; \
	done; \
	test -n "$$up" || { echo "metrics-smoke FAILED: server never came up"; exit 1; }; \
	printf '%s' '{"arch":{"name":"smoke-ffnn","input":[4],"layers":[{"name":"fc1","kind":"linear","in":4,"out":1}]},"num_models":2}' > "$$tmp/manifest.json"; \
	head -c 40 /dev/zero > "$$tmp/params.bin"; \
	curl -sf -F "manifest=<$$tmp/manifest.json" -F "params=@$$tmp/params.bin" \
		http://127.0.0.1:18471/api/baseline/sets >/dev/null; \
	curl -sf http://127.0.0.1:18471/metrics > "$$tmp/metrics.txt"; \
	grep -Eq 'mmm_save_seconds_count\{approach="Baseline"\} [1-9]' "$$tmp/metrics.txt" || { \
		echo "metrics-smoke FAILED: no nonzero TTS histogram"; exit 1; }; \
	grep -q 'mmm_backend_ops_total' "$$tmp/metrics.txt" || { \
		echo "metrics-smoke FAILED: no backend counters"; exit 1; }; \
	echo "metrics-smoke OK: /metrics exposes save timings"

# Resilience smoke test: the chaos suite drives seeded network-fault
# save/recover round trips (injected resets, truncation, 503 bursts),
# graceful-drain and drain-deadline shutdown against a real listener,
# and degraded recovery over HTTP — all under the race detector, since
# drain and retry paths are where data races would hide.
chaos-smoke:
	$(GO) test -race -count=1 -run 'Chaos' ./internal/server

# Dedup smoke test: the U1→U3-3 workload with and without WithDedup
# for every approach — physical bytes must shrink, recovery must stay
# bit-identical, and the chunk lifecycle (prune sharing, GC, fsck,
# crash enumeration, legacy stores, the backend cost of a dedup save
# and release) must hold under the race detector.
dedup-smoke:
	$(GO) test -race -count=1 -run 'TestDedup|TestCrashEnumerationDedup' ./internal/core ./internal/storage/cas

# Codec smoke test: every codec (raw, zlib, tensor-LZ) through the
# real CLI against a real on-disk store — init, an update cycle,
# bit-identical recovery, du, and a flagless fsck — plus the codec
# matrix suite under the race detector. Stores written with any codec
# must read back with none configured.
codec-smoke:
	$(GO) test -race -count=1 -run 'TestCodec|TestPreCodec|TestLegacyCompressed|TestCorruptEncoded|TestDiffDocUnknown|TestDedupCodecShares' ./internal/core
	$(GO) test -race -count=1 ./internal/codec
	@set -eu; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	for codec in none zlib tlz; do \
		dir="$$tmp/store-$$codec"; \
		$(GO) run -race ./cmd/mmstore init -dir "$$dir" -approach update -codec "$$codec" -dedup -n 4 -samples 30 >/dev/null; \
		$(GO) run -race ./cmd/mmstore cycle -dir "$$dir" -approach update -codec "$$codec" -dedup -base up-000001 -samples 30 >/dev/null; \
		$(GO) run -race ./cmd/mmstore recover -dir "$$dir" -approach update -set up-000002 >/dev/null; \
		$(GO) run -race ./cmd/mmstore du -dir "$$dir" > "$$tmp/du.txt"; \
		grep -q "codec $$codec" "$$tmp/du.txt" || { \
			echo "codec-smoke FAILED: du does not report codec $$codec"; exit 1; }; \
		$(GO) run -race ./cmd/mmstore fsck -dir "$$dir" >/dev/null || { \
			echo "codec-smoke FAILED: fsck rejects a $$codec store"; exit 1; }; \
	done; \
	echo "codec-smoke OK: all codecs save, recover, and fsck clean"

# Pull-protocol smoke test: the pull/chunk-endpoint/resume suite under
# the race detector, then the real path end to end — a race-built
# mmserve with a fault-injecting listener, a dedup set saved over HTTP
# through the CLI, and two chunk-wise recoveries against an on-disk
# pull cache (cold fill, then warm re-pull) through the chaotic
# listener.
pull-smoke:
	$(GO) test -race -count=1 -run 'TestPull|TestChunk|TestDecodePullManifest|TestClientClosesBodies' ./internal/server
	@set -eu; \
	tmp=$$(mktemp -d); \
	srv=; \
	trap 'test -z "$$srv" || kill "$$srv" 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -race -o "$$tmp/mmserve" ./cmd/mmserve; \
	"$$tmp/mmserve" -dir "$$tmp/store" -dedup -addr 127.0.0.1:18473 \
		-chaos-seed 7 -chaos-max-faults 6 >/dev/null 2>&1 & srv=$$!; \
	id=$$($(GO) run -race ./cmd/mmstore init -server http://127.0.0.1:18473 \
		-approach baseline -n 6 | sed -n 's/^saved initial set \([^:]*\):.*/\1/p'); \
	test -n "$$id" || { echo "pull-smoke FAILED: init reported no set ID"; exit 1; }; \
	$(GO) run -race ./cmd/mmstore recover -server http://127.0.0.1:18473 \
		-approach baseline -set "$$id" -pull-cache "$$tmp/cache" >/dev/null; \
	chunks=$$(find "$$tmp/cache/cas/chunks" -type f | wc -l); \
	test "$$chunks" -ge 1 || { \
		echo "pull-smoke FAILED: cold pull left no chunks in the cache"; exit 1; }; \
	$(GO) run -race ./cmd/mmstore recover -server http://127.0.0.1:18473 \
		-approach baseline -set "$$id" -pull-cache "$$tmp/cache" >/dev/null; \
	echo "pull-smoke OK: chunk-wise recovery through a chaotic listener, $$chunks chunks cached"

# Self-healing smoke test through the real CLI and real on-disk
# stores: init two byte-identical dedup stores (same deterministic
# seed), flip a byte in one chunk of the first, and run the heal loop —
# scrub detects and quarantines the rot (command fails, recovery fails
# fast), scrub -repair-from a durable mmserve over the second store
# restores the chunk, and fsck plus a verified recovery prove the store
# is whole again.
scrub-smoke: build
	@set -eu; \
	tmp=$$(mktemp -d); \
	srv=; \
	trap 'test -z "$$srv" || kill "$$srv" 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/mmstore init -dir "$$tmp/store" -approach baseline -dedup -n 5 -samples 30 >/dev/null; \
	$(GO) run ./cmd/mmstore init -dir "$$tmp/peer" -approach baseline -dedup -n 5 -samples 30 >/dev/null; \
	chunk=$$(find "$$tmp/store/blobs/cas/chunks" -type f -size +0c | head -n 1); \
	test -n "$$chunk" || { echo "scrub-smoke FAILED: no chunk files"; exit 1; }; \
	byte=$$(od -An -tu1 -j10 -N1 "$$chunk" | tr -d ' '); \
	printf "$$(printf '\\%03o' $$(( (byte + 1) % 256 )))" | dd of="$$chunk" bs=1 seek=10 conv=notrunc status=none; \
	if $(GO) run ./cmd/mmstore scrub -dir "$$tmp/store" -full >/dev/null 2>&1; then \
		echo "scrub-smoke FAILED: rot not detected"; exit 1; \
	fi; \
	if $(GO) run ./cmd/mmstore recover -dir "$$tmp/store" -approach baseline -dedup -set bl-000001 >/dev/null 2>&1; then \
		echo "scrub-smoke FAILED: recover served a quarantined store"; exit 1; \
	fi; \
	$(GO) build -o "$$tmp/mmserve" ./cmd/mmserve; \
	"$$tmp/mmserve" -dir "$$tmp/peer" -dedup -addr 127.0.0.1:18475 >/dev/null 2>&1 & srv=$$!; \
	up=; \
	for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:18475/healthz >/dev/null 2>&1; then up=1; break; fi; \
		sleep 0.1; \
	done; \
	test -n "$$up" || { echo "scrub-smoke FAILED: peer never came up"; exit 1; }; \
	$(GO) run ./cmd/mmstore scrub -dir "$$tmp/store" -full -repair-from http://127.0.0.1:18475 >/dev/null; \
	$(GO) run ./cmd/mmstore fsck -dir "$$tmp/store" >/dev/null; \
	$(GO) run ./cmd/mmstore recover -dir "$$tmp/store" -approach baseline -dedup \
		-set bl-000001 -verify-against bl-000001 >/dev/null; \
	echo "scrub-smoke OK: rot quarantined, healed from peer, store verified whole"

# Cluster smoke test through the real binaries: three mmserve nodes on
# scratch stores behind an mmrouter at R=2, a save workload routed
# through the router, one node killed mid-workload — every set must
# still recover through the router from its surviving replica, and the
# router's /metrics must expose the routed-request series.
cluster-smoke: build
	@set -eu; \
	tmp=$$(mktemp -d); \
	pids=; \
	trap 'for p in $$pids; do kill "$$p" 2>/dev/null || true; done; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/mmserve" ./cmd/mmserve; \
	$(GO) build -o "$$tmp/mmrouter" ./cmd/mmrouter; \
	"$$tmp/mmserve" -dir "$$tmp/node-a" -dedup -addr 127.0.0.1:18481 >/dev/null 2>&1 & pids="$$pids $$!"; \
	"$$tmp/mmserve" -dir "$$tmp/node-b" -dedup -addr 127.0.0.1:18482 >/dev/null 2>&1 & nodeb=$$!; pids="$$pids $$nodeb"; \
	"$$tmp/mmserve" -dir "$$tmp/node-c" -dedup -addr 127.0.0.1:18483 >/dev/null 2>&1 & pids="$$pids $$!"; \
	for port in 18481 18482 18483; do \
		up=; \
		for i in $$(seq 1 50); do \
			if curl -sf "http://127.0.0.1:$$port/healthz" >/dev/null 2>&1; then up=1; break; fi; \
			sleep 0.1; \
		done; \
		test -n "$$up" || { echo "cluster-smoke FAILED: node on $$port never came up"; exit 1; }; \
	done; \
	"$$tmp/mmrouter" -addr 127.0.0.1:18484 -replicas 2 \
		-nodes node-a=http://127.0.0.1:18481,node-b=http://127.0.0.1:18482,node-c=http://127.0.0.1:18483 \
		>/dev/null 2>&1 & pids="$$pids $$!"; \
	up=; \
	for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:18484/readyz >/dev/null 2>&1; then up=1; break; fi; \
		sleep 0.1; \
	done; \
	test -n "$$up" || { echo "cluster-smoke FAILED: router never became ready"; exit 1; }; \
	for i in 1 2 3; do \
		$(GO) run ./cmd/mmstore init -server http://127.0.0.1:18484 -approach baseline -n 4 -seed "$$i" >/dev/null; \
	done; \
	ids=$$(curl -sf http://127.0.0.1:18484/api/baseline/sets | tr '",' '\n\n' | grep '^r-g' || true); \
	test -n "$$ids" || { echo "cluster-smoke FAILED: router lists no saved sets"; exit 1; }; \
	first=$$(printf '%s\n' $$ids | head -n 1); \
	curl -sf "http://127.0.0.1:18484/api/baseline/sets/$$first/params" >/dev/null || { \
		echo "cluster-smoke FAILED: recovery through router before fault"; exit 1; }; \
	kill "$$nodeb"; \
	for id in $$ids; do \
		curl -sf "http://127.0.0.1:18484/api/baseline/sets/$$id/params" >/dev/null || { \
			echo "cluster-smoke FAILED: set $$id unreadable after node kill"; exit 1; }; \
	done; \
	curl -sf http://127.0.0.1:18484/metrics | grep -q 'mmm_http_requests_total' || { \
		echo "cluster-smoke FAILED: router /metrics lacks routed-request series"; exit 1; }; \
	n=$$(printf '%s\n' $$ids | wc -l); \
	echo "cluster-smoke OK: $$n sets survive a node kill behind the router"

# Short-budget fuzzing of the property suites: checksummed blob round
# trips, the sim-vs-dir backend oracle, and chunker reassembly. The
# committed seed corpora under testdata/fuzz/ always run; the small
# time budget adds fresh mutated inputs on top.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzChecksumRoundTrip -fuzztime=10s ./internal/storage/blobstore
	$(GO) test -run=NONE -fuzz=FuzzBackendOracle -fuzztime=10s ./internal/storage/sim
	$(GO) test -run=NONE -fuzz=FuzzChunker -fuzztime=10s ./internal/storage/cas
	$(GO) test -run=NONE -fuzz=FuzzIndexDecode -fuzztime=10s ./internal/storage/cas
	$(GO) test -run=NONE -fuzz=FuzzShuffle -fuzztime=10s ./internal/codec
	$(GO) test -run=NONE -fuzz=FuzzTLZRoundTrip -fuzztime=10s ./internal/codec
	$(GO) test -run=NONE -fuzz=FuzzPullManifestDecode -fuzztime=10s ./internal/server

# The full gate: compile everything (the benchmark module too), vet,
# run the suite twice — once plain, once under the race detector —
# then the durability, observability, resilience, dedup, codec, pull,
# self-healing, and cluster smoke tests and the short fuzz pass.
check: build vet check-runs check-seam check-bench test race race-stress fsck-smoke metrics-smoke chaos-smoke dedup-smoke codec-smoke pull-smoke scrub-smoke cluster-smoke fuzz

bench:
	$(GO) test -bench=. -benchmem
