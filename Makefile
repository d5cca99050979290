GO ?= go
# FUZZTIME bounds each fuzz-smoke target; CI overrides it (e.g. FUZZTIME=10s)
# to trade exploration depth for turnaround.
FUZZTIME ?= 30s

# CHAOS_DATA names a directory the cluster chaos drill runs in and keeps
# (CI sets it and uploads the directory as an artifact when the audit
# fails). Empty, the default, uses a temp dir removed on success.
CHAOS_DATA ?=

.PHONY: build vet fmt-check e2ebench-vet staticcheck test race bench bench-smoke smoke faults assert-smoke fuzz-smoke serve-smoke chaos-smoke verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails, listing the files, when gofmt would rewrite any Go
# file in the tree (the e2ebench module included).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$out"; exit 1; fi

# The e2ebench benchmark is its own module, so build and vet above never
# compile it. Vetting it catches a change that drops an identifier it uses;
# vet, unlike go build, leaves no binary behind.
e2ebench-vet:
	cd e2ebench && GOWORK=off GOFLAGS=-mod=mod $(GO) vet ./...

# Static analysis beyond vet. The tool is not vendored, so the target
# no-ops with a notice when it is absent (CI installs it; locally:
# go install honnef.co/go/tools/cmd/staticcheck@2024.1.1).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2024.1.1)"; \
	fi

test:
	$(GO) test ./...

# The race detector exercises the trial-sharded campaign runner, the shared
# worker pool, the copy-on-write machine clones and the resilient
# cancellation/checkpoint paths under contention. The timeout bounds a hung
# campaign (the exact failure mode the per-trial watchdog exists to prevent)
# so verify cannot wedge CI.
race:
	$(GO) test -race -timeout 10m ./...

# Serial-vs-parallel campaign engine comparison plus the Clone micro-costs,
# then the trace-replay A/B pairs and the RI index cipher (table-driven vs
# its bit-serial reference) aggregated into BENCH_campaign.json (the
# checked-in record of the capture-once/replay-everywhere speedup; medians
# across -count runs, so one noisy run cannot skew it). The Table 4 rungs
# include the RF campaign on the checked path (Table4SecurityEvalRFChecked:
# interpreter plus assertion monitor) and the miss-heavy FA campaign. The
# Translate rungs (every design's hit and miss path apart, plus FA 128), the
# cipher and monitored-Translate run on time-based benchtime: a fixed 20
# iterations of a call that takes nanoseconds to microseconds would time the
# benchmark loop, not the call.
bench:
	$(GO) test -run xxx -bench 'RunVulnerability|RunAll(Serial|Parallel)' -benchtime 2x .
	$(GO) test -run xxx -bench Clone ./internal/mem/ ./internal/cpu/
	{ $(GO) test -run xxx -bench 'Table4SecurityEval(RF|RI|FS|FA)|Campaign(TraceReplay|FullExec)|Figure7(TraceReplay|FullExec)' \
		-benchmem -benchtime 20x -count 5 . && \
	  $(GO) test -run xxx -bench '^BenchmarkTranslate$$' -benchmem -benchtime 1s -count 5 . && \
	  $(GO) test -run xxx -bench PrinceEncrypt -benchtime 1s -count 5 ./internal/tlb/ && \
	  $(GO) test -run xxx -bench Translate -benchmem -benchtime 1s -count 5 ./internal/assert/; } | \
		$(GO) run ./cmd/benchjson -out BENCH_campaign.json

# One-iteration pass over every benchmark: proves each still assembles its
# experiment and meets its internal checks (defended counts, row counts)
# without paying for statistically meaningful timings. Part of verify/CI so
# a refactor cannot silently break the benchmark harness.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x -timeout 10m ./...

# End-to-end resilience smoke: SIGINT a real secbench run, resume it from
# the checkpoint, and require bit-identical output — plus the in-process
# quarantine, cancellation and checkpoint determinism tests.
smoke:
	$(GO) test -count=1 -timeout 60s ./internal/checkpoint/
	$(GO) test -count=1 -timeout 60s -run 'InterruptResume|FreshCheckpoint|Resilient|Quarantin|Checkpoint|Cancel' ./internal/secbench/ ./cmd/secbench/

# Fast differential fault matrix: every registered fault site injected into
# real campaigns, exit non-zero on silent corruption or an undetected site.
faults:
	$(GO) run ./cmd/faultbench -trials 8 -vulns 2

# Assertion-layer smoke: the full design x fault-site matrix in one
# invocation at one trial per cell. Detection is not required at this depth
# (-require-detect=false) but any silent corruption still fails, proving the
# one-shot battery wiring end to end in seconds.
assert-smoke:
	$(GO) run ./cmd/faultbench -trials 1 -vulns 1 -require-detect=false

# Short native-fuzzing pass over the assembler, the binary program decoder,
# the trace codec, the checkpoint loader and the RI TLB's index cipher (the
# checked-in corpora under testdata/fuzz and each target's seeds run in
# plain `go test`; this explores beyond them). Every checkpoint input costs
# file writes and reads, so minimizing a new input at the default 60s would
# stall that target for most of its budget; it gets 5s.
fuzz-smoke:
	$(GO) test -fuzz FuzzAssemble -fuzztime $(FUZZTIME) ./internal/asm/
	$(GO) test -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/isa/
	$(GO) test -fuzz FuzzTraceDecode -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz FuzzCheckpointLoad -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/checkpoint/
	$(GO) test -fuzz FuzzRandIdxCipher -fuzztime $(FUZZTIME) ./internal/tlb/

# End-to-end daemon smoke: start tlbserved, submit a job over HTTP, SIGTERM
# it mid-run, restart over the same data directory and require the resumed
# result byte-identical to an uninterrupted daemon's — plus the in-process
# coalescing/caching/streaming tests.
serve-smoke:
	$(GO) test -count=1 -race -timeout 10m ./internal/job/ ./internal/serve/
	$(GO) test -count=1 -timeout 10m -run 'SigtermRestart|MetricsAndCleanShutdown|Client' ./cmd/tlbserved/ ./cmd/tlbsim/

# Service-layer chaos smoke: a real tlbserved daemon (built with -race)
# under concurrent clients and seeded SIGKILLs mid-campaign; asserts zero
# lost jobs, duplication within the retry budget, and results bit-identical
# to direct runs. The second drill runs a 3-node lease-fenced cluster over
# one data directory, SIGKILLs individual lease-holding nodes past the
# lease TTL, and additionally audits the hand-offs: at least one genuine
# adoption, gapless lease-epoch histories, the terminal record owned at the
# newest epoch. The full acceptance run is `go run ./cmd/tlbchaos` with its
# defaults (32 clients, 5 kills).
chaos-smoke:
	$(GO) run ./cmd/tlbchaos -clients 8 -kills 2 -specs 4 -trials 15000 -race -timeout 5m
	$(GO) run ./cmd/tlbchaos -nodes 3 -clients 6 -kills 2 -specs 3 -trials 30000 -lease-ttl 1s -min-handoffs 1 -race -timeout 8m $(if $(CHAOS_DATA),-data $(CHAOS_DATA))

verify: build vet fmt-check e2ebench-vet staticcheck race faults assert-smoke fuzz-smoke bench-smoke serve-smoke chaos-smoke
