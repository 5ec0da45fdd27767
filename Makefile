# Developer checks for the EasyScale reproduction.
#
#   make check   — everything CI would run
#   make lint    — detlint contract analyzers: determinism (maporder, rawrand,
#                  walltime, chanorder, floatwiden) plus resource safety
#                  (poolbalance, boundeddecode, deadlineio, spanbalance,
#                  hotalloc); fails on unsuppressed diagnostics
#   make lint-audit — list every //detlint:ignore site with its cited reason
#   make race    — race detector over the concurrency-bearing packages
#                  (the per-GPU fan-out of a training step and the loader
#                  reads under it, the nn layers, whose conv plans carry
#                  state from call to call on each replica's goroutine,
#                  dist, serve and the tracer must stay race-clean)
#   make test-cpu — the placement / consistency / fan-out / loader tests and
#                  the baselines' cross-engine table at GOMAXPROCS 1, 2 and 4:
#                  the bitwise contract may not depend on how many cores the
#                  GPU goroutines get
#   make trace-smoke — end-to-end observability check: run a traced elastic
#                  job and schema-validate the exported Chrome trace
#   make bench-check — vet and toy-size test the frozen benchmark module
#                  (cmd/bench is its own module; nothing else compiles it)
#   make loc     — non-test Go and assembly lines per package and in total
#   make prof    — CPU profile of 3,000 train_conv steps (resnet50 on
#                  V100+P100, kc-8 D2 kernels) into prof/, printed as the top
#                  40 lines by cumulative share, then the top 25 by flat
#                  share; not part of check
#   make prof-churn — the same two views for 300 churn_live ops (dist's
#                  BenchmarkChurnLive: a live-migrating bert run over
#                  loopback, five scale events per op); not part of check
#   make examples-smoke — run the examples that check themselves (autoscale:
#                  plane-driven scale-out, fallback and reclaim on a live job,
#                  bitwise identical to fixed-DoP DDP); they exit non-zero on
#                  divergence

GO ?= go
FUZZTIME ?= 5s

.PHONY: check vet fmt lint lint-audit build test test-isa test-cpu race fuzz bench-check trace-smoke serve-smoke examples-smoke loc prof prof-churn

check: vet fmt lint build test test-isa test-cpu race fuzz bench-check trace-smoke serve-smoke examples-smoke

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# static determinism + resource contracts: exits non-zero on any diagnostic
# not annotated with //detlint:ignore <analyzer> -- <reason>. Built once into
# bin/ so repeated lint runs (and lint-audit) skip the go-run link step.
bin/detlint: $(shell find cmd/detlint internal/analysis -name '*.go' -not -path '*/testdata/*')
	@mkdir -p bin
	$(GO) build -o bin/detlint ./cmd/detlint

lint: bin/detlint
	./bin/detlint ./...

# inventory of sanctioned contract exceptions: every ignore site with its
# analyzers and cited reason
lint-audit: bin/detlint
	./bin/detlint -audit ./...

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# forced-ISA lane: the kernel-consuming packages run again with the AVX2
# dispatch killed, on the pure-Go executable spec and the scalar elementwise
# loops. The in-process differential suites already sweep both variants; this
# lane proves the init-time kill switch itself and the full consumer stack
# (nn, comm, optim, core, the baselines' cross-engine table in elastic, model
# load in models, and serve's batched == unbatched checks, whose dense layers
# run the generic conv tile) on the fallback path.
test-isa:
	EASYSCALE_FORCE_GENERIC=1 $(GO) test -count=1 ./internal/kernels/... ./internal/nn/... ./internal/comm/... ./internal/optim/... ./internal/core/... ./internal/elastic/... ./internal/serve/... ./internal/models/...

# core-count lane: RunStep fans out over min(GOMAXPROCS, 8, GPUs) goroutines
# by default, so the tests that compare placements bitwise run once per core
# count (-cpu sets GOMAXPROCS), with the loader's concurrent-rank tests and
# the baseline frameworks, which are core.Jobs with one goroutine per GPU too
test-cpu:
	$(GO) test -count=1 -cpu 1,2,4 -run 'Consistency|Placement|Invariance|Invisible|FanOut|RunStepPanic|ScaleLive|Loader|Worlds|VirtualFlow|OneEngine' ./internal/core/... ./internal/data/... ./internal/elastic/...

race:
	$(GO) test -race ./internal/kernels/... ./internal/nn/... ./internal/comm/... ./internal/checkpoint/... ./internal/data/... ./internal/dist/... ./internal/faults/... ./internal/core/... ./internal/elastic/... ./internal/obs/... ./internal/serve/... ./internal/sched/... ./internal/controlplane/...

# short fuzz smokes: the wire-frame, checkpoint and job-schema decoders must
# never panic on corrupt input, and the tiled GEMM kernels, the fused conv
# paths, the eight-lane SumBlocked and the one-pass MeanVar and SumDotBlocked
# must stay bitwise identical to the reference loops, the im2col spec, the
# serial blocked sum and the two-pass reductions for arbitrary shapes, kc
# blocks, and non-finite inputs, and the GELU kernels to their float64 spec
# for arbitrary float32 bit patterns; the D0 atomic kernels must equal their
# chunk-partial spec, combined in nondetPerm's order, for a fixed entropy state
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzDecodeGrads -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzReader -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz FuzzShardManifest -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz FuzzJobCheckpoint -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzGemmTiledVsReferenceMatMul$$' -fuzztime $(FUZZTIME) ./internal/kernels
	$(GO) test -run '^$$' -fuzz 'FuzzGemmTiledVsReferenceMatMulATB$$' -fuzztime $(FUZZTIME) ./internal/kernels
	$(GO) test -run '^$$' -fuzz 'FuzzGemmTiledVsReferenceMatMulABT$$' -fuzztime $(FUZZTIME) ./internal/kernels
	$(GO) test -run '^$$' -fuzz 'FuzzElemVsScalar$$' -fuzztime $(FUZZTIME) ./internal/kernels
	$(GO) test -run '^$$' -fuzz 'FuzzGELUVsSpec$$' -fuzztime $(FUZZTIME) ./internal/kernels
	$(GO) test -run '^$$' -fuzz 'FuzzConvVsSpec$$' -fuzztime $(FUZZTIME) ./internal/kernels
	$(GO) test -run '^$$' -fuzz 'FuzzSumBlockedVsSpec$$' -fuzztime $(FUZZTIME) ./internal/kernels
	$(GO) test -run '^$$' -fuzz 'FuzzFusedReductionsVsSpec$$' -fuzztime $(FUZZTIME) ./internal/kernels
	$(GO) test -run '^$$' -fuzz 'FuzzAtomicVsSpec$$' -fuzztime $(FUZZTIME) ./internal/kernels
	$(GO) test -run '^$$' -fuzz 'FuzzDecodePredict$$' -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run '^$$' -fuzz 'FuzzDecodePredictReply$$' -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run '^$$' -fuzz 'FuzzBatchEquivalence$$' -fuzztime $(FUZZTIME) ./internal/serve

# cmd/bench is a separate module that the root build never descends into, so
# deleting an exported identifier it calls would otherwise surface only at the
# next measurement; its own tests run every workload at toy size in seconds
bench-check:
	cd cmd/bench && $(GO) vet ./... && $(GO) test ./...

# the tracked size number: non-test Go and assembly lines per package
# directory and in total, leaving out the benchmark module and analyzer
# fixtures
loc:
	@find . \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' \
		! -path './cmd/bench/*' ! -path '*/testdata/*' ! -path './.bench_build/*' -print0 \
	| xargs -0 wc -l | awk '$$2 != "total" { \
		n = split($$2, p, "/"); d = substr($$2, 1, length($$2) - length(p[n]) - 1); dirs[d] = 1; \
		if (p[n] ~ /\.s$$/) { asm[d] += $$1; ta += $$1 } else { g[d] += $$1; tg += $$1 } } \
	END { printf "%7s %6s  %s\n", "go", "asm", "package"; \
		for (d in dirs) printf "%7d %6d  %s\n", g[d], asm[d], d | "sort -k3"; close("sort -k3"); \
		printf "%7d %6d  total\n", tg, ta }'

# CPU profile of 3,000 resnet50 steps: core's BenchmarkTrainConvStep (100
# warm-up steps outside the timer) under -cpuprofile, with the test binary
# kept beside it for pprof; the cumulative view, then the flat one
prof:
	@mkdir -p prof
	$(GO) test -run '^$$' -bench '^BenchmarkTrainConvStep$$' -benchtime 3000x \
		-o prof/core.test -cpuprofile prof/train_conv.cpu ./internal/core
	$(GO) tool pprof -top -cum prof/core.test prof/train_conv.cpu 2>/dev/null | head -40
	$(GO) tool pprof -top prof/core.test prof/train_conv.cpu 2>/dev/null | sed -n '/flat%/,$$p' | head -26

# CPU profile of 300 churn_live ops: dist's BenchmarkChurnLive (one warm-up
# op outside the timer), printed like prof
prof-churn:
	@mkdir -p prof
	$(GO) test -run '^$$' -bench '^BenchmarkChurnLive$$' -benchtime 300x \
		-o prof/dist.test -cpuprofile prof/churn_live.cpu ./internal/dist
	$(GO) tool pprof -top -cum prof/dist.test prof/churn_live.cpu 2>/dev/null | head -40
	$(GO) tool pprof -top prof/dist.test prof/churn_live.cpu 2>/dev/null | sed -n '/flat%/,$$p' | head -26

# serving smoke: checkpoint two models, drive ~1k requests at a batched and
# an unbatched server, and require bitwise-equal outputs and zero drops
serve-smoke:
	$(GO) run ./cmd/easyscale-serve smoke

# end-to-end observability smoke: a small traced elastic run (scale-in
# mid-training) must emit a Chrome trace that passes the schema checker
trace-smoke:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/easyscale -model neumf -ests 2 -batch 2 -steps 5 \
		-gpus V100:2 -scale-to V100:1 -verify=false \
		-trace "$$tmp/run.json" >/dev/null && \
	$(GO) run ./cmd/tracecheck "$$tmp/run.json"

# the examples are compiled by build; the ones that check their own result
# run here
examples-smoke:
	$(GO) run ./examples/autoscale
