GO ?= go
FUZZTIME ?= 5s
COVER_FLOOR ?= 75

.PHONY: build fmt test race vet bench benchsmoke fuzz smoke cover perfbench-test digests golden ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails when any Go file is not gofmt-formatted, listing the files.
fmt: SHELL := /bin/bash
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

# bench runs the Go micro-benchmarks (-run '^$$' skips the unit tests, which
# `make test` covers). End-to-end wall times are perfbench's (run_s,
# setup_s); the paper artifacts' values are pinned by `make golden`.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# benchsmoke runs every benchmark exactly once, so one that no longer runs
# fails the gate. The §4 ablation benchmarks are the only callers of some
# knobs (DriverConfig.BatchEntries, for one). It gates nothing on the
# reported times or metrics.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# perfbench-test runs the benchmark module's unit tests and its tiny-size
# smoke run. The module builds against internal/ through a replace
# directive, so this is what catches a simulator change that breaks the
# benchmark's build. It needs no network.
perfbench-test:
	cd perfbench && GOTOOLCHAIN=local GOPROXY=off $(GO) test ./...

# digests runs every perfbench workload for one operation at seeds 1 and
# 7919 (about 3 s each). perfbench checks each operation's deterministic
# results against the digest it has recorded for that workload and seed, so
# a change that moves any simulated value fails here.
digests: SHELL := /bin/bash
digests:
	@set -eo pipefail; for w in pf-merge ksm-churn baseline-traffic; do \
		for s in 1 7919; do \
			bash perfbench/run.sh --workload $$w --seed $$s --seconds 0 --trace 0 \
				| tail -n 1 | jq -e '.correct and .failed == 0' > /dev/null \
				|| { echo "digests: $$w seed $$s does not match its recorded digest"; exit 1; }; \
		done; \
	done; \
	echo digests OK

# golden pins the paper artifacts byte for byte: it runs every experiment
# with `pageforge run -exp all -fast -json` (about 25 s, so not part of
# `make test`) and compares one SHA-256 per key of the document's
# .experiments object, taken over `jq -c` of that key's value, with the
# recorded GOLDEN file, so a failure names each experiment whose output
# moved. The hashes were recorded with jq 1.6, whose -c number formatting
# they depend on. A change that moves an experiment on purpose re-records
# that key's line (the diff's + line) in the same commit and says why.
GOLDEN := internal/experiments/testdata/golden.sha256
golden: SHELL := /bin/bash
golden:
	@set -eo pipefail; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/pageforge" ./cmd/pageforge; \
	"$$dir/pageforge" run -exp all -fast -quiet -json > "$$dir/all.json"; \
	for k in $$(jq -r '.experiments | keys[]' "$$dir/all.json"); do \
		jq -c --arg k "$$k" '.experiments[$$k]' "$$dir/all.json" | sha256sum | awk -v k="$$k" '{ print $$1 "  " k }'; \
	done > "$$dir/golden.sha256"; \
	diff -u $(GOLDEN) "$$dir/golden.sha256" \
		|| { echo "golden: the experiments on the lines above moved from $(GOLDEN)"; exit 1; }; \
	echo golden OK

# smoke exercises the CLI's machine-readable path end to end: a fast
# two-app table4 run must emit a JSON document with populated rows, the
# overcommitted pressure rows must have run their storm and recovered, each
# of the 9 crash grid points must have fired a crash and recovered
# bit-identically, the efficiency run must prove zero perturbation while
# writing a well-formed per-pass series.json and a trace that dropped no
# event (its stderr reports `(dropped 0)`) into its -out directory, which
# `pageforge report` must read back and render as at least one track, the
# -out directory of `pageforge explain` must render as both a track and a
# ledger section, and the img_dnn sweep must hold its 12 grid points with
# savings in [0, 1] and write the same bytes at -parallel 1 and 2. It
# builds the CLI once into a fresh temporary directory, which also holds the
# -out directories, so a stale artifact from an earlier run cannot mask a
# failed write; pipefail makes a failing pageforge run fail the step, not
# only a failing jq check.
smoke: SHELL := /bin/bash
smoke:
	@set -eo pipefail; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/pageforge" ./cmd/pageforge; \
	"$$dir/pageforge" run -exp table4 -fast -quiet -json -apps img_dnn,silo \
		| jq -e '.experiments.table4.Rows | length > 0' > /dev/null; \
	"$$dir/pageforge" run -exp pressure -fast -quiet -json \
		| jq -e '.experiments.pressure.Rows | map(select(.Ratio >= 1.5)) | all(.Recovered and .BurstPages > 0) and length > 0' > /dev/null; \
	"$$dir/pageforge" run -exp crash -fast -quiet -json \
		| jq -e '.experiments.crash.Rows | all(.Identical and .Crashes > 0) and length == 9' > /dev/null; \
	"$$dir/pageforge" run -exp efficiency -fast -quiet -json -apps img_dnn -out "$$dir/run" 2> "$$dir/run.err" \
		| jq -e '.experiments.efficiency.Rows | all(.Identical) and length > 0' > /dev/null; \
	grep -q '(dropped 0)' "$$dir/run.err" || { cat "$$dir/run.err"; echo "smoke: the efficiency trace dropped events"; exit 1; }; \
	jq -e '.schema == "pageforge-series/v1" and (.tracks | length > 0) and ([.tracks[].points | length] | add > 0)' "$$dir/run/series.json" > /dev/null; \
	"$$dir/pageforge" report "$$dir/run" > "$$dir/report.txt"; \
	grep -q '^track ' "$$dir/report.txt"; \
	"$$dir/pageforge" explain -fast -out "$$dir/explain" > /dev/null; \
	"$$dir/pageforge" report "$$dir/explain" > "$$dir/explain.txt"; \
	grep -q '^track ' "$$dir/explain.txt"; \
	grep -q '^ledger ' "$$dir/explain.txt"; \
	"$$dir/pageforge" run -exp stream -fast -quiet -json \
		| jq -e '.experiments.stream.Rows | all(.Identical) and length > 0' > /dev/null; \
	"$$dir/pageforge" run -exp sweep -fast -quiet -json -apps img_dnn \
		| jq -e '.experiments.sweep_img_dnn.Rows | length == 12 and all(.Savings >= 0 and .Savings <= 1)' > /dev/null; \
	for p in 1 2; do "$$dir/pageforge" run -exp sweep -fast -quiet -json -apps img_dnn -parallel $$p > "$$dir/sweep$$p.json"; done; \
	cmp "$$dir/sweep1.json" "$$dir/sweep2.json" || { echo "smoke: the sweep document depends on -parallel"; exit 1; }; \
	echo smoke OK

# fuzz gives the ECC encoder, ECC decoder, page-key, snapshot-codec,
# frame-store, KSM item-slab and L3 tag-store contracts a short
# native-fuzzing budget per target (raise FUZZTIME for a real campaign). The
# table-driven encoder must match the popcount reference on any word; any
# ≤2-bit corruption must be corrected or detected, never silently
# miscorrected; any mutated snapshot envelope must be rejected with a typed
# error, never decoded into garbage or a panic; any program of frame
# operations must leave the copy-on-write slot store, its seeded frames and
# their line patches (patched seeds) equal to a flat arena, with free frames
# on the zero page, every patch block held once or free in the arena of its
# patch's line count, and one slot per distinct content after every restore;
# any program of KSM hash records, checks and restores must leave the per-VM
# item slabs equal to the map tracker they replaced; any stream of L3
# lookups, fills and probes, over any way and set count and across the
# 32-bit stamp counter's wrap, must give the reference LRU cache's verdicts.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzEncodeTable$$' -fuzztime=$(FUZZTIME) ./internal/ecc/
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME) ./internal/ecc/
	$(GO) test -run='^$$' -fuzz='^FuzzPageKey$$' -fuzztime=$(FUZZTIME) ./internal/ecc/
	$(GO) test -run='^$$' -fuzz='^FuzzSnapshotDecode$$' -fuzztime=$(FUZZTIME) ./internal/snapshot/
	$(GO) test -run='^$$' -fuzz='^FuzzPhysOps$$' -fuzztime=$(FUZZTIME) ./internal/mem/
	$(GO) test -run='^$$' -fuzz='^FuzzItemSlab$$' -fuzztime=$(FUZZTIME) ./internal/ksm/
	$(GO) test -run='^$$' -fuzz='^FuzzCacheLRU$$' -fuzztime=$(FUZZTIME) ./internal/cache/

# cover measures cross-package statement coverage over the whole test
# suite and fails when the total drops below COVER_FLOOR percent. It prints
# the measured total; the floor leaves slack for refactors, not for
# untested subsystems.
cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=./... ./... > /dev/null
	@$(GO) tool cover -func=coverage.out | awk -v floor=$(COVER_FLOOR) '\
		/^total:/ { v = $$3; sub(/%/, "", v); total = v } \
		END { printf "total coverage: %.1f%% (floor %d%%)\n", total, floor; \
		      if (total + 0 < floor + 0) { print "FAIL: coverage below floor"; exit 1 } }'

# ci is the gate every change must pass: compile, gofmt formatting, static
# checks, the full test suite under the race detector (the experiment suite
# runs its simulations through a concurrent worker pool; the suite includes
# the exact work-count golden and the zero-allocation pins), the short fuzz
# budget, one run of every benchmark, the CLI JSON smoke run, the
# benchmark module's tests, the benchmark's recorded result digests, the
# paper artifacts' recorded hashes and the coverage floor. Every step is
# deterministic: no step gates on wall time.
ci: build fmt vet race fuzz benchsmoke smoke perfbench-test digests golden cover
