.PHONY: install test unit loc test-parallel obs-smoke audit-smoke alerts-check trace-smoke serve-smoke bench bench-index bench-mega bench-serve-scaling bench-smoke bench-ab bench-baseline bench-check refusal-census resident-footprint sample-profile census examples figures lint clean

install:
	pip install -e '.[test]'

# Default gate: lint, the tier-1 suite, and the instrumented smoke runs
# (obs stack, audit/explain round-trip, SLO alert CI gate, trace export
# + flamegraph round trip, serving front-end round trip).
test: lint unit obs-smoke audit-smoke alerts-check trace-smoke serve-smoke

# Mirrors the tier-1 verify command: works from a clean checkout with no
# editable install (PYTHONPATH picks up src/).
unit:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -x -q

# The run-spec/parallel-executor surface: RunSpec unit tests, the fleet
# runner (run_shards, failed shards included), CLI --jobs/sweep coverage
# (incl. the multi-spec artifact-set and CSV parity of the one run
# driver), obs merge semantics, and the jobs-parity determinism suite
# (serial vs pooled artifacts byte-identical).
test-parallel:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q \
		tests/sim/test_parallel.py \
		tests/sim/test_run_shards.py \
		tests/experiments/test_cli.py \
		tests/experiments/test_cli_driver.py \
		tests/obs/test_metrics.py tests/obs/test_timeseries.py \
		tests/integration/test_parallel_determinism.py

# End-to-end observability smoke: metrics + tracing + time series + logs.
obs-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python examples/obs_demo.py >/dev/null
	@echo "obs smoke OK"

# Decision-provenance round trip: audited run -> JSONL ledger -> explain;
# then a tiny audited sweep at --jobs 1 and --jobs 2, whose `-merged`
# ledgers must be the same bytes, and `repro-sim explain` over the jobs-2
# run directory with its `-merged` ledger taken away, so it folds the
# per-spec ledgers itself: once to list, once to explain the first listed
# id that only one ledger holds (exit non-zero if any leg fails).
audit-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python examples/explain_demo.py >/dev/null
	@rm -rf .audit-smoke && mkdir -p .audit-smoke
	@for jobs in 1 2; do \
		PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.cli sweep fig6 \
			--seeds 2 --horizon-days 30 --jobs $$jobs \
			--audit-out .audit-smoke/jobs-$$jobs/audit.jsonl >/dev/null || exit 1; \
	done
	cmp .audit-smoke/jobs-1/audit-merged.jsonl .audit-smoke/jobs-2/audit-merged.jsonl
	rm .audit-smoke/jobs-2/audit-merged.jsonl
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.cli explain \
		.audit-smoke/jobs-2 --limit 100000 >.audit-smoke/listing.txt
	id=$$(awk 'NR > 1 {print $$1}' .audit-smoke/listing.txt | sort | uniq -u | head -n 1); \
	test -n "$$id" && PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.cli \
		explain .audit-smoke/jobs-2 "$$id" >/dev/null
	@rm -rf .audit-smoke
	@echo "audit smoke OK"

# The SLO gate exactly as CI runs it: a short audited run, then
# `repro-sim alerts --check` over its exports (exit 1 on violation).
alerts-check:
	@rm -rf .alerts-check && mkdir -p .alerts-check
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.cli run fig6 \
		--horizon-days 30 --metrics-out .alerts-check/fig6.json >/dev/null
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.cli alerts \
		.alerts-check --check
	@rm -rf .alerts-check
	@echo "alerts check OK"

# Exit non-zero unless the two trace shards named on the command line
# have the same canonical bytes.
TRACE_CMP = import sys; from repro.obs.traceexport import TraceArchive; \
	a, b = (TraceArchive.read_jsonl(p).canonical_bytes() for p in sys.argv[1:]); \
	sys.exit(a != b and "trace shards differ: " + " vs ".join(sys.argv[1:]))

# Distributed-trace round trip exactly as CI runs it: a tiny sweep with
# span export at --jobs 1 and --jobs 2, whose `-merged` shards must have
# the same canonical bytes (wall-clock fields stripped), then
# `repro-sim flamegraph` prints the critical path and writes the
# collapsed stacks from the JSONL shards (exit non-zero if any leg fails
# or the folded file is empty).
trace-smoke:
	@rm -rf .trace-smoke && mkdir -p .trace-smoke
	@for jobs in 1 2; do \
		PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.cli sweep fig6 \
			--seeds 2 --horizon-days 30 --jobs $$jobs \
			--trace-out .trace-smoke/jobs-$$jobs/trace.jsonl >/dev/null || exit 1; \
	done
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -c '$(TRACE_CMP)' \
		.trace-smoke/jobs-1/trace-merged.jsonl .trace-smoke/jobs-2/trace-merged.jsonl
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.cli flamegraph \
		.trace-smoke/jobs-2 >/dev/null
	@test -s .trace-smoke/jobs-2/flamegraph.folded
	@rm -rf .trace-smoke
	@echo "trace smoke OK"

# Serving round trip exactly as CI runs it: a short closed-loop loadgen
# run with metrics + ledger export and the in-run SLO gate, the same
# rules re-checked offline via `repro-sim alerts`, an open-loop `serve`
# run against a single unit, then a two-shard closed-loop run at
# --jobs 1 and --jobs 2 whose ledgers must be the same bytes, and a
# two-shard serve-shard sweep whose per-shard CSVs (the shards' ledgers)
# must be the same bytes at --jobs 1 and --jobs 2 (exit non-zero if any
# leg fails).
serve-smoke:
	@rm -rf .serve-smoke && mkdir -p .serve-smoke
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.cli loadgen \
		--mode closed --clients 4 --nodes 4 --horizon-days 10 --scale 0.005 \
		--metrics-out .serve-smoke/loadgen.json \
		--ledger-out .serve-smoke/ledger.jsonl \
		--alerts examples/serve_alerts.rules --check >/dev/null
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.cli alerts \
		.serve-smoke --rules examples/serve_alerts.rules --check >/dev/null
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.cli serve \
		--nodes 1 --horizon-days 10 --scale 0.005 --queue-size 32 \
		--batch-max 8 >/dev/null
	@for jobs in 1 2; do \
		PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.cli loadgen \
			--mode closed --clients 4 --nodes 4 --shards 2 --horizon-days 10 \
			--scale 0.005 --jobs $$jobs \
			--ledger-out .serve-smoke/jobs-$$jobs.jsonl >/dev/null || exit 1; \
	done
	cmp .serve-smoke/jobs-1.jsonl .serve-smoke/jobs-2.jsonl
	@for jobs in 1 2; do \
		PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.cli sweep serve-shard \
			--param shards=2 --param shard=0,1 --horizon-days 10 --jobs $$jobs \
			--csv .serve-smoke/shard-jobs-$$jobs.csv >/dev/null || exit 1; \
	done
	@for shard in 0 1; do \
		cmp .serve-smoke/shard-jobs-1-serve-shard-shard=$$shard-shards=2-h=10.csv \
			.serve-smoke/shard-jobs-2-serve-shard-shard=$$shard-shards=2-h=10.csv || exit 1; \
	done
	@test -s .serve-smoke/ledger.jsonl
	@rm -rf .serve-smoke
	@echo "serve smoke OK"

bench:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} pytest benchmarks/ --benchmark-only

# Importance-index micro-benchmarks at 10k/50k residents: naive full-sort
# admission planning vs the bucketed index (all residents constant), and
# the naive density scan vs the per-annotation waning columns (all
# residents waning).  See docs/performance.md.
bench-index:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} pytest \
		benchmarks/test_perf_admission_index.py \
		benchmarks/test_perf_density_probe.py -q --benchmark-disable \
		--bench-check benchmarks/baselines

# Mega-university benchmark (Section 5.4 extension): the reduced scale
# (2k nodes, paper catalogue) runs as part of the default suite; the
# full 50k-node/3.2M-arrival run is gated behind RUN_MEGA=1 and takes
# ~20 minutes on one core.  Checks both against committed baselines.
bench-mega:
	RUN_MEGA=1 PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} pytest \
		benchmarks/test_sec54_mega.py -q --benchmark-disable \
		--bench-check benchmarks/baselines

# Flash-crowd scaling benchmark: 1 -> 8 gateway shards under the
# slashdot burst, gating >= 2x fleet throughput at 4 shards and
# byte-identical merged artifacts at any executor worker count.  Part of
# the default bench-check sweep; this target runs just the scaling
# module (see docs/performance.md).
bench-serve-scaling:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} pytest \
		benchmarks/test_serve_scaling.py -q --benchmark-disable \
		--bench-check benchmarks/baselines

# The end-to-end + per-layer cost ledger (bench/, BENCHMARK.json): the
# schema test that keeps BENCHMARK.json, bench/layers.py and the traced
# import sites in step, then the < 30 s shape of the real benchmark —
# every workload once, digests and invariants checked — and one quick
# parent|change pair of HEAD against this tree on one serve and one sim
# workload, untraced then traced (--layers), so the A/B tool below and the
# tracer's targets keep running too.  Too short to gate times; run
# `python3 -m bench` for numbers (bench/README.md) and `make bench-ab` for
# a comparison.
bench-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} pytest bench/ -q
	python3 -m bench --quick
	python3 tools/bench_ab.py HEAD --workload serve_flash --workload sim_cluster \
		--pairs 1 --quick --layers

# A perf PR's evidence: alternating parent/change pairs of the
# BENCHMARK.json contract run, judged by the choosing-metrics §8 rule
# (wins >= 9/10, medians further apart than the parent's quartile spread,
# "unresolved" where that spread exceeds the metric's bound).  The parent
# is extracted with `git archive`; the change is this working tree.
# ARGS="--layers" adds one traced pair per workload (per-layer rows).
#   make bench-ab PARENT=HEAD~1 [ARGS="--workload sim_cluster --seed 7"]
bench-ab:
	python3 tools/bench_ab.py $(PARENT) $(ARGS)

# How many placement refusals the cluster floor made without a walk, why the
# rest walked, and how many probes the cached refusal floor answered vs the
# merge, on the benchmark's sim_cluster and serve_pressure specs at seeds 42 and 7
# (tools/refusal_census.py; the table in docs/performance.md).
refusal-census:
	python3 tools/refusal_census.py --seed 42 --seed 7

# Which functions of src/repro the contract runs (experiments, examples, smokes,
# bench --quick, benchmarks/), which only the tier-1 suite reaches, and which
# nothing runs, with the rule that keeps each of the last two
# (tools/census.py; ~20 min, so not part of `make test`).  Like bench-check,
# its benchmarks/ run rewrites the timing renders under benchmarks/out.
census:
	python3 tools/census.py --out docs/census.md

# Bookkeeping bytes per resident and µs per free-space admit / remove of one
# StorageUnit at 50k residents, arrivals on and off the integer-minute grid
# (tools/resident_footprint.py; the table in docs/performance.md).
resident-footprint:
	python3 tools/resident_footprint.py

# Where one benchmark workload's CPU goes: a SIGPROF stack sampler over one
# bench-sized run in this process, printing self and inclusive shares per
# function (tools/sample_profile.py; reads bench/, edits nothing).
W ?= sim_single
sample-profile:
	python3 tools/sample_profile.py --workload $(W)

# Perf-regression harness: record BENCH_*.json baselines, then gate future
# runs on wall-time (+tolerance) and artifact checksums.  See
# benchmarks/conftest.py.  Set RUN_MEGA=1 to (re)record the full-scale
# mega-university entry too — without it, re-recording the sec54 module
# keeps only the reduced-scale entry.
bench-baseline:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} pytest benchmarks/ -q \
		--benchmark-disable --bench-json benchmarks/baselines

bench-check:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} pytest benchmarks/ -q \
		--benchmark-disable --bench-check benchmarks/baselines

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python $$script || exit 1; \
		echo; \
	done

figures:
	python -m repro run all

# The tracked number of ROADMAP aim 2 ("src/ line count should go down"),
# then the five largest files — where the next cut should look.
loc:
	@find src -name '*.py' | xargs cat | wc -l
	@find src -name '*.py' | xargs wc -l | sort -rn | sed -n '2,6p'

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed (pip install -e '.[lint]'); skipping lint"; \
	fi

# Caches only — benchmarks/out holds committed reference output and must
# survive a clean.
clean:
	rm -rf .pytest_cache .hypothesis .ruff_cache .alerts-check .audit-smoke .trace-smoke .serve-smoke build dist src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
