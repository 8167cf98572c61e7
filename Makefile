# Convenience targets for the SDSRP reproduction.

PYTHON ?= python

.PHONY: install test lint lint-deep sanitize-smoke obs-smoke chaos-smoke analytic-smoke service-smoke determinism snapshot-roundtrip results perf perf-compare perf-pairs figures-full fig3 fig4 examples clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Static layer: repo-specific AST lint (REP001..REP010, see
# docs/static_analysis.md) plus mypy on the core packages when available
# (mypy is a CI dependency, not a runtime one).
lint:
	PYTHONPATH=tools $(PYTHON) -m reprolint src tests benchmarks
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy src/repro/core src/repro/net src/repro/policies; \
		MYPYPATH=src:tools $(PYTHON) -m mypy --strict --follow-imports=silent \
			src/repro/rng.py src/repro/units.py src/repro/analytic tools/reprolint; \
	else \
		echo "mypy not installed; skipping type check (CI runs it)"; \
	fi

# Whole-program determinism analysis (REP101..REP104: RNG provenance,
# iteration-order taint, snapshot coverage, observer purity).  Fails on
# any new finding or stale disable comment; the committed baseline is
# empty by construction.
lint-deep:
	PYTHONPATH=tools $(PYTHON) -m reprolint.deep --stats --fail-on-unused-suppressions

# Dynamic layer: reduced paper scenarios with every runtime invariant
# checked each tick (buffer accounting, pins, TTL, spray-token budget,
# single commit, contact set). Serial on purpose: a violation must point
# at one run. The taxi run is where the contact detector rebuilds most;
# the churn run takes nodes down, so its ticks diff link keys by search.
sanitize-smoke:
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro.experiments run --scenario rwp --policy sdsrp --reduced
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro.experiments run --scenario epfl --policy sdsrp --reduced
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro.experiments run --scenario rwp --policy sdsrp --reduced --churn 0.2
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro.experiments fig8 --axis copies --policies sdsrp --workers 1

# Observability layer (docs/observability.md): one reduced run with the
# metric time series, event trace and profiler all attached.
obs-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments run --scenario rwp --policy sdsrp --reduced \
		--obs-out obs-metrics.json --trace obs-trace.jsonl --profile

# Chaos layer (docs/chaos.md): a short seeded fuzzing campaign over random
# fault schedules with the sanitizer armed and all oracle families checked.
# Fixed seed so the smoke leg is deterministic; the nightly CI job explores
# fresh seeds.  Exits non-zero (and shrinks a reproducer) on any finding.
chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.chaos --iterations 25 --seed 1 --budget-seconds 60

# Analytic layer (docs/analytic.md): a fixed-seed analytic run through the
# real CLI, the analytic-vs-simulator cross-validation suite, and a reduced
# fig-validate sweep (simulated curves + analytic overlay).
analytic-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments run --scenario rwp --policy fifo --reduced --engine analytic --seed 1
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/analytic
	PYTHONPATH=src $(PYTHON) -m repro.experiments fig-validate --axis copies --policies fifo sdsrp --workers 1 --json fig-validate.json

# Service layer (docs/service.md): the kill-recovery proof — serve a batch
# through the real CLI, SIGKILL it mid-run, re-serve against the same root,
# and assert every job terminal with duplicates served from the cache.
service-smoke:
	PYTHONPATH=src $(PYTHON) tools/service_smoke.py

# Byte-identical replay suite (run twice, like CI, to catch cross-run
# state leaks in the collectors themselves).
determinism:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/obs/test_determinism.py
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/obs/test_determinism.py

# Checkpointing layer (docs/checkpointing.md): snapshot/restore round-trips
# byte-compared against uninterrupted runs, for every router, plus crash
# recovery through the sweep engine.
snapshot-roundtrip:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/snapshot tests/obs/test_snapshot_determinism.py

# Every result EXPERIMENTS.md quotes, one JSON file each in results/ (no
# options; tools/results.py).  Runs are deterministic: CI reruns this and
# fails on any difference from the committed files, and
# tests/experiments/test_paper_claims.py asserts the paper's claims on them.
results:
	PYTHONPATH=src $(PYTHON) tools/results.py

# Perf benchmark (benchmarks/perf/README.md): four workloads, end-to-end
# and per-layer metrics, outputs checked; ~3 min.  Compare two result
# files with `make perf-compare A=parent.json B=change.json`.
perf:
	$(PYTHON) benchmarks/perf/run.py --out perf.json

perf-compare:
	@if [ -z "$(A)" ] || [ -z "$(B)" ]; then \
		echo "usage: make perf-compare A=parent.json B=change.json"; exit 2; \
	fi
	$(PYTHON) benchmarks/perf/compare.py $(A) $(B)

# Paired end-to-end runs of a parent revision (git archive'd into a temp
# directory) against the working tree, alternating which side runs first,
# then compare.py over all pairs; result files land in perf-pairs/.
# Extra run.py options go in PERF_ARGS, e.g. PERF_ARGS="--seed 7".
PAIRS ?= 10
perf-pairs:
	@if [ -z "$(PARENT)" ]; then \
		echo "usage: make perf-pairs PARENT=<rev> [PAIRS=10] [PERF_ARGS=...]"; exit 2; \
	fi
	$(PYTHON) tools/perf_pairs.py --parent $(PARENT) --pairs $(PAIRS) $(PERF_ARGS)

# The paper's exact grids (Tables II/III). Hours of CPU; tune --workers.
# Each sweep keeps its finished runs in a figN_<axis>.store/ run store, so a
# killed run resumes from its completed grid points when you re-run the
# target.
figures-full:
	PYTHONPATH=src $(PYTHON) -m repro.experiments fig8 --axis copies --full --workers 4 --resume fig8_copies.store --json fig8_copies.json
	PYTHONPATH=src $(PYTHON) -m repro.experiments fig8 --axis buffer --full --workers 4 --resume fig8_buffer.store --json fig8_buffer.json
	PYTHONPATH=src $(PYTHON) -m repro.experiments fig8 --axis rate   --full --workers 4 --resume fig8_rate.store --json fig8_rate.json
	PYTHONPATH=src $(PYTHON) -m repro.experiments fig9 --axis copies --full --workers 4 --resume fig9_copies.store --json fig9_copies.json
	PYTHONPATH=src $(PYTHON) -m repro.experiments fig9 --axis buffer --full --workers 4 --resume fig9_buffer.store --json fig9_buffer.json
	PYTHONPATH=src $(PYTHON) -m repro.experiments fig9 --axis rate   --full --workers 4 --resume fig9_rate.store --json fig9_rate.json

fig3:
	PYTHONPATH=src $(PYTHON) -m repro.experiments fig3 --scenario rwp
	PYTHONPATH=src $(PYTHON) -m repro.experiments fig3 --scenario epfl

fig4:
	PYTHONPATH=src $(PYTHON) -m repro.experiments fig4

examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/priority_walkthrough.py
	PYTHONPATH=src $(PYTHON) examples/intermeeting_analysis.py
	PYTHONPATH=src $(PYTHON) examples/buffer_policy_comparison.py
	PYTHONPATH=src $(PYTHON) examples/taxi_trace_scenario.py
	PYTHONPATH=src $(PYTHON) examples/custom_policy.py
	PYTHONPATH=src $(PYTHON) examples/message_fate_analysis.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	rm -rf fig8_*.store fig9_*.store
	rm -f obs-metrics.json obs-trace.jsonl fig-validate.json perf.json
	rm -rf perf-pairs
	find . -name __pycache__ -type d -exec rm -rf {} +
