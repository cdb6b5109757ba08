# Convenience targets; everything assumes the in-repo source tree.
PYTHON ?= python
export PYTHONPATH := src

.PHONY: test fast-test test-stats docs-check spec-roundtrip experiments report bench bench-faults bench-chaos bench-service bench-e2e serve-smoke

test:            ## tier-1: the full pytest suite
	$(PYTHON) -m pytest -x -q

fast-test:       ## skip the slow training-loop tests
	$(PYTHON) -m pytest -x -q -m "not slow" tests

test-stats:      ## nightly statistical-guarantee tier: seeded coverage replications
	$(PYTHON) -m pytest -q -m slow_stats tests/test_adaptive.py

docs-check:      ## registry <-> EXPERIMENTS.md <-> paper map <-> docs/api.md stay in sync
	$(PYTHON) -m pytest -q -m docs tests/test_docs.py

spec-roundtrip:  ## golden spec fixtures round-trip (schema compatibility gate)
	$(PYTHON) -m pytest -q tests/test_spec_fixtures.py

experiments:     ## run the experiment registry through the artifact pipeline
	$(PYTHON) -m repro run-all

report:          ## regenerate EXPERIMENTS.md from stored artifacts
	$(PYTHON) -m repro report

bench:           ## refresh BENCH_campaign.json
	$(PYTHON) benchmarks/run_campaign_bench.py

bench-faults:    ## the extended fault-taxonomy benchmark matrix
	$(PYTHON) benchmarks/run_campaign_bench.py --full-matrix

bench-chaos:     ## the temporal chaos campaign vs a scalar epoch loop
	$(PYTHON) benchmarks/run_chaos_bench.py

bench-service:   ## refresh BENCH_service.json (daemon under closed-loop traffic)
	$(PYTHON) benchmarks/run_service_bench.py

bench-e2e:       ## the end-to-end benchmark (BENCHMARK.json): every workload, traced and untraced
	$(PYTHON) perfbench/run.py --workload all

serve-smoke:     ## start the daemon, stream one campaign + a cached repeat, drain
	$(PYTHON) benchmarks/serve_smoke.py
