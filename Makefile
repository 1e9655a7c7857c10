# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test bench examples figures table1 verify-all clean perf-pairs

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-verbose:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

figures:
	$(PYTHON) -m repro figures

table1:
	$(PYTHON) -m repro table1

# Alternating parent/change pairs of one benchmarks/perf workload, with
# the gain / regression verdict per metric:
#   make perf-pairs PARENT=HEAD~1 WORKLOAD=sim_stress
# A PR that claims a gain names its gate here.  PR 19 (announce-driven
# reconnect + warm-standby respawn): `outage_s` a gain in 10/10 pairs of
#   make perf-pairs WORKLOAD=service_crash
# with WORKLOAD=live_saturated as the workload that must not move.
# PR 24 (the simulate half at 41 Python frames a delivery): `ops_per_s`
# a gain in 10/10 pairs of
#   make perf-pairs WORKLOAD=sim_stress
# on seeds 0 and 7, with sim_steady expected up and the two live
# workloads as the ones that must not move.
# Output-driven reply forwarding (no 5 ms poll of protocol.outputs):
# `latency_p50_ms` a gain in 10/10 pairs of
#   make perf-pairs WORKLOAD=service_crash
# on seeds 0 and 7; every other workload must not move.
# The trace digest as one value-based binary pass (SimTrace.signature()
# pickles each event into blake2b; the 27 historical goldens are kept
# through the test suite's reference encoder): `ops_per_s` a gain in
# 10/10 pairs of
#   make perf-pairs WORKLOAD=sim_stress
# on seeds 0 and 7, with `peak_rss_mb` within +2% and sim_steady and the
# two live workloads (none of which digests a trace) as the ones that
# must not move.
# The outbox journaled as per-link chunks and the wire codec on per-class
# plans: `ops_per_s` a gain in 11/11 pairs of
#   make perf-pairs WORKLOAD=live_saturated
# (one seed per pair, 71-81), with `peak_rss_mb` within +5% and
# sim_steady, sim_stress and service_crash as the ones that must not move.
# Trace lines written and merged without the generic codec, and the cyclic
# collector paused over each run phase (repro.runtime.collector):
# `cpu_ms_per_op` down >= 12% in the median of >= 6 alternating pairs of
#   make perf-pairs WORKLOAD=live_saturated
# with 0 failed ops on both sides; sim_steady, sim_stress and
# service_crash within their bounds and `peak_rss_mb` within +2% on all
# four workloads.
# The delivered-id set derived from the message log instead of copied
# into every checkpoint: `peak_rss_mb` down >= 20% and a gain in 10
# alternating pairs of
#   make perf-pairs WORKLOAD=sim_steady
# with sim_stress, live_saturated and service_crash as the ones that
# must not move.
PARENT ?= HEAD~1
WORKLOAD ?= sim_stress

perf-pairs:
	$(PYTHON) benchmarks/pairs.py --parent $(PARENT) --workload $(WORKLOAD)

verify-all: test bench figures
	@echo "everything green"

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache .hypothesis .benchmarks
