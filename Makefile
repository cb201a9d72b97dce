# Convenience targets; `make ci` is what .github/workflows/ci.yml runs.

.PHONY: all build test fmt ci bench bench-smoke crash-smoke scale-smoke \
	shed-smoke prof-smoke advise-smoke maint-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# Formatting check is best-effort: skipped when ocamlformat is not
# installed (the pinned dev environment does not ship it).
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "ocamlformat not installed; skipping format check"; \
	fi

ci: build fmt test

bench:
	dune exec bench/main.exe

# Tiny observability bench (seconds, not minutes): emits a
# BENCH_<stamp>.json report and a BENCH_<stamp>.trace.json Chrome
# trace in the working directory; CI uploads both as artifacts.
bench-smoke:
	DECIBEL_BENCH_SCALE=1 dune exec bench/main.exe -- --only obs

# Crash-torture smoke: kills a scripted workload at every failpoint
# site per scheme, recovers, and checks against the WAL-marker oracle.
# Fixed seed for reproducible fault schedules; emits FSCK_REPORT.json
# (uploaded by CI) and exits non-zero on any recovery failure.
crash-smoke:
	DECIBEL_SEED=24301 dune exec bench/main.exe -- --only crash

# Domain-pool scalability sweep: scan/multi-scan/diff per scheme at
# 0/1/2/4/max domains, checking every parallel run's fingerprint
# against the serial reference (exit non-zero on divergence). Emits
# BENCH_<stamp>.scale.json; speedup curves are informational only.
scale-smoke:
	DECIBEL_BENCH_SCALE=1 dune exec bench/main.exe -- --only scale

# Load-shedding sweep: a fixed op mix from 1..16 client threads against
# an under-provisioned admission controller. Reports p50/p99 latency and
# shed rate per level to BENCH_<stamp>.shed.json, and exits non-zero if
# any post-storm multi-scan fingerprint diverges from the serial
# reference (shedding must be invisible to the data).
shed-smoke:
	DECIBEL_BENCH_SCALE=1 dune exec bench/main.exe -- --only shed

# Profiler-overhead smoke: Q1 latency with and without the request
# profiler per scheme, asserting < 5% median overhead (exit non-zero
# on a breach). Emits BENCH_<stamp>.prof.json with the medians plus a
# captured EXPLAIN ANALYZE tree per scheme; CI uploads it.
prof-smoke:
	DECIBEL_BENCH_SCALE=1 dune exec bench/main.exe -- --only profoverhead

# Storage-advisor smoke: a skewed scan mix over hot/cold branches on
# long version-first delta chains must make the advisor recommend
# materializing the hot branch and leave the cold one on deltas (exit
# non-zero otherwise). Emits BENCH_<stamp>.advise.json; CI uploads it.
advise-smoke:
	DECIBEL_BENCH_SCALE=1 dune exec bench/main.exe -- --only advise

# Maintenance smoke: builds a fragmented, chain-heavy store per scheme,
# runs the journaled maintenance executor, and reports before/after
# storage deltas (dead records, delta-chain depth, on-disk bytes) plus
# the hot-branch scan p50. Exits non-zero if maintenance fails to
# reclaim dead space (TF/HY) or collapse the hot chain (VF). Emits
# BENCH_<stamp>.maint.json; CI uploads it.
maint-smoke:
	DECIBEL_BENCH_SCALE=1 dune exec bench/main.exe -- --only maint

clean:
	dune clean
