# Convenience targets; `make ci` is exactly what .github/workflows/ci.yml
# checks.  Every correctness gate is a `dune runtest` case.

.PHONY: all build test fmt ci bench prof-smoke clean

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

# The timing gate runs first, before the test suites can leave the
# machine loaded.  After the plain suite, the suite again with a
# 4-domain pool, so every engine path also runs through the parallel
# executor.
ci: build fmt
	$(MAKE) prof-smoke
	$(MAKE) test
	DECIBEL_DOMAINS=4 dune runtest --force

bench:
	dune exec bench/main.exe

# The one timing gate: Q1 with and without the request profiler per
# scheme; exits non-zero when the median per-round overhead breaks the
# 5% budget.
prof-smoke:
	DECIBEL_BENCH_SCALE=1 dune exec bench/main.exe -- --only profoverhead

clean:
	dune clean
