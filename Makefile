# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test bench nightbench examples experiments loc clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

nightbench:
	$(PYTHON) -m pytest nightbench/tests -q
	$(PYTHON) nightbench/run.py --quick

bench-output:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

examples:
	for ex in examples/*.py; do echo "== $$ex =="; $(PYTHON) $$ex || exit 1; done

experiments:
	$(PYTHON) -m repro.cli experiments data
	$(PYTHON) -m repro.cli experiments fig9
	$(PYTHON) -m repro.cli experiments fig12

# the size figure CHANGES.md and ROADMAP.md quote per PR: lines of *.py under
# src/repro/, per package (top-level modules count as "."), then the total
loc:
	@find src/repro -name '*.py' | xargs wc -l | awk '$$2 != "total" { \
		split($$2, p, "/"); pkg = (p[4] == "" ? "." : p[3] "/"); \
		n[pkg] += $$1; t += $$1 } \
		END { for (pkg in n) printf "%7d  src/repro/%s\n", n[pkg], pkg; \
		      printf "%7d  src/repro/ total\n", t }' | sort -k2

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
