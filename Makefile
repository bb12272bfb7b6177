# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test bench nightbench examples experiments clean

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

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
