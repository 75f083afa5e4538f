# Convenience targets for the Bulk reproduction.
#
# Every target that runs repository code exports PYTHONPATH=src, so the
# targets work from a clean checkout with no `pip install -e .` step.

PYTHON ?= python

export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test test-output verify bench bench-output examples clean

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# The tier-1 gate: the exact invocation CI and the roadmap specify.
verify:
	$(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-output:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

examples:
	@for example in examples/*.py; do \
		echo "=== $$example ==="; \
		$(PYTHON) $$example || exit 1; \
	done

clean:
	find . -type d -name __pycache__ -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis
