# Convenience targets for the Bulk reproduction.
#
# Every target that runs repository code exports PYTHONPATH=src, so the
# targets work from a clean checkout with no `pip install -e .` step.

PYTHON ?= python

export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install verify bench examples clean

install:
	$(PYTHON) -m pip install -e .

# The tier-1 gate: the exact invocation CI and the roadmap specify.
verify:
	$(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	@for example in examples/*.py; do \
		echo "=== $$example ==="; \
		$(PYTHON) $$example || exit 1; \
	done

clean:
	find . -type d -name __pycache__ -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis
