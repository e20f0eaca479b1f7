"""The library surface the benchmark in perfbench/ calls and patches.

The benchmark wraps the functions and methods listed in perfbench/tracing.py
TARGETS and passes a few keywords; a refactor that renames or reshapes one of
them would otherwise only show up in a full benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from cylattice import chungyao, cli, convergence

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: f"{t[0]}:{t[2] or ''}.{t[3]}")
def test_tracing_target_resolves(target):
    _, module_name, class_name, attr = target
    module = importlib.import_module(module_name)
    if class_name is None:
        assert callable(getattr(module, attr))
    else:
        # The tracer patches the class's own entry; a property or cached
        # property there could not be wrapped as a call.
        owner = getattr(module, class_name)
        assert inspect.isfunction(owner.__dict__.get(attr))


def test_benchmark_keywords_are_accepted():
    inspect.signature(convergence.convergence_experiment).bind(None, None, threads=1)
    inspect.signature(chungyao.deboor_remainder).bind(None, None, None,
                                                      interpolant=None, lines=None)
    inspect.signature(cli.run_verification).bind(None, seed=0, fault_inject=True)


def test_pk_polynomial_positional_order():
    # The tracer reads pk_polynomial's arguments by position.
    names = list(inspect.signature(chungyao.pk_polynomial).parameters)
    assert names == ["family", "k_indices", "upto", "homogeneous", "direction"]
