"""The package's public names."""

import importlib.util
from pathlib import Path

import rllbec

MOVED_TO_TESTS = ("adjacency", "noiseless_capacity", "build_s_chain",
                  "s_chain_stationary_exact", "renewal_rate_d_inf", "FiniteChain")
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


class TestPublicApi:
    def test_every_exported_name_resolves(self):
        assert len(set(rllbec.__all__)) == len(rllbec.__all__)
        for name in rllbec.__all__:
            assert getattr(rllbec, name) is not None

    def test_test_oracles_are_not_exported(self):
        # reference computations that only the tests use live in tests/oracles.py
        for name in MOVED_TO_TESTS:
            assert name not in rllbec.__all__
            assert not hasattr(rllbec, name)

    def test_every_traced_name_resolves(self):
        # the benchmark's tracer wraps these by name when it installs, so a
        # rename breaks every traced run
        spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert tracing.TARGETS
        for name, owner, attr, *_ in tracing.TARGETS:
            assert callable(getattr(owner, attr, None)), name
