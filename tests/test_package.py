"""The package's public names."""

import importlib.util
from pathlib import Path

import rllbec
from rllbec import capacity, codec, constraint, markov, sim

MODULES = (capacity, codec, constraint, markov, sim)
MOVED_TO_TESTS = ("adjacency", "noiseless_capacity", "build_s_chain",
                  "s_chain_stationary_exact", "renewal_rate_d_inf", "FiniteChain")
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


class TestPublicApi:
    def test_every_exported_name_resolves(self):
        assert len(set(rllbec.__all__)) == len(rllbec.__all__)
        for name in rllbec.__all__:
            assert getattr(rllbec, name) is not None

    def test_package_all_is_the_module_lists(self):
        assert rllbec.__all__ == [name for m in MODULES for name in m.__all__] + ["__version__"]

    def test_module_all_lists_only_public_names_once(self):
        for m in MODULES:
            assert len(set(m.__all__)) == len(m.__all__), m.__name__
            assert not [name for name in m.__all__ if name.startswith("_")], m.__name__

    def test_package_binds_the_module_objects(self):
        for m in MODULES:
            for name in m.__all__:
                assert getattr(rllbec, name) is getattr(m, name), (m.__name__, name)

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
