"""The package's public names."""

import importlib.util
import inspect
from pathlib import Path

import rllbec
from rllbec import RllConstraint, capacity, codec, constraint, markov, sim

MODULES = (capacity, codec, constraint, markov, sim)
MOVED_TO_TESTS = ("adjacency", "noiseless_capacity", "build_s_chain",
                  "s_chain_stationary_exact", "renewal_rate_d_inf", "FiniteChain")
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


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
        tracing = load_tracing()
        assert tracing.TARGETS
        for name, owner, attr, *_ in tracing.TARGETS:
            assert callable(getattr(owner, attr, None)), name

    def test_every_observer_reads_its_arguments(self):
        # an observer reads arguments by name, such as first_violation's
        # bits, so a renamed parameter breaks every traced run
        report = sim.run_feedback_sim(2, 0.3, 10, 5, seed=0)
        samples = {
            "capacity.feedback_capacity": (0.3, 2),
            "capacity.grid_max_rate": (0.3, 2, 11),
            "sim.label_occupancy_check": (report, 0.3, capacity.feedback_capacity(0.3, 2).argmax.delta),
            "constraint.first_violation": (RllConstraint(0, 2), [1, 0, 0, 0]),
        }
        observed = {}
        for name, owner, attr, observer, _ in load_tracing().TARGETS:
            if observer:
                fn = getattr(owner, attr)
                args = samples[name]
                observed[name] = observer(inspect.signature(fn).bind(*args), fn(*args))
        assert observed.keys() == samples.keys()
        assert None not in observed.values(), observed
