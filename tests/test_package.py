"""The package's public names."""

import rllbec

MOVED_TO_TESTS = ("adjacency", "noiseless_capacity", "build_s_chain",
                  "s_chain_stationary_exact", "renewal_rate_d_inf")


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
