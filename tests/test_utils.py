"""Utility module tests: RNG derivation, logging."""

import logging

from repro.utils import get_logger, make_rng
from repro.utils.logging import set_verbosity
from repro.utils.rng import seed_from_name


class TestRng:
    def test_seeded_reproducible(self):
        assert make_rng(42).random() == make_rng(42).random()

    def test_seed_from_name_stable(self):
        a = seed_from_name("superblue12", 0)
        b = seed_from_name("superblue12", 0)
        assert a == b

    def test_seed_from_name_distinguishes(self):
        assert seed_from_name("fft_1") != seed_from_name("fft_2")
        assert seed_from_name("fft_1", 0) != seed_from_name("fft_1", 1)


class TestLogging:
    def test_namespaced(self):
        log = get_logger("route.router")
        assert log.name == "repro.route.router"

    def test_already_prefixed(self):
        log = get_logger("repro.core")
        assert log.name == "repro.core"

    def test_set_verbosity(self):
        set_verbosity(logging.DEBUG)
        assert logging.getLogger("repro").level == logging.DEBUG
        set_verbosity(logging.WARNING)
