"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Grid2D, Rect
from repro.netlist import CellSpec, Netlist, NetSpec, PinSpec
from repro.synth import toy_design


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="regenerate the tests/golden/data/*.npz reference files "
             "from the current implementation instead of comparing",
    )


@pytest.fixture
def regen_golden(request) -> bool:
    """True when the run should rewrite the golden reference files."""
    return bool(request.config.getoption("--regen-golden"))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def grid16():
    """16x16 grid over a 8x8 die."""
    return Grid2D(Rect(0, 0, 8, 8), 16, 16)


@pytest.fixture
def tiny_netlist():
    """Four cells, two nets, deterministic geometry."""
    die = Rect(0, 0, 10, 10)
    cells = [
        CellSpec("a", 1.0, 1.0, x=2.0, y=2.0),
        CellSpec("b", 1.0, 1.0, x=8.0, y=2.0),
        CellSpec("c", 2.0, 1.0, x=5.0, y=8.0),
        CellSpec("fix", 2.0, 2.0, x=5.0, y=5.0, fixed=True, macro=True),
    ]
    nets = [
        NetSpec("n1", [PinSpec("a", 0.1, 0.0), PinSpec("b", -0.1, 0.0)]),
        NetSpec("n2", [PinSpec("a"), PinSpec("b"), PinSpec("c", 0.5, 0.2)]),
    ]
    return Netlist.from_specs("tiny", die, cells, nets)


@pytest.fixture
def toy120():
    """Small generated design (120 cells) for pipeline tests."""
    return toy_design(120, seed=7)


@pytest.fixture
def toy300():
    return toy_design(300, seed=3)


@pytest.fixture
def inject_faults():
    """Factory installing deterministic fault plans; auto-uninstalled.

    Usage::

        def test_x(inject_faults):
            inj = inject_faults(faults.FaultPlan("optim.gradient", mode="nan"))
            ...  # faults fire inside the flow
            assert inj.count_fired("optim.gradient") == 1
    """
    from repro.utils import faults

    def _install(*plans):
        injector = faults.FaultInjector()
        for plan in plans:
            injector.add(plan)
        return faults.install(injector)

    yield _install
    faults.uninstall()


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    """Fail fast if a test leaves a process-wide injector installed."""
    from repro.utils import faults

    yield
    leaked = faults.active() is not None
    faults.uninstall()
    assert not leaked, "test left a FaultInjector installed"


@pytest.fixture(autouse=True)
def _reset_contracts():
    """Restore the shared contract checker between tests.

    Tests that flip :data:`repro.utils.contracts.CONTRACTS` into warn
    or raise mode must not leak that mode (or recorded violations, or
    an attached metrics registry) into later tests.  The environment
    default is restored so `REPRO_CHECK_INVARIANTS=raise` CI runs keep
    contracts armed across the whole suite.
    """
    from repro.utils import contracts

    yield
    contracts.CONTRACTS.set_mode(contracts.env_default_mode())
    contracts.CONTRACTS.reset()
    contracts.CONTRACTS.attach_metrics(None)
