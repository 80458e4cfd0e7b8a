"""Declarative numeric contracts and physical invariants.

The paper's techniques rest on hand-derived analytic gradients and on
conservation properties of the electrostatic formulation.  The golden
regression suite freezes *today's* outputs; it cannot tell a faithful
gradient from a consistently-wrong one, and it never runs inside a
production flow.  This module adds the missing runtime layer: cheap
machine-checkable oracles asserted at the places that compute them.

Checked invariants (each named after its paper anchor):

* **charge neutrality** — the Poisson RHS is mean-shifted before the
  spectral solve (compatibility condition of Eq. 1), so the returned
  potential has zero mean;
* **non-negative self-energy** — the balanced charge's electrostatic
  energy ``sum((rho - mean(rho)) * psi)`` is a positively-weighted sum
  of squared spectral coefficients (Parseval in the DCT-II basis), so
  it can only dip below zero through a broken solve.  (The naive
  "zero net self-force" property does *not* hold here: the Neumann
  walls carry image charges, so ``sum(balanced_rho * E)`` is genuinely
  non-zero — the energy sign is the checkable conservation law.);
* **demand conservation** — the router's commit/uncommit cycles must
  cancel exactly: demand maps stay finite and non-negative through
  RRR rounds and maze cleanup;
* **MCI rate range** — inflation rates stay within ``[r_min, r_max]``
  (the clamp of Eq. 11) and finite under any congestion input;
* **Eq. 10 weight** — ``lambda_2`` is finite and non-negative;
* plus generic array contracts (shape / dtype / finiteness / range)
  used by the gradient assemblers.

Modes
-----
``off`` (default), ``warn`` (log + telemetry event, keep going) and
``raise`` (abort with :class:`ContractViolation`).  The mode comes from
the ``REPRO_CHECK_INVARIANTS`` environment variable or from
:func:`configure` (the CLI ``--check-invariants`` flag).

Overhead discipline mirrors the NULL metrics registry: the shared
:data:`CONTRACTS` checker exposes a plain ``enabled`` attribute and
every hot site guards its checks with ``if CONTRACTS.enabled:`` — a
disabled run pays one attribute read per site (asserted by a
micro-benchmark test), never an array pass.

Violations are emitted as ``contract.violation`` events into the PR-3
telemetry stream when a registry is attached (see
:meth:`ContractChecker.attach_metrics`), so a ``warn``-mode run leaves
an auditable record in the same JSONL file as the rest of the run.
"""

from __future__ import annotations

import os

import numpy as np

from repro.utils.logging import get_logger
from repro.utils.metrics import NULL

logger = get_logger("utils.contracts")

#: Environment variable holding the default mode (off / warn / raise).
ENV_VAR = "REPRO_CHECK_INVARIANTS"

#: Valid checker modes.
MODES = ("off", "warn", "raise")

#: In-memory cap on retained violation records (diagnostics only; the
#: count keeps incrementing past the cap).
MAX_RECORDED = 256


class ContractViolation(RuntimeError):
    """A numeric contract or physical invariant did not hold."""

    def __init__(self, site: str, contract: str, detail: str) -> None:
        super().__init__(f"[{site}] {contract}: {detail}")
        self.site = site
        self.contract = contract
        self.detail = detail


class ContractChecker:
    """Mode-switched invariant checker shared across the flow.

    One instance (:data:`CONTRACTS`) is wired through the congestion
    field, the gradient assemblers, the inflation/DPA updates, the
    router and both placers.  All ``check_*`` methods are no-ops when
    :attr:`enabled` is False; hot call sites additionally guard with
    ``if CONTRACTS.enabled:`` so the disabled path never builds
    arguments.
    """

    def __init__(self, mode: str = "off", metrics=None) -> None:
        self.metrics = metrics if metrics is not None else NULL
        self.n_violations = 0
        self.violations: list = []
        self.set_mode(mode)

    # ----------------------------------------------------------- config
    def set_mode(self, mode: str) -> None:
        """Switch between ``off`` / ``warn`` / ``raise``."""
        if mode not in MODES:
            raise ValueError(f"unknown contracts mode {mode!r} (use {MODES})")
        self.mode = mode
        self.enabled = mode != "off"

    def attach_metrics(self, metrics) -> None:
        """Send future ``contract.violation`` events to ``metrics``."""
        self.metrics = metrics if metrics is not None else NULL

    def reset(self) -> None:
        """Clear the recorded-violation state (tests, fresh runs)."""
        self.n_violations = 0
        self.violations.clear()

    # -------------------------------------------------------- violation
    def violate(self, site: str, contract: str, detail: str) -> None:
        """Report one violation according to the current mode."""
        if not self.enabled:
            return
        self.n_violations += 1
        if len(self.violations) < MAX_RECORDED:
            self.violations.append(
                {"site": site, "contract": contract, "detail": detail}
            )
        logger.warning("contract violation at %s (%s): %s", site, contract, detail)
        if self.metrics.enabled:
            self.metrics.emit(
                "contract.violation", site=site, contract=contract, detail=detail
            )
        if self.mode == "raise":
            raise ContractViolation(site, contract, detail)

    # ----------------------------------------------------- array checks
    def check_array(
        self,
        site: str,
        name: str,
        value: np.ndarray,
        shape: tuple | None = None,
        dtype=None,
        finite: bool = False,
        min_value: float | None = None,
        max_value: float | None = None,
    ) -> None:
        """Generic array contract: shape, dtype, finiteness, range."""
        if not self.enabled:
            return
        arr = np.asarray(value)
        if shape is not None and arr.shape != shape:
            self.violate(
                site, f"{name}.shape", f"expected {shape}, got {arr.shape}"
            )
            return
        if dtype is not None and arr.dtype != np.dtype(dtype):
            self.violate(
                site, f"{name}.dtype", f"expected {np.dtype(dtype)}, got {arr.dtype}"
            )
        if arr.size == 0:
            return
        if finite and not bool(np.isfinite(arr).all()):
            n_bad = int((~np.isfinite(arr)).sum())
            self.violate(
                site, f"{name}.finite", f"{n_bad}/{arr.size} non-finite entries"
            )
            return
        if min_value is not None and bool((arr < min_value).any()):
            self.violate(
                site,
                f"{name}.range",
                f"min {float(np.min(arr)):.6g} below bound {min_value:.6g}",
            )
        if max_value is not None and bool((arr > max_value).any()):
            self.violate(
                site,
                f"{name}.range",
                f"max {float(np.max(arr)):.6g} above bound {max_value:.6g}",
            )

    def check_range(
        self, site: str, name: str, value: np.ndarray, lo: float, hi: float
    ) -> None:
        """Values (finite and) within ``[lo, hi]`` — the MCI rate clamp."""
        if not self.enabled:
            return
        self.check_array(
            site, name, value, finite=True, min_value=lo, max_value=hi
        )

    def check_finite_scalar(
        self, site: str, name: str, value: float, nonneg: bool = False
    ) -> None:
        """A scalar is finite (and optionally >= 0) — the Eq. 10 weight."""
        if not self.enabled:
            return
        v = float(value)
        if not np.isfinite(v):
            self.violate(site, f"{name}.finite", f"value is {v!r}")
            return
        if nonneg and v < 0.0:
            self.violate(site, f"{name}.nonneg", f"value {v:.6g} < 0")

    # ------------------------------------------------ physical invariants
    def check_charge_neutrality(
        self, site: str, potential: np.ndarray, tol: float = 1e-9
    ) -> None:
        """Poisson compatibility: the solved potential has zero mean.

        The solver projects out the DC mode of the mean-shifted RHS
        (Eq. 1's ``integral(rho) = integral(psi) = 0``), so up to
        rounding the returned ``psi`` map must average to zero.
        """
        if not self.enabled:
            return
        scale = float(np.abs(potential).max()) if potential.size else 0.0
        mean = float(potential.mean()) if potential.size else 0.0
        if abs(mean) > tol * max(scale, 1.0):
            self.violate(
                site,
                "poisson.charge_neutrality",
                f"|mean(psi)| = {abs(mean):.3e} exceeds {tol:.1e} x "
                f"max(1, |psi|max = {scale:.3e})",
            )

    def check_field_energy(
        self,
        site: str,
        charge: np.ndarray,
        potential: np.ndarray,
        tol: float = 1e-12,
    ) -> None:
        """The electrostatic self-energy is non-negative.

        ``sum((rho - mean(rho)) * psi)`` is a positively-weighted sum
        of squared DCT-II coefficients over the inverse Laplacian
        eigenvalues (Parseval), so it can only go negative through
        floating-point rounding.  A sign flip means the potential no
        longer corresponds to the charge — a wrong spectral
        normalization, a stale map, or a mismatched solve.  (Note the
        *net self-force* is not a usable invariant here: the Neumann
        walls carry image charges, so ``sum(bal * E)`` is genuinely
        non-zero.)
        """
        if not self.enabled or charge.size == 0:
            return
        bal = charge - charge.mean()
        num = float((bal * potential).sum())
        den = float(np.abs(bal * potential).sum())
        if num < -tol * (den + 1e-30):
            self.violate(
                site,
                "poisson.energy_nonneg",
                f"self-energy {num:.3e} negative beyond {tol:.1e} x "
                f"L1 energy {den:.3e}",
            )

    def check_demand_conservation(
        self, site: str, h_demand: np.ndarray, v_demand: np.ndarray
    ) -> None:
        """Routing demand stays finite and non-negative.

        Every RRR round and maze detour first *uncommits* a path and
        then commits a replacement; the scatters must cancel exactly
        (commit and uncommit use the same integer-length runs), so a negative
        or non-finite demand entry means a commit/uncommit mismatch.
        """
        if not self.enabled:
            return
        for name, demand in (("h_demand", h_demand), ("v_demand", v_demand)):
            if demand.size and not bool(np.isfinite(demand).all()):
                n_bad = int((~np.isfinite(demand)).sum())
                self.violate(
                    site,
                    "route.demand_conservation",
                    f"{name}: {n_bad} non-finite entries",
                )
                continue
            if demand.size and bool((demand < 0.0).any()):
                self.violate(
                    site,
                    "route.demand_conservation",
                    f"{name}: min {float(demand.min()):.6g} < 0 "
                    "(commit/uncommit mismatch)",
                )


#: Shared checker instance wired through the flow.  Defaults to the
#: mode named by the ``REPRO_CHECK_INVARIANTS`` environment variable
#: (``off`` when unset or unknown).
CONTRACTS = ContractChecker(
    os.environ.get(ENV_VAR, "off")
    if os.environ.get(ENV_VAR, "off") in MODES
    else "off"
)


def configure(mode: str | None = None, metrics=None) -> ContractChecker:
    """Configure the shared checker (CLI / test entry point).

    ``mode=None`` leaves the current mode untouched (so a CLI run
    without ``--check-invariants`` keeps the environment default);
    ``metrics`` attaches a telemetry registry for violation events.
    Returns :data:`CONTRACTS` for chaining.
    """
    if mode is not None:
        CONTRACTS.set_mode(mode)
    if metrics is not None:
        CONTRACTS.attach_metrics(metrics)
    return CONTRACTS


def env_default_mode() -> str:
    """The mode named by :data:`ENV_VAR` (``off`` if unset/unknown)."""
    mode = os.environ.get(ENV_VAR, "off")
    return mode if mode in MODES else "off"
