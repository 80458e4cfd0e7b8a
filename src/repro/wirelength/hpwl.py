"""Half-perimeter wirelength (HPWL).

The non-smooth ground-truth objective that the WA model approximates;
used for reporting, for the placer's per-iteration divergence watch
and for testing the WA upper bound property.  The per-net spans come
from the WA model's all-nets layout (:meth:`_WALayout.hpwl`): its
padded-bucket maxima of the rows ``x, y, -x, -y`` give ``max - min``
exactly, so no second per-pin copy of the design is built.
``tests/oracle.py`` keeps the ``reduceat`` form, and the tests pin
this one to it at ``atol=0``.
"""

from __future__ import annotations

import numpy as np

from repro.netlist.netlist import Netlist
from repro.wirelength.wa import _wa_structure


def hpwl_per_net(netlist: Netlist, net_weights: np.ndarray | None = None) -> np.ndarray:
    """HPWL of every net at the current cell positions.

    Nets with fewer than two pins have zero wirelength.
    """
    if netlist.n_nets == 0:
        return np.zeros(0, dtype=np.float64)
    wl = _wa_structure(netlist).hpwl(netlist.x, netlist.y)
    if net_weights is not None:
        wl = wl * net_weights
    return wl


def hpwl(netlist: Netlist, net_weights: np.ndarray | None = None) -> float:
    """Total (optionally weighted) HPWL of the design."""
    return float(hpwl_per_net(netlist, net_weights).sum())
