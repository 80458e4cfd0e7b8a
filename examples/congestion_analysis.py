"""Compare congestion estimators: Z-shape router vs RUDY.

Places a design, then builds the routing-based congestion map (Eq. 3)
and the bounding-box RUDY estimate, and prints where they agree and
disagree — illustrating the paper's motivation for sampling congestion
*on the net's segment* instead of uniformly over its bounding box.

Run:  python examples/congestion_analysis.py
"""

import numpy as np

from repro.place import GPConfig, converge_placement, initial_placement, placement_grid
from repro.route import GlobalRouter, rudy_map
from repro.synth import suite_design


def main() -> None:
    netlist = suite_design("matrix_mult_b", scale=0.5)
    initial_placement(netlist, 0)
    converge_placement(netlist, GPConfig(max_iters=600), max_batches=3)

    grid = placement_grid(netlist)
    routed = GlobalRouter(grid).route(netlist)

    util = routed.utilization_map
    cong = routed.congestion_map
    rudy = rudy_map(netlist, grid)
    rudy_norm = rudy / max(rudy.max(), 1e-12)

    print(f"router: mean util {util.mean():.3f}, max {util.max():.2f}, "
          f"congested G-cells {(cong > 0).sum()} "
          f"({100 * (cong > 0).mean():.1f}%)")
    print(f"total overflow: {routed.total_overflow:.0f} "
          f"wirelength: {routed.wirelength:.0f} vias: {routed.n_vias:.0f}")

    # rank correlation between the two estimators
    u = util.ravel()
    r = rudy_norm.ravel()
    order_u = np.argsort(np.argsort(u))
    order_r = np.argsort(np.argsort(r))
    n = len(u)
    rho = 1 - 6 * np.sum((order_u - order_r) ** 2) / (n * (n**2 - 1))
    print(f"\nSpearman correlation router-vs-RUDY: {rho:.3f}")

    # where RUDY most over-estimates relative to actual routing
    scale = util.mean() / max(rudy_norm.mean(), 1e-12)
    diff = rudy_norm * scale - util
    i, j = np.unravel_index(np.argmax(diff), diff.shape)
    cx, cy = grid.center_of(i, j)
    print(f"largest RUDY over-estimate at G-cell ({i},{j}) ~ ({cx:.1f},{cy:.1f}): "
          f"rudy_scaled={rudy_norm[i, j] * scale:.2f} vs routed={util[i, j]:.2f}")
    print("(bounding boxes spread demand over regions the router never uses)")


if __name__ == "__main__":
    main()
