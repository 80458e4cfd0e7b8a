"""Pin accessibility: PG-rail selection and the dynamic density lever.

Shows the Sec. III-C machinery in isolation: which rails survive the
selection (Fig. 4), how many pins sit under rails in congested regions
before and after running the flow with DPA enabled, and the expected
pin-access violation counts from the evaluator's model.

Run:  python examples/pin_accessibility.py
"""

from repro.baselines import ablation_config, make_gp_seed, run_flow
from repro.core import RDConfig, select_pg_rails
from repro.evalrt import EvalConfig
from repro.evalrt.evaluator import evaluation_grid
from repro.evalrt.pinaccess import pin_access_violations
from repro.place import GPConfig
from repro.route import GlobalRouter
from repro.synth import suite_design


def report(label: str, netlist, grid, eval_cfg) -> None:
    routed = GlobalRouter(grid, eval_cfg.router).route(netlist)
    rep = pin_access_violations(netlist, grid, routed.utilization_map)
    print(
        f"{label:22s} pins under rails: {rep.n_covered_pins:5d}  "
        f"expected access DRVs: {rep.covered_pin_drvs:7.1f}  "
        f"crowding DRVs: {rep.crowding_drvs:6.1f}"
    )


def main() -> None:
    netlist = suite_design("matrix_mult_a", scale=0.5)
    selected = select_pg_rails(netlist)
    total_len = sum(r.length for r in netlist.pg_rails)
    kept_len = sum(r.length for r in selected)
    print(f"PG rails: {len(netlist.pg_rails)} raw -> {len(selected)} selected "
          f"pieces ({100 * kept_len / total_len:.0f}% of length kept)\n")

    gp = GPConfig(max_iters=600)
    base = RDConfig(gp=gp, max_rounds=6, iters_per_round=40)
    seed = make_gp_seed(netlist, gp)
    eval_cfg = EvalConfig()
    grid = evaluation_grid(netlist, eval_cfg)

    no_dpa = run_flow(
        "no-DPA", netlist, ablation_config(mci=True, dc=True, dpa=False, base=base), seed
    )
    with_dpa = run_flow(
        "with-DPA", netlist, ablation_config(mci=True, dc=True, dpa=True, base=base), seed
    )
    report("without DPA", no_dpa.netlist, grid, eval_cfg)
    report("with DPA", with_dpa.netlist, grid, eval_cfg)


if __name__ == "__main__":
    main()
