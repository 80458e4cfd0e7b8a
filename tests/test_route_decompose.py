"""Net decomposition tests: bucketed Prim against the per-net oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.netlist import CellSpec, NetSpec, Netlist, PinSpec
from repro.route import segment_endpoints
from repro.route.decompose import prim_mst
from tests import oracle


def _edges(xs, ys):
    """Edge list of one point set, as the one-row case of :func:`prim_mst`."""
    src, dst = prim_mst(np.asarray(xs)[None, :], np.asarray(ys)[None, :])
    return list(zip(src[0].tolist(), dst[0].tolist()))


def _assert_same(got, want):
    """All five arrays equal bit for bit, dtypes included."""
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def _random_netlist(seed, degrees, span=6):
    """Cells on a coarse integer lattice, so pins tie and coincide often.

    ``degrees`` lists each net's pin count (0 and 1 allowed); pins pick
    cells at random, with repeats, and a few carry offsets.
    """
    rng = np.random.default_rng(seed)
    n_cells = max(int(sum(degrees)) // 2, 2)
    cells = [
        CellSpec(
            f"c{i}", 1.0, 1.0,
            x=float(rng.integers(1, span)), y=float(rng.integers(1, span)),
        )
        for i in range(n_cells)
    ]
    nets = []
    for e, d in enumerate(degrees):
        picks = rng.integers(0, n_cells, size=d)
        offs = rng.choice([0.0, 0.0, 0.5], size=(d, 2))
        nets.append(
            NetSpec(f"n{e}", [PinSpec(f"c{p}", ox, oy) for p, (ox, oy) in zip(picks, offs)])
        )
    return Netlist.from_specs("rand", Rect(0, 0, span + 1, span + 1), cells, nets)


class TestMST:
    def test_two_points(self):
        assert _edges([0.0, 3.0], [0.0, 0.0]) == [(0, 1)]

    def test_single_point(self):
        assert _edges([1.0], [1.0]) == []

    def test_collinear_chain(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        ys = np.zeros(4)
        edges = _edges(xs, ys)
        total = sum(abs(xs[a] - xs[b]) for a, b in edges)
        assert total == pytest.approx(3.0)

    def test_duplicate_points_zero_edges(self):
        xs = np.array([1.0, 1.0, 5.0])
        ys = np.array([2.0, 2.0, 2.0])
        edges = _edges(xs, ys)
        lengths = sorted(abs(xs[a] - xs[b]) + abs(ys[a] - ys[b]) for a, b in edges)
        assert lengths == [0.0, 4.0]

    @given(
        st.lists(
            st.tuples(st.floats(0, 100), st.floats(0, 100)),
            min_size=2,
            max_size=12,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_spanning_tree_properties(self, pts):
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        edges = _edges(xs, ys)
        assert len(edges) == len(pts) - 1
        # connectivity via union-find
        parent = list(range(len(pts)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in edges:
            parent[find(a)] = find(b)
        assert len({find(i) for i in range(len(pts))}) == 1

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20)),
            min_size=2,
            max_size=8,
            unique=True,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_mst_no_longer_than_star(self, pts):
        xs = np.array([float(p[0]) for p in pts])
        ys = np.array([float(p[1]) for p in pts])
        edges = _edges(xs, ys)
        mst_len = sum(abs(xs[a] - xs[b]) + abs(ys[a] - ys[b]) for a, b in edges)
        star_len = sum(abs(xs[0] - xs[i]) + abs(ys[0] - ys[i]) for i in range(1, len(pts)))
        assert mst_len <= star_len + 1e-9

    @given(
        st.integers(1, 6),
        st.integers(2, 9),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_row_matches_per_net_oracle(self, n, d, seed):
        # a coarse lattice makes equal distances (argmin ties) common
        rng = np.random.default_rng(seed)
        xs = rng.integers(0, 4, size=(n, d)).astype(np.float64)
        ys = rng.integers(0, 4, size=(n, d)).astype(np.float64)
        src, dst = prim_mst(xs, ys)
        for r in range(n):
            want = oracle.mst_edges(xs[r], ys[r])
            assert list(zip(src[r].tolist(), dst[r].tolist())) == want


class TestDecompose:
    def test_two_pin_net_single_segment(self, tiny_netlist):
        nets, *_ = segment_endpoints(tiny_netlist, net_ids=[0])
        assert nets.tolist() == [0]

    def test_three_pin_net_two_segments(self, tiny_netlist):
        nets, *_ = segment_endpoints(tiny_netlist, net_ids=[1])
        assert nets.tolist() == [1, 1]

    def test_whole_netlist(self, toy120):
        nets, *_ = segment_endpoints(toy120)
        counts = np.bincount(nets, minlength=toy120.n_nets)
        assert np.array_equal(counts, np.maximum(toy120.net_degrees() - 1, 0))


DEGREES = st.lists(
    st.sampled_from([0, 1, 2, 2, 2, 3, 3, 4, 5, 7, 12]), min_size=1, max_size=40
)


class TestMatchesPerNetOracle:
    """Bucketed decomposition equals decompose-all-then-filter at atol=0."""

    @given(degrees=DEGREES, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_all_nets(self, degrees, seed):
        nl = _random_netlist(seed, degrees)
        _assert_same(segment_endpoints(nl), oracle.segment_endpoints(nl))

    @given(degrees=DEGREES, seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_net_subsets(self, degrees, seed, data):
        nl = _random_netlist(seed, degrees)
        # unsorted, with repeats and ids that name no net
        ids = data.draw(
            st.lists(st.integers(-2, nl.n_nets + 2), max_size=2 * nl.n_nets)
        )
        ids = np.asarray(ids, dtype=np.int64)
        _assert_same(
            segment_endpoints(nl, ids), oracle.segment_endpoints(nl, ids)
        )

    def test_degree_40_bucket(self):
        nl = _random_netlist(11, [40, 40, 3, 40, 2, 1, 0, 40], span=4)
        _assert_same(segment_endpoints(nl), oracle.segment_endpoints(nl))

    @pytest.mark.parametrize(
        "ids",
        [np.zeros(0, dtype=np.int64), np.array([7, 0, 3, 3, 1]), np.arange(8)],
        ids=["empty", "unsorted", "all"],
    )
    def test_explicit_subsets(self, ids):
        nl = _random_netlist(5, [3, 2, 0, 5, 1, 2, 12, 4])
        got = segment_endpoints(nl, ids)
        _assert_same(got, oracle.segment_endpoints(nl, ids))
        if len(ids) == 0:
            assert len(got[0]) == 0

    def test_all_ids_equal_no_filter(self, toy120):
        _assert_same(
            segment_endpoints(toy120, np.arange(toy120.n_nets)[::-1]),
            segment_endpoints(toy120),
        )
