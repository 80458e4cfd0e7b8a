"""Momentum-based cell inflation tests (Eq. 11-12)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InflationConfig, MomentumInflation


class TestConfig:
    def test_paper_defaults(self):
        cfg = InflationConfig()
        assert cfg.r_min == 0.9
        assert cfg.r_max == 2.0
        assert cfg.alpha == 0.4

    def test_validation(self):
        with pytest.raises(ValueError):
            InflationConfig(alpha=1.0)
        with pytest.raises(ValueError):
            InflationConfig(r_min=2.5, r_max=2.0)
        with pytest.raises(ValueError):
            InflationConfig(r_min=-0.1)


class TestFirstRound:
    def test_dr1_equals_c1(self):
        infl = MomentumInflation(3)
        rates = infl.update(np.array([0.0, 0.3, 0.8]))
        # r^1 = clamp(1 + C^1)
        assert rates == pytest.approx([1.0, 1.3, 1.8])
        assert infl.delta_rates == pytest.approx([0.0, 0.3, 0.8])

    def test_r0_is_one(self):
        infl = MomentumInflation(2)
        assert infl.rates == pytest.approx([1.0, 1.0])

    def test_clamp_at_rmax(self):
        infl = MomentumInflation(1)
        rates = infl.update(np.array([5.0]))
        assert rates[0] == 2.0


class TestMomentum:
    def test_eq11_recursion(self):
        infl = MomentumInflation(1)
        infl.update(np.array([0.5]))       # dr1 = 0.5, r = 1.5
        infl.update(np.array([0.6]))       # both rounds above mean? single cell: C == mean
        # single cell: C_i == C-bar so the deflation branch never fires
        # (requires C_i < C-bar strictly); delta = 1, s = 0.6
        expected_dr = 0.4 * 0.5 + 0.6 * 0.6
        assert infl.delta_rates[0] == pytest.approx(expected_dr)
        assert infl.rates[0] == pytest.approx(min(1.5 + expected_dr, 2.0))

    def test_deflation_fires_on_escape(self):
        # cell 0 escapes congestion (above avg -> below avg); cell 1 stays hot
        infl = MomentumInflation(2)
        infl.update(np.array([0.8, 0.2]))          # mean 0.5; cell0 above
        r_before = infl.rates.copy()
        infl.update(np.array([0.1, 0.9]))          # mean 0.5; cell0 below now
        # delta_0 = -|0.8/0.5 - 0.1/0.5| = -1.4 ; s_0 = -1.4*0.1 = -0.14
        # dr_0 = 0.4*0.8 + 0.6*(-0.14) = 0.236
        assert infl.delta_rates[0] == pytest.approx(0.4 * 0.8 + 0.6 * (-1.4 * 0.1))
        # compare against the no-deflation counterfactual (delta=1 -> s=+0.1)
        no_deflate = 0.4 * 0.8 + 0.6 * 0.1
        assert infl.delta_rates[0] < no_deflate

    def test_escape_to_zero_congestion_stops_growth(self):
        infl = MomentumInflation(2)
        infl.update(np.array([0.8, 0.2]))
        infl.update(np.array([0.0, 0.9]))   # cell0 fully escaped: s = 0
        assert infl.delta_rates[0] == pytest.approx(0.4 * 0.8)

    def test_rates_always_clamped(self):
        infl = MomentumInflation(1, InflationConfig(r_min=0.9, r_max=2.0))
        for c in (3.0, 3.0, 0.0, 0.0, 3.0):
            rates = infl.update(np.array([c]))
            assert 0.9 <= rates[0] <= 2.0

    @given(
        st.lists(
            st.lists(st.floats(0, 2), min_size=4, max_size=4),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_clamp_invariant_property(self, rounds):
        infl = MomentumInflation(4)
        for c in rounds:
            rates = infl.update(np.array(c))
            assert (rates >= 0.9 - 1e-12).all()
            assert (rates <= 2.0 + 1e-12).all()

    def test_length_mismatch(self):
        infl = MomentumInflation(3)
        with pytest.raises(ValueError):
            infl.update(np.zeros(5))

    def test_reset(self):
        infl = MomentumInflation(2)
        infl.update(np.array([1.0, 1.0]))
        infl.reset()
        assert infl.round == 0
        assert infl.rates == pytest.approx([1.0, 1.0])


class TestSizeScale:
    def test_area_scaling(self):
        infl = MomentumInflation(1)
        infl.update(np.array([0.69]))  # r = 1.69
        s = infl.size_scale()
        assert s[0] == pytest.approx(1.3)  # sqrt(1.69): area scales by r

    def test_identity_at_start(self):
        infl = MomentumInflation(3)
        assert infl.size_scale() == pytest.approx([1, 1, 1])


class TestStateRoundTrip:
    def test_state_dict_includes_last_n_deflated(self):
        infl = MomentumInflation(3)
        infl.update(np.array([2.0, 2.0, 0.1]))
        infl.update(np.array([0.1, 2.5, 0.2]))  # cell 0 escaped -> deflates
        assert infl.last_n_deflated > 0
        state = infl.state_dict()
        assert state["last_n_deflated"] == infl.last_n_deflated

    def test_round_trip_restores_last_n_deflated(self):
        infl = MomentumInflation(3)
        infl.update(np.array([2.0, 2.0, 0.1]))
        infl.update(np.array([0.1, 2.5, 0.2]))
        state = infl.state_dict()
        other = MomentumInflation(3)
        other.load_state_dict(state)
        assert other.last_n_deflated == infl.last_n_deflated
        assert np.array_equal(other.rates, infl.rates)

    def test_reset_clears_last_n_deflated(self):
        infl = MomentumInflation(3)
        infl.update(np.array([2.0, 2.0, 0.1]))
        infl.update(np.array([0.1, 2.5, 0.2]))
        infl.reset()
        assert infl.last_n_deflated == 0
