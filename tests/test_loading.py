import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliptsim.loading import (
    BitLoadingPlan,
    bit_power_loading,
    required_snr_table,
    snr_gap,
)
from sliptsim.qam import exact_ber


def dp_optimum(snr, table, max_bits):
    """Exhaustive optimum via dynamic programming over total bit count.

    For every achievable total bit count, tracks the minimum slack cost
    sum(power) - n_active; a total is feasible iff that minimum is <= 0.
    Enumerates every per-carrier bit choice, so it is an exhaustive oracle.
    """
    dp = {0: 0.0}
    for s in snr:
        if s <= 0:
            continue
        options = [(0, 0.0)] + [
            (b, table[b] / s - 1.0) for b in range(1, max_bits + 1)
        ]
        new = {}
        for total, cost in dp.items():
            for b, oc in options:
                key = total + b
                val = cost + oc
                if val < new.get(key, math.inf):
                    new[key] = val
        dp = new
    return max(t for t, c in dp.items() if c <= 0.0)


class TestGap:
    def test_gap_formula(self):
        assert snr_gap(4.7e-3) == pytest.approx(-math.log(5 * 4.7e-3) / 1.5, rel=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            snr_gap(0.0)
        with pytest.raises(ValueError):
            snr_gap(0.6)

    def test_table_monotone_and_floored(self):
        table = required_snr_table(4.7e-3, 10)
        assert np.all(np.diff(table) > 0)
        for b in range(1, 11):
            assert exact_ber(2**b, table[b]) <= 4.7e-3 * (1 + 1e-9)

    def test_table_is_shared_and_read_only(self):
        table = required_snr_table(4.7e-3, 10)
        assert required_snr_table(4.7e-3, 10) is table
        assert required_snr_table(4.7e-3, 8) is not table
        with pytest.raises(ValueError):
            table[3] = 0.0


class TestLoading:
    def test_zero_snr_gives_zero_plan(self):
        plan = bit_power_loading(np.zeros(16), 4.7e-3)
        assert plan.total_bits == 0
        assert np.all(plan.power == 0.0)

    def test_flat_snr_uniform_closed_form(self):
        # snr chosen just above the 4-bit requirement where the gap term
        # governs; no pooled slack remains for a fifth bit anywhere
        gamma = snr_gap(4.7e-3)
        snr_val = gamma * (2.0**4 - 1.0) * (1 + 1e-9)
        plan = bit_power_loading(np.full(64, snr_val), 4.7e-3)
        expected = math.floor(math.log2(1 + snr_val / gamma))
        assert expected == 4
        assert np.all(plan.bits == expected)

    def test_cap_respected(self):
        plan = bit_power_loading(np.full(8, 1e9), 4.7e-3, max_qam_order=256)
        assert np.all(plan.bits == 8)

    def test_matches_exhaustive_dp_on_random_instances(self, rng):
        table = required_snr_table(4.7e-3, 10)
        for _ in range(60):
            snr = 10 ** rng.uniform(-1.0, 3.5, 16)
            plan = bit_power_loading(snr, 4.7e-3)
            assert plan.total_bits == dp_optimum(snr, table, 10)

    def test_predicted_ber_meets_target(self, rng):
        snr = 10 ** rng.uniform(0.0, 3.2, 48)
        target = 4.7e-3
        plan = bit_power_loading(snr, target)
        for k in range(48):
            if plan.bits[k] > 0:
                ber = exact_ber(2 ** plan.bits[k], snr[k] * plan.power[k])
                assert ber <= target * (1 + 1e-9)

    def test_usable_mask_forces_zero(self):
        snr = np.full(8, 100.0)
        usable = np.array([True, False] * 4)
        plan = bit_power_loading(snr, 4.7e-3, usable=usable)
        assert np.all(plan.bits[~usable] == 0)
        assert np.all(plan.bits[usable] > 0)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        target=st.sampled_from([6.6e-4, 4.7e-3, 2e-2]),
    )
    @settings(max_examples=60, deadline=None)
    def test_plan_invariants(self, seed, n, target):
        rng = np.random.default_rng(seed)
        snr = 10 ** rng.uniform(-2.0, 3.5, n)
        snr[rng.random(n) < 0.2] = 0.0
        plan = bit_power_loading(snr, target)
        assert np.all(plan.bits >= 0)
        assert np.all(plan.bits <= 10)
        assert np.all(plan.power[plan.bits == 0] == 0.0)
        if plan.n_active:
            assert plan.power[plan.bits > 0].mean() == pytest.approx(1.0, abs=1e-12)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            BitLoadingPlan(np.array([0, 1]), np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            BitLoadingPlan(np.array([-1, 1]), np.array([0.0, 1.0]))
