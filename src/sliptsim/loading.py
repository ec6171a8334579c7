"""Adaptive bit and power loading from a per-subcarrier SNR profile.

Greedy incremental allocation in the Hughes-Hartogs style: bit increments
are granted cheapest-first until no further increment fits the power budget.
The per-bit required-SNR table comes from the SNR-gap approximation
Gamma = -ln(5*BER)/1.5, floored by the exact Gray-QAM inverse BER for the
orders where the gap fit is known optimistic (BPSK and the small rectangular
constellations), so a carrier loaded at its table value never exceeds the
BER target.

Power accounting: every active carrier contributes one unit to the budget
(unloaded carriers transmit nothing), so a carrier's first bit costs its
required power minus the budget unit it brings.  Because the effective
increment costs are non-decreasing within each carrier, taking increments in
globally sorted cost order is provably rate-optimal for this budget rule,
and the finished plan always normalizes the active-carrier mean power to one
without ever scaling power down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .qam import required_snr

__all__ = [
    "BitLoadingPlan",
    "snr_gap",
    "required_snr_table",
    "bit_power_loading",
]


def snr_gap(ber_target: float) -> float:
    """SNR gap Gamma = -ln(5 * BER) / 1.5."""
    if not 0.0 < ber_target < 0.5:
        raise ParameterError("ber_target must lie in (0, 0.5)")
    return -math.log(5.0 * ber_target) / 1.5


@dataclass
class BitLoadingPlan:
    """Per-subcarrier bit counts and power scales.

    Invariants: zero-bit carriers carry zero power; the mean power scale
    over active carriers is one.
    """

    bits: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=int)
        self.power = np.asarray(self.power, dtype=float)
        if self.bits.shape != self.power.shape:
            raise ParameterError("bits and power must have the same shape")
        if np.any(self.bits < 0) or np.any(self.power < 0):
            raise ParameterError("bits and power must be non-negative")
        if np.any((self.bits == 0) & (self.power != 0.0)):
            raise ParameterError("zero-bit carriers must carry zero power")

    @property
    def total_bits(self) -> int:
        return int(self.bits.sum())

    @property
    def n_active(self) -> int:
        return int(np.count_nonzero(self.bits))


@lru_cache(maxsize=32)
def required_snr_table(ber_target: float, max_bits: int) -> np.ndarray:
    """Required SNR to carry b bits at the BER target, for b = 0..max_bits.

    Entry b is max(Gamma * (2^b - 1), exact Gray-QAM inverse); the table is
    forced non-decreasing.  Tables are cached per argument set and returned
    read-only, since every caller shares the same array.
    """
    gamma = snr_gap(ber_target)
    table = np.array([gamma * (2.0**b - 1.0) for b in range(max_bits + 1)])
    for b in range(1, max_bits + 1):
        table[b] = max(table[b], required_snr(2**b, ber_target))
    table = np.maximum.accumulate(table)
    table.setflags(write=False)
    return table


def bit_power_loading(
    snr_linear,
    ber_target: float,
    max_qam_order: int = 1024,
    usable=None,
) -> BitLoadingPlan:
    """Greedy incremental bit/power allocation over measured subcarrier SNRs.

    Args:
        snr_linear: measured SNR per data subcarrier at unit power scale.
        ber_target: per-carrier bit-error-rate ceiling, in (0, 0.5).
        max_qam_order: constellation cap (power of two up to 1024).
        usable: optional boolean mask; carriers marked False stay unloaded
            (dead or unmeasurable carriers).

    Returns:
        BitLoadingPlan whose predicted per-carrier BER is at or below the
        target.  An all-zero SNR profile yields an all-zero plan.
    """
    snr = np.asarray(snr_linear, dtype=float)
    if snr.ndim != 1:
        raise ParameterError("snr profile must be one-dimensional")
    if np.any(~np.isfinite(snr)) or np.any(snr < 0):
        raise ParameterError("snr values must be finite and non-negative")
    if usable is None:
        usable = np.ones(snr.size, dtype=bool)
    usable = np.asarray(usable, dtype=bool)

    max_bits = int(math.log2(max_qam_order))
    table = required_snr_table(ber_target, max_bits)

    bits = np.zeros(snr.size, dtype=int)
    power = np.zeros(snr.size)

    loadable = usable & (snr > 0.0)
    idx = np.nonzero(loadable)[0]
    if idx.size > 0:
        # incremental power to go from b-1 to b bits, per loadable carrier
        increments = np.diff(table)[None, :] / snr[idx, None]
        # a carrier's first bit also brings one budget unit
        slack_cost = increments.copy()
        slack_cost[:, 0] -= 1.0
        flat_cost = slack_cost.ravel()  # (carrier, b) row-major: chains stay ordered
        order = np.argsort(flat_cost, kind="stable")
        prefix = np.cumsum(flat_cost[order])
        feasible = np.nonzero(prefix <= 0.0)[0]
        if feasible.size > 0:
            granted = order[: feasible[-1] + 1]
            counts = np.bincount(granted // max_bits, minlength=idx.size)
            bits[idx] = counts
            power[idx] = table[counts] / snr[idx]
            power[bits == 0] = 0.0

    active = bits > 0
    if np.any(active):
        # the budget rule guarantees sum(power) <= n_active: scale-up only
        power *= np.count_nonzero(active) / power.sum()
    return BitLoadingPlan(bits, power)
