import itertools
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from chain import integer_qam_demodulate, integer_qam_modulate
from sliptsim import ParameterError
from sliptsim.qam import (
    VALID_ORDERS,
    constellation,
    exact_ber,
    qam_demodulate,
    qam_modulate,
    required_snr,
)


def q_function(x):
    return 1.0 - ndtr(x)


class TestMapping:
    def test_bpsk_convention(self):
        symbols = qam_modulate([0, 1], 2)
        assert symbols[0] == pytest.approx(-1.0)
        assert symbols[1] == pytest.approx(1.0)

    def test_qpsk_round_trip_all_words(self):
        bits = np.array(list(itertools.product([0, 1], repeat=2))).ravel()
        assert np.array_equal(qam_demodulate(qam_modulate(bits, 4), 4), bits)

    def test_unit_energy_16qam_enumerated(self):
        points = constellation(16)
        assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("order", VALID_ORDERS)
    def test_unit_energy_all_orders(self, order):
        points = constellation(order)
        assert len(points) == order
        assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("order", VALID_ORDERS)
    def test_round_trip_random(self, order, rng):
        b = order.bit_length() - 1
        bits = rng.integers(0, 2, 4096 * b, dtype=np.uint8)
        assert np.array_equal(qam_demodulate(qam_modulate(bits, order), order), bits)

    def test_gray_adjacency(self):
        # nearest horizontal/vertical neighbours differ in exactly one bit
        for order in (16, 32, 64):
            points = constellation(order)
            b = order.bit_length() - 1
            spacing = np.min(
                [abs(p - q) for p, q in itertools.combinations(points[:64], 2)]
            )
            for li, lj in itertools.combinations(range(order), 2):
                if abs(points[li] - points[lj]) < spacing * 1.0001:
                    assert bin(li ^ lj).count("1") == 1

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            qam_modulate([0, 1], 12)
        with pytest.raises(ValueError):
            qam_modulate([0, 1, 0], 4)


class TestUint8Mapping:
    """The uint8 shift-accumulate mapping and the unpacking demapper against
    the integer oracles (int64 words by matmul, int64 shift arrays)."""

    @pytest.mark.parametrize("order", VALID_ORDERS)
    def test_modulate_equals_the_integer_mapping(self, order, rng):
        b = int(np.log2(order))
        # every label, then random ones
        labels = np.array(list(itertools.product([0, 1], repeat=b)), dtype=np.uint8)
        bits = np.concatenate([labels.ravel(), rng.integers(0, 2, 600 * b, dtype=np.uint8)])
        got = qam_modulate(bits, order)
        assert np.array_equal(got, integer_qam_modulate(bits, order))
        # an int64 or bool stream maps as its uint8 bits do
        assert np.array_equal(qam_modulate(bits.astype(np.int64), order), got)
        assert np.array_equal(qam_modulate(bits.astype(bool), order), got)

    @pytest.mark.parametrize("order", VALID_ORDERS)
    def test_demodulate_equals_the_integer_demapping(self, order, rng):
        # noisy symbols over and beyond the constellation, on the decision
        # thresholds and at zero
        points = constellation(order)
        noisy = rng.choice(points, 2000) + 0.3 * (
            rng.normal(size=2000) + 1j * rng.normal(size=2000)
        )
        edges = np.concatenate([0.5 * (points[:-1] + points[1:]), [0.0, 5.0 + 5.0j, -7.0j]])
        symbols = np.concatenate([noisy, edges])
        got = qam_demodulate(symbols, order)
        assert got.dtype == np.uint8
        assert np.array_equal(got, integer_qam_demodulate(symbols, order))


class TestExtremeSymbols:
    @pytest.mark.parametrize("order", VALID_ORDERS)
    @pytest.mark.parametrize("magnitude", [1e300, np.inf])
    def test_beyond_the_grid_decides_the_outer_levels(self, order, magnitude):
        # symbols far past any int64 level index decide the corner points
        # (BPSK has no imaginary axis)
        imags = (0.0,) if order == 2 else (-magnitude, magnitude)
        far = [complex(re, im) for re in (-magnitude, magnitude) for im in imags]
        points = constellation(order)
        corners = [
            points[np.argmin(np.abs(points - 100.0 * complex(np.sign(f.real), np.sign(f.imag))))]
            for f in far
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = qam_demodulate(far, order)
        assert np.array_equal(got, qam_demodulate(corners, order))

    def test_nan_symbol_refused(self):
        for symbol in (complex(np.nan, 0.0), complex(1.0, np.nan)):
            with pytest.raises(ParameterError, match="symbols"):
                qam_demodulate([1.0, symbol], 4)


class TestExactBer:
    def test_bpsk_matches_q_formula(self):
        for snr in [1.0, 3.0, 10.0]:
            assert exact_ber(2, snr) == pytest.approx(
                q_function(np.sqrt(2 * snr)), rel=1e-12
            )

    def test_qpsk_matches_q_formula(self):
        # Gray QPSK: BER = Q(sqrt(snr)) exactly
        for snr in [2.0, 6.0, 12.0]:
            assert exact_ber(4, snr) == pytest.approx(
                q_function(np.sqrt(snr)), rel=1e-12
            )

    def test_against_decision_region_enumeration(self):
        # independent oracle: Monte-Carlo-free enumeration over transmitted
        # symbols, integrating the Gaussian over each receive decision cell
        for order, snr in [(8, 30.0), (16, 60.0), (32, 120.0)]:
            points = constellation(order)
            b = order.bit_length() - 1
            sigma = np.sqrt(0.5 / snr)
            xs = np.unique(np.round(points.real, 12))
            ys = np.unique(np.round(points.imag, 12))
            tx_edges = np.concatenate([[-np.inf], (xs[:-1] + xs[1:]) / 2, [np.inf]])
            ty_edges = np.concatenate([[-np.inf], (ys[:-1] + ys[1:]) / 2, [np.inf]])
            labels = {
                (round(p.real, 12), round(p.imag, 12)): i
                for i, p in enumerate(points)
            }
            total = 0.0
            for i, p in enumerate(points):
                px = ndtr((tx_edges[1:] - p.real) / sigma) - ndtr(
                    (tx_edges[:-1] - p.real) / sigma
                )
                py = ndtr((ty_edges[1:] - p.imag) / sigma) - ndtr(
                    (ty_edges[:-1] - p.imag) / sigma
                )
                for ix, qx in enumerate(px):
                    for iy, qy in enumerate(py):
                        j = labels[(round(xs[ix], 12), round(ys[iy], 12))]
                        total += qx * qy * bin(i ^ j).count("1")
            oracle = total / (order * b)
            assert exact_ber(order, snr) == pytest.approx(oracle, rel=1e-9)

    def test_monte_carlo_agreement(self, rng):
        for order, snr_db in [(4, 10.0), (64, 21.0), (1024, 33.0)]:
            snr = 10 ** (snr_db / 10)
            b = order.bit_length() - 1
            n_bits = 300_000 // b * b
            bits = rng.integers(0, 2, n_bits, dtype=np.uint8)
            tx = qam_modulate(bits, order)
            noise = (rng.normal(size=tx.size) + 1j * rng.normal(size=tx.size)) * np.sqrt(
                0.5 / snr
            )
            rx_bits = qam_demodulate(tx + noise, order)
            ber = np.mean(bits != rx_bits)
            expect = exact_ber(order, snr)
            se = np.sqrt(expect * (1 - expect) / n_bits)
            assert abs(ber - expect) <= 3 * se

    def test_required_snr_inverts(self):
        for order in (2, 8, 64, 1024):
            snr = required_snr(order, 4.7e-3)
            assert exact_ber(order, snr) == pytest.approx(4.7e-3, rel=1e-6)

    def test_zero_snr_limit(self):
        assert exact_ber(4, 0.0) == 0.5
