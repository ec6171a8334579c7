import math

import numpy as np
import pytest
from scipy.signal import lfilter, welch
from scipy.special import ndtr

from chain import digital_loopback
from sliptsim.loading import BitLoadingPlan, bit_power_loading
from sliptsim.ofdm import (
    OfdmConfig,
    SyncError,
    assemble_frame,
    clip,
    data_rate,
    demodulate_plan,
    equalize,
    estimate_channel,
    estimate_snr,
    generate_bits,
    hermitian_spectrum,
    make_preamble,
    measure_ber,
    modulate_plan,
    ofdm_core,
    overlap_add,
    symbols_from_spectrum,
    synchronize,
)

CFG = OfdmConfig()
SMALL = OfdmConfig(fft_size=64, cp_length=5, sample_rate_hz=1e9)


class TestConfig:
    def test_defaults_match_experiment(self):
        assert CFG.fft_size == 1024
        assert CFG.data_subcarriers == 511
        assert CFG.cp_length == 5
        assert CFG.clip_sigma == 3.2
        assert CFG.max_qam_order == 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            OfdmConfig(fft_size=1000)
        with pytest.raises(ValueError):
            OfdmConfig(cp_length=2048)
        with pytest.raises(ValueError):
            OfdmConfig(max_qam_order=48)
        with pytest.raises(ValueError):
            OfdmConfig(rolloff=1.5)


class TestBits:
    def test_empty(self):
        assert generate_bits(1, 0).size == 0

    def test_deterministic(self):
        assert np.array_equal(generate_bits(1, 4096), generate_bits(1, 4096))

    def test_balanced(self):
        bits = generate_bits(1, 1_000_000)
        assert 0.495 <= bits.mean() <= 0.505


class TestSpectrum:
    def test_hermitian_realness(self, rng):
        symbols = rng.normal(size=(5, CFG.data_subcarriers)) + 1j * rng.normal(
            size=(5, CFG.data_subcarriers)
        )
        core = np.fft.ifft(hermitian_spectrum(symbols, CFG.fft_size), axis=-1)
        rms = np.sqrt(np.mean(np.abs(core) ** 2))
        assert np.sqrt(np.mean(core.imag**2)) / rms < 1e-10

    def test_dc_and_nyquist_zero(self, rng):
        symbols = rng.normal(size=CFG.data_subcarriers) + 0j
        spec = hermitian_spectrum(symbols, CFG.fft_size)
        assert spec[0] == 0 and spec[CFG.fft_size // 2] == 0

    def test_transform_round_trip(self, rng):
        symbols = rng.normal(size=CFG.data_subcarriers) + 1j * rng.normal(
            size=CFG.data_subcarriers
        )
        core = ofdm_core(symbols, CFG)
        back = symbols_from_spectrum(np.fft.fft(core))
        err = np.linalg.norm(back - symbols) / np.linalg.norm(symbols)
        assert err < 1e-12

    def test_all_zero_symbols(self):
        assert np.all(assemble_frame(np.zeros(CFG.data_subcarriers), CFG) == 0.0)

    def test_single_carrier_is_pure_sinusoid(self):
        k = 50
        symbols = np.zeros(CFG.data_subcarriers, dtype=complex)
        symbols[k - 1] = 1.0
        core = ofdm_core(symbols, CFG)
        t = np.arange(CFG.fft_size)
        expected = 2.0 * np.cos(2 * math.pi * k * t / CFG.fft_size) / CFG.fft_size
        assert np.abs(core - expected).max() < 1e-15

    @pytest.mark.parametrize("k", [10, 255, 500])
    def test_single_carrier_leakage(self, k):
        symbols = np.zeros(CFG.data_subcarriers, dtype=complex)
        symbols[k - 1] = 1.0
        seg = assemble_frame(symbols, CFG)
        stream = overlap_add([seg] * 48, CFG.block_stride)
        f, p = welch(stream, fs=CFG.sample_rate_hz, nperseg=16384)
        edge = CFG.sample_rate_hz / (2 * CFG.oversampling_factor) * (1 + CFG.rolloff)
        leakage = p[f > edge].sum() / p[f <= edge].sum()
        assert 10 * math.log10(leakage) < -60.0


class TestClip:
    def test_gaussian_clip_fraction(self, rng):
        samples = rng.normal(0.0, 2.5, 1_000_000)
        clipped = clip(samples, 3.2)
        fraction = np.mean(clipped != samples)
        expected = 2 * (1 - ndtr(3.2))
        se = math.sqrt(expected * (1 - expected) / samples.size)
        assert abs(fraction - expected) <= 3 * se

    def test_within_range_identity(self, rng):
        samples = np.clip(rng.normal(size=1000), -0.9, 0.9)
        assert np.array_equal(clip(samples, 3.2), samples)

    def test_constant_stream_identity(self):
        samples = np.full(100, 1.7)
        assert np.array_equal(clip(samples, 3.2), samples)

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            clip(np.zeros(4), 0.0)


class TestSync:
    def test_noiseless_exact_offset(self):
        _, pre = make_preamble(CFG)
        stream = np.zeros(20_000)
        stream[777 : 777 + len(pre)] = pre
        assert synchronize(stream, pre) == 777

    def test_awgn_10db_monte_carlo(self, rng):
        _, pre = make_preamble(SMALL)
        sigma = pre.std() / math.sqrt(10.0)  # 10 dB SNR
        hits = 0
        trials = 1000
        for _ in range(trials):
            stream = rng.normal(0, sigma, 4000)
            at = int(rng.integers(100, 2000))
            stream[at : at + len(pre)] += pre
            try:
                if synchronize(stream, pre) == at:
                    hits += 1
            except SyncError:
                pass
        assert hits / trials >= 0.99

    def test_pure_noise_fails(self, rng):
        _, pre = make_preamble(CFG)
        with pytest.raises(SyncError):
            synchronize(rng.normal(size=30_000), pre)


class TestChannelEstimation:
    def test_flat_gain_recovered(self, rng):
        tx = rng.normal(size=64) + 1j * rng.normal(size=64)
        gains = estimate_channel(0.5 * tx[None, :], tx)
        assert np.allclose(gains, 0.5, atol=1e-12)
        eq = equalize(0.5 * tx[None, :], gains)
        assert np.allclose(eq[0], tx, atol=1e-12)

    def test_three_tap_channel_analytic_response(self, rng):
        # OFDM through a 3-tap FIR shorter than the CP; gains must equal the
        # analytic frequency response H(k) = sum h_m exp(-j 2 pi k m / N)
        cfg = SMALL
        taps = np.array([1.0, -0.35, 0.2])
        nd = cfg.data_subcarriers
        pilot = (rng.normal(size=nd) + 1j * rng.normal(size=nd)) / math.sqrt(2)
        core = ofdm_core(pilot, cfg)
        block = np.concatenate([core[-cfg.cp_length :], core])
        rx = lfilter(taps, [1.0], np.concatenate([block, np.zeros(4)]))
        rx_core = rx[cfg.cp_length : cfg.cp_length + cfg.fft_size]
        rx_syms = symbols_from_spectrum(np.fft.fft(rx_core))
        gains = estimate_channel(rx_syms[None, :], pilot)
        k = np.arange(1, nd + 1)
        analytic = sum(
            taps[m] * np.exp(-2j * math.pi * k * m / cfg.fft_size) for m in range(3)
        )
        assert np.abs(gains - analytic).max() < 1e-10

    def test_pilot_averaging_law(self, rng):
        tx = (rng.normal(size=256) + 1j * rng.normal(size=256)) / math.sqrt(2)
        sigma = 0.1

        def gain_rms_error(n_pilots, trials=200):
            errs = []
            for _ in range(trials):
                noise = (
                    rng.normal(size=(n_pilots, 256))
                    + 1j * rng.normal(size=(n_pilots, 256))
                ) * sigma / math.sqrt(2)
                gains = estimate_channel(tx[None, :] + noise, tx)
                errs.append(np.mean(np.abs(gains - 1.0) ** 2))
            return math.sqrt(np.mean(errs))

        ratio = gain_rms_error(1) / gain_rms_error(64)
        assert ratio == pytest.approx(8.0, rel=0.15)  # RMS falls sqrt(64)

    def test_zero_pilot_carrier_flagged(self):
        tx = np.array([1.0, 0.0, 1.0], dtype=complex)
        gains = estimate_channel(np.array([[0.5, 0.3, 0.5]]), tx)
        assert gains[1] == 0.0
        eq = equalize(np.array([[1.0, 1.0, 1.0]], dtype=complex), gains)
        assert eq[0, 1] == 0.0


class TestSnrEstimator:
    def test_perfect_symbols_hit_ceiling(self):
        ref = np.ones((200, 8), dtype=complex)
        snr = estimate_snr(ref, ref, ceiling_db=60.0)
        assert np.all(snr.snr_linear == pytest.approx(1e6))

    def test_known_awgn_variance(self, rng):
        n = 10_000
        ref = np.exp(2j * math.pi * rng.random((n, 4)))
        for target_db in (10.0, 20.0):
            var = 10 ** (-target_db / 10)
            noise = (rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))) * math.sqrt(
                var / 2
            )
            snr = estimate_snr(ref + noise, ref)
            assert np.all(np.abs(snr.db() - target_db) <= 0.5)

    def test_few_symbols_warns(self):
        ref = np.ones((8, 4), dtype=complex)
        with pytest.warns(UserWarning, match="symbols per carrier"):
            estimate_snr(ref, ref)

    def test_unused_carrier_flagged(self):
        ref = np.zeros((200, 3), dtype=complex)
        ref[:, 0] = 1.0
        snr = estimate_snr(ref, ref)
        assert snr.measured[0] and not snr.measured[1]
        assert snr.snr_linear[1] == 0.0


class TestRates:
    def test_ber_trivial(self):
        bits = generate_bits(3, 1000)
        assert measure_ber(bits, bits) == 0.0
        assert measure_ber(bits, 1 - bits) == 1.0
        with pytest.raises(ValueError):
            measure_ber(bits, bits[:-1])

    def test_data_rate_documented_scale(self):
        cfg = OfdmConfig(sample_rate_hz=1.92e9, oversampling_factor=1, rolloff=0.1)
        plan = BitLoadingPlan(np.full(511, 4), np.ones(511))
        rate = data_rate(plan, cfg)
        assert rate == pytest.approx(2044 * 1.92e9 / 1029, rel=1e-12)
        assert rate == pytest.approx(3.814e9, rel=1e-3)

    def test_plan_modulation_round_trip(self, rng):
        nd = SMALL.data_subcarriers
        snr = 10 ** rng.uniform(0.5, 3.0, nd)
        plan = bit_power_loading(snr, 4.7e-3)
        bits = generate_bits(5, 4 * plan.total_bits)
        symbols = modulate_plan(bits, plan, 4)
        assert np.array_equal(demodulate_plan(symbols, plan), bits)
        active = plan.bits > 0
        powers = np.mean(np.abs(symbols[:, active]) ** 2, axis=0)
        assert powers.mean() == pytest.approx(1.0, rel=0.1)


class TestLoopback:
    @pytest.mark.parametrize("order", [2, 16, 1024])
    def test_noiseless_identity_channel(self, order):
        ber, sync_err, *_ = digital_loopback(order, CFG, n_frames=2)
        assert sync_err == 0
        assert ber == 0.0

    def test_one_pole_channel_equalized(self):
        a = math.exp(-2 * math.pi * 0.06)
        channel = lambda x: lfilter([1 - a], [1.0, -a], x)
        ber, sync_err, *_ = digital_loopback(64, CFG, n_frames=2, channel=channel)
        assert ber == 0.0
