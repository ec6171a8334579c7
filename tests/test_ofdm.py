import math
import tracemalloc

import numpy as np
import pytest
from scipy.signal import fftconvolve, lfilter, welch
from scipy.special import ndtr

from chain import build_tx_stream, digital_loopback, reference_core
from sliptsim import ofdm
from sliptsim.link import _build_stream
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
    make_preamble,
    matched_filter,
    measure_ber,
    modulate_plan,
    ofdm_core,
    overlap_add,
    receive_blocks,
    rrc_taps,
    synchronize,
)

CFG = OfdmConfig()
SMALL = OfdmConfig(fft_size=64, cp_length=5, sample_rate_hz=1e9)

# The batched waveform path and the per-block references sum in another
# order, so they agree to rounding only.  The bound is fixed from float64
# precision (a few hundred ulps of the peak sample), not from a measured
# difference.
BATCH_TOL = 1e-12


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

    @pytest.mark.parametrize("field", ["sample_rate_hz", "clip_sigma"])
    def test_non_finite_values_refused(self, field):
        with pytest.raises(ValueError, match=field):
            OfdmConfig(**{field: math.nan})


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
        # the real core against the complex oracle: the difference holds the
        # oracle's imaginary residue and any error of the real transform
        symbols = rng.normal(size=(5, CFG.data_subcarriers)) + 1j * rng.normal(
            size=(5, CFG.data_subcarriers)
        )
        core = ofdm_core(symbols, CFG)
        ref = reference_core(symbols, CFG.fft_size)
        assert core.dtype == np.float64 and core.shape == ref.shape
        rms = np.sqrt(np.mean(np.abs(ref) ** 2))
        assert np.sqrt(np.mean(np.abs(core - ref) ** 2)) / rms < 1e-10

    def test_dc_and_nyquist_zero(self, rng):
        symbols = rng.normal(size=CFG.data_subcarriers) + 0j
        spec = np.fft.fft(ofdm_core(symbols, CFG))
        peak = np.abs(spec).max()
        assert abs(spec[0]) < 1e-12 * peak and abs(spec[CFG.fft_size // 2]) < 1e-12 * peak

    def test_transform_round_trip(self, rng):
        symbols = rng.normal(size=CFG.data_subcarriers) + 1j * rng.normal(
            size=CFG.data_subcarriers
        )
        core = ofdm_core(symbols, CFG)
        back = np.fft.fft(core)[1 : CFG.fft_size // 2]
        err = np.linalg.norm(back - symbols) / np.linalg.norm(symbols)
        assert err < 1e-12

    @pytest.mark.parametrize("n_carriers", [CFG.data_subcarriers - 1, CFG.data_subcarriers + 1])
    def test_wrong_carrier_count_refused(self, n_carriers):
        with pytest.raises(ValueError, match="data symbols"):
            ofdm_core(np.ones((2, n_carriers), dtype=complex), CFG)

    def test_core_memory_is_bounded(self, rng):
        """The cores of 1000 frames allocate at most 2.05x their own bytes:
        the half spectrum and the real result (2.00x measured; the full
        Hermitian spectrum, its complex IFFT and a realness check took
        5.0x), and the result owns its data, so no complex base stays
        alive."""
        frames = random_stack(rng, 1000, CFG)
        tracemalloc.start()
        try:
            core = ofdm_core(frames, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert core.shape == (1000, CFG.fft_size)
        assert core.dtype == np.float64 and core.base is None
        assert peak <= 2.05 * core.nbytes

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

    @pytest.mark.parametrize("kind", ["gaussian", "constant"])
    def test_out_buffer_receives_the_same_samples(self, rng, kind):
        x = rng.normal(size=10_000) if kind == "gaussian" else np.full(10_000, 0.3)
        sent = x.copy()
        out = np.full_like(x, np.nan)
        assert clip(x, 2.0, out=out) is out
        assert np.array_equal(out, clip(x, 2.0))
        assert np.array_equal(x, sent)

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


def test_cached_taps_and_preamble_core_are_shared_and_read_only():
    taps = rrc_taps(CFG)
    core, _ = make_preamble(CFG)
    assert rrc_taps(CFG) is taps and make_preamble(CFG)[0] is core
    for cached in (taps, core):
        before = cached.copy()
        with pytest.raises(ValueError, match="read-only"):
            cached *= 2
        assert np.array_equal(cached, before)


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
        rx_syms = np.fft.fft(rx_core)[1 : cfg.fft_size // 2]
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

    def test_zero_gains_equal_the_mask_gather_bytes(self, rng):
        symbols = rng.normal(size=(64, 37)) + 1j * rng.normal(size=(64, 37))
        gains = rng.normal(size=37) + 1j * rng.normal(size=37)
        gains[[0, 20]] = 0.0
        # the division gathered through a boolean mask of the non-zero gains
        expected = np.zeros_like(symbols)
        nz = gains != 0
        expected[..., nz] = symbols[..., nz] / gains[nz]
        eq = equalize(symbols, gains)
        assert eq.dtype == expected.dtype and eq.shape == expected.shape
        assert eq.tobytes() == expected.tobytes()


class TestSnrEstimator:
    def test_perfect_symbols_hit_ceiling(self):
        ref = np.ones((200, 8), dtype=complex)
        snr = estimate_snr(ref, ref)
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


def random_stack(rng, n_frames, config):
    """Unit-power QPSK frames [n_frames, data_subcarriers]."""
    nd = config.data_subcarriers
    plan = BitLoadingPlan(np.full(nd, 2), np.ones(nd))
    bits = generate_bits(int(rng.integers(2**31)), 2 * nd * n_frames)
    return modulate_plan(bits, plan, n_frames)


def reference_segment(frame, config):
    """One block built without the modem code: Hermitian IFFT, cyclic
    prefix, zero-stuffing and a direct convolution with the RRC taps."""
    n, osf = config.fft_size, config.oversampling_factor
    core = reference_core(frame, n).real
    block = np.concatenate([core[n - config.cp_length :], core])
    up = np.zeros(len(block) * osf)
    up[::osf] = block
    return np.convolve(up, rrc_taps(config))


def first_window_lead(config):
    """Offset from a block's start to its first FFT sample after filtering:
    both filter delays plus the CP samples ahead of the advanced window."""
    osf = config.oversampling_factor
    return len(rrc_taps(config)) - 1 + (config.cp_length - config.cp_length // 2) * osf


def per_block_receive(mf_stream, first_block_start, n_blocks, config):
    """Block-by-block down-sampling and FFT of a full-rate matched-filtered
    stream, one block per iteration."""
    out = []
    for b in range(n_blocks):
        start = first_block_start + b * config.block_stride + first_window_lead(config)
        core = mf_stream[start + np.arange(config.fft_size) * config.oversampling_factor]
        out.append(np.fft.fft(core)[1 : config.fft_size // 2])
    return np.array(out)


class TestBatchedWaveform:
    def test_stack_matches_per_block_segments(self, rng):
        frames = random_stack(rng, 12, SMALL)
        stream = assemble_frame(frames, SMALL)
        per_frame = overlap_add(
            [assemble_frame(f, SMALL) for f in frames], SMALL.block_stride
        )
        direct = overlap_add(
            [reference_segment(f, SMALL) for f in frames], SMALL.block_stride
        )
        for ref in (per_frame, direct):
            assert len(stream) == len(ref)
            assert np.abs(stream - ref).max() <= BATCH_TOL * np.abs(ref).max()

    def test_burst_stream_matches_per_frame_oracle(self, rng):
        frames = random_stack(rng, 20, CFG)
        stream, pre_seg, first = _build_stream(CFG, frames)
        ref, _, ref_first = build_tx_stream(list(frames), CFG, tail_pad=0)
        assert first == ref_first
        assert np.array_equal(pre_seg, make_preamble(CFG)[1])
        assert len(stream) == len(ref)
        assert np.abs(stream - ref).max() <= BATCH_TOL * np.abs(ref).max()

    def test_single_frame_is_a_stack_of_one(self, rng):
        frame = random_stack(rng, 1, SMALL)
        assert np.array_equal(assemble_frame(frame[0], SMALL), assemble_frame(frame, SMALL))

    def test_filters_match_fftconvolve(self, rng):
        frames = random_stack(rng, 6, CFG)
        stream, pre_start, _ = build_tx_stream(list(frames), CFG, lead_pad=333)
        stream = stream + rng.normal(0.0, 0.3 * stream.std(), len(stream))
        _, pre = make_preamble(CFG)
        corr = fftconvolve(stream, pre[::-1], mode="valid")
        assert synchronize(stream, pre) == int(np.argmax(np.abs(corr))) == pre_start
        mf = matched_filter(stream, CFG)
        ref = fftconvolve(stream, rrc_taps(CFG) / CFG.oversampling_factor)
        assert len(mf) == len(ref)
        assert np.abs(mf - ref).max() <= BATCH_TOL * np.abs(ref).max()

    @pytest.mark.parametrize("osf", [1, 2, 3, 4])
    def test_shaping_matches_zero_stuffed_fftconvolve(self, rng, osf):
        config = OfdmConfig(fft_size=64, oversampling_factor=osf, sample_rate_hz=1e9)
        n = config.fft_size
        frames = random_stack(rng, 5, config)
        core = reference_core(frames, n).real
        blocks = np.concatenate([core[:, n - config.cp_length :], core], axis=1)
        # odd input lengths: 1, 7, 1001 samples and the 5 * 69-symbol stack
        cases = [(x, ofdm._shape(x, config)) for x in (rng.normal(size=k) for k in (1, 7, 1001))]
        cases.append((blocks.ravel(), assemble_frame(frames, config)))
        for samples, shaped in cases:
            up = np.zeros(len(samples) * osf)
            up[::osf] = samples
            ref = fftconvolve(up, rrc_taps(config))
            assert len(shaped) == len(ref)
            assert np.abs(shaped - ref).max() <= BATCH_TOL * np.abs(ref).max()

    @pytest.mark.parametrize("osf", [2, 4])
    @pytest.mark.parametrize(
        "length",
        ["1", "K-1", "block-1", "block", "block+1", "out_block",
         "chunk-1", "chunk", "chunk+1", "out_chunk", "3chunks+rem"],
    )
    def test_chunked_shaping_at_block_and_chunk_edges(self, rng, osf, length):
        # the overlap-save layout of _shape: K taps per phase, blocks of
        # nfft inputs giving nfft - K + 1 outputs, _CHUNK_BLOCKS blocks per
        # chunk; "out_*" lengths put the per-phase output count (input
        # length + K - 1) exactly on a block or chunk edge
        config = OfdmConfig(fft_size=64, oversampling_factor=osf, sample_rate_hz=1e9)
        k = ofdm._polyphase_taps_cached(osf, config.rolloff).shape[1]
        block = ofdm._fft_size(k) - k + 1
        chunk = block * ofdm._CHUNK_BLOCKS
        n = {
            "1": 1, "K-1": k - 1,
            "block-1": block - 1, "block": block, "block+1": block + 1,
            "out_block": block - k + 1,
            "chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1,
            "out_chunk": chunk - k + 1, "3chunks+rem": 3 * chunk + 123,
        }[length]
        samples = rng.normal(size=n)
        shaped = ofdm._shape(samples, config)
        up = np.zeros(n * osf)
        up[::osf] = samples
        ref = fftconvolve(up, rrc_taps(config))
        assert len(shaped) == len(ref)
        assert np.abs(shaped - ref).max() <= BATCH_TOL * np.abs(ref).max()

    def test_empty_stack_shapes_to_an_empty_stream(self):
        shaped = assemble_frame(np.zeros((0, CFG.data_subcarriers), dtype=complex), CFG)
        assert shaped.shape == (0,)
        assert shaped.dtype == np.float64

    def test_assemble_frame_memory_is_bounded(self, rng):
        """Shaping a 1000-frame stack allocates at most 1.5x the shaped
        stream's bytes above what is live at entry: the real IFFT stage and
        the cyclic-prefixed blocks, then the result and one chunk of
        overlap-save blocks (about 1.46x measured; with a complex IFFT and
        the bare cores held through shaping it took 1.96x, convolving every
        phase at once and interleaving a copy about 4.7x)."""
        frames = random_stack(rng, 1000, CFG)
        tracemalloc.start()
        try:
            stream = assemble_frame(frames, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stream) == 1000 * CFG.block_stride + len(rrc_taps(CFG)) - 1
        assert peak <= 1.5 * stream.nbytes

    def test_receive_blocks_equals_per_block_loop(self, rng):
        # 60 blocks read 61,740 phase samples: two chunks of the phase-only
        # matched filter (64 overlap-save blocks of 1024 - 97 outputs each)
        n_blocks = 60
        frames = random_stack(rng, n_blocks, CFG)
        stream, _, first = build_tx_stream(list(frames), CFG, lead_pad=100)
        stream = stream + rng.normal(0.0, 0.01, len(stream))
        batched = receive_blocks(stream, first, n_blocks, CFG)
        mf = fftconvolve(stream, rrc_taps(CFG) / CFG.oversampling_factor)
        ref = per_block_receive(mf, first, n_blocks, CFG)
        assert batched.shape == ref.shape
        assert np.abs(batched - ref).max() <= BATCH_TOL * np.abs(ref).max()

    @pytest.mark.parametrize("osf, q", [(osf, q) for osf in (1, 2, 3, 4) for q in range(osf)])
    def test_receive_blocks_at_every_read_phase(self, rng, monkeypatch, osf, q):
        # one overlap-save block per chunk, so the run spans several chunks
        monkeypatch.setattr(ofdm, "_CHUNK_BLOCKS", 1)
        config = OfdmConfig(fft_size=64, oversampling_factor=osf, sample_rate_hz=1e9)
        n_blocks = 40
        lead = first_window_lead(config)
        frames = random_stack(rng, n_blocks, config)
        stream, _, first = build_tx_stream(
            list(frames), config, lead_pad=25 * osf + (q - lead) % osf
        )
        stream = stream + rng.normal(0.0, 0.01, len(stream))
        assert (first + lead) % osf == q  # the phase the windows read
        got = receive_blocks(stream, first, n_blocks, config)
        mf = fftconvolve(stream, rrc_taps(config) / osf)
        ref = per_block_receive(mf, first, n_blocks, config)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= BATCH_TOL * np.abs(ref).max()

    def test_receive_window_bounds(self, rng):
        n_blocks = 3
        lead = first_window_lead(CFG)
        last_offset = (n_blocks - 1) * CFG.block_stride + (CFG.fft_size - 1) * CFG.oversampling_factor
        n_taps = len(rrc_taps(CFG))
        # the implied full-rate filter output is len(stream) + n_taps - 1 long
        # and the FFT windows span lead + last_offset + 1 of its samples
        stream = rng.normal(size=lead + last_offset + 2 - n_taps)
        mf = fftconvolve(stream, rrc_taps(CFG) / CFG.oversampling_factor)
        assert len(mf) == lead + last_offset + 1
        # lowest start: the first window begins at filter output sample 0
        # highest start: the last window ends on its last sample
        for start in (-lead, 0):
            got = receive_blocks(stream, start, n_blocks, CFG)
            ref = per_block_receive(mf, start, n_blocks, CFG)
            assert np.abs(got - ref).max() <= BATCH_TOL * np.abs(ref).max()
        with pytest.raises(ValueError, match="before the stream"):
            receive_blocks(stream, -lead - 1, n_blocks, CFG)
        with pytest.raises(ValueError, match="too short"):
            receive_blocks(stream, 1, n_blocks, CFG)

    def test_receive_blocks_memory_is_bounded(self, rng):
        # the matched filter works in chunks: its peak stays well under the
        # stream's own size (about 0.85x at 1M samples), where one unchunked
        # transform of every polyphase block would take about 1.9x
        n_blocks = 1_000_000 // CFG.block_stride
        stream = rng.normal(size=(n_blocks + 1) * CFG.block_stride)
        tracemalloc.start()
        try:
            receive_blocks(stream, 0, n_blocks, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * stream.nbytes
