import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.signal import fftconvolve, lfilter, welch
from scipy.special import ndtr

from chain import (
    build_tx_stream,
    digital_loopback,
    frames_burst,
    integer_demodulate_plan,
    integer_modulate_plan,
    measure_ber,
    reference_core,
    whole_buffer_blocks,
    whole_buffer_burst,
    whole_buffer_receive,
)
from sliptsim import ofdm
from sliptsim.errors import ParameterError
from sliptsim.loading import BitLoadingPlan, bit_power_loading
from sliptsim.ofdm import (
    OfdmConfig,
    SyncError,
    assemble_burst,
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

    @pytest.mark.parametrize("field, value", [
        ("fft_size", 1024.0),  # was a builtin TypeError from `&` on a float
        ("fft_size", True),
        ("cp_length", 2.5),
        ("oversampling_factor", 2.5),
        ("max_qam_order", 1024.0),
    ])
    def test_integer_fields_refuse_other_types(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be an integer"):
            OfdmConfig(**{field: value})

    def test_numpy_integers_are_integers(self):
        config = OfdmConfig(fft_size=np.int64(64), cp_length=np.int32(4),
                            oversampling_factor=np.int64(2))
        assert config.block_stride == 136


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


def random_qpsk(rng, n_frames, config):
    """A (bits, plan) stack of n_frames unit-power QPSK frames."""
    nd = config.data_subcarriers
    plan = BitLoadingPlan(np.full(nd, 2), np.ones(nd))
    return generate_bits(int(rng.integers(2**31)), 2 * nd * n_frames), plan


def frames_of(stack):
    """The frames [n_frames, n_carriers] a (bits, plan) stack maps to."""
    bits, plan = stack
    return modulate_plan(bits, plan, bits.size // plan.total_bits)


def tiled(stack, n):
    """A (bits, plan) stack repeated n times: pilot repeats."""
    bits, plan = stack
    return np.tile(bits, n), plan


def sources(stacks):
    """The block reader's (n_frames, pieces) sources of (bits, plan) stacks."""
    return [ofdm._frame_source(*stack) for stack in stacks]


def random_stack(rng, n_frames, config):
    """Unit-power QPSK frames [n_frames, data_subcarriers]."""
    return frames_of(random_qpsk(rng, n_frames, config))


def shape_samples(samples, config):
    """The TX shaping filter applied to a symbol-rate array."""
    return ofdm._shape(partial(ofdm._window, samples), len(samples), config, 0)


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
        stack = random_qpsk(rng, 20, CFG)
        stream, pre_seg, first = assemble_burst([stack], CFG)
        ref, _, ref_first = build_tx_stream(list(frames_of(stack)), CFG, tail_pad=0)
        assert first == ref_first
        assert np.array_equal(pre_seg, make_preamble(CFG)[1])
        assert len(stream) == len(ref)
        assert np.abs(stream - ref).max() <= BATCH_TOL * np.abs(ref).max()

    def test_chunked_ifft_equals_whole_stack_core(self, rng):
        # pilot repeats, then frames: the blocks each shaping chunk builds
        # for itself, read back to back, against one IFFT of every frame
        stacks = [tiled(random_qpsk(rng, 1, CFG), 3), random_qpsk(rng, 40, CFG)]
        ref = whole_buffer_blocks([frames_of(stack) for stack in stacks], CFG)
        read, n_samples = ofdm._block_reader(sources(stacks), CFG)
        assert n_samples == ref.size
        got = np.concatenate([read(lo, lo + 1000) for lo in range(0, n_samples, 1000)])
        assert np.array_equal(got[:n_samples], ref.ravel())

    def test_burst_adds_the_preamble_into_the_shaped_head(self, rng):
        # the preamble and the shaped frames overlap-added into a new stream,
        # and the burst of the frames given as symbols
        stacks = [tiled(random_qpsk(rng, 1, CFG), 8), random_qpsk(rng, 20, CFG)]
        stream, pre_seg, first = assemble_burst(stacks, CFG)
        frames = np.vstack([frames_of(stack) for stack in stacks])
        ref = overlap_add([pre_seg, assemble_frame(frames, CFG)], first)
        assert first == CFG.preamble_length * CFG.oversampling_factor < len(pre_seg)
        assert np.array_equal(stream, ref)
        assert np.array_equal(frames_burst(frames, CFG)[0], ref)

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
        cases = [(x, shape_samples(x, config)) for x in (rng.normal(size=k) for k in (1, 7, 1001))]
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
        shaped = shape_samples(samples, config)
        up = np.zeros(n * osf)
        up[::osf] = samples
        ref = fftconvolve(up, rrc_taps(config))
        assert len(shaped) == len(ref)
        assert np.abs(shaped - ref).max() <= BATCH_TOL * np.abs(ref).max()

    def test_empty_stack_shapes_to_an_empty_stream(self):
        shaped = assemble_frame(np.zeros((0, CFG.data_subcarriers), dtype=complex), CFG)
        assert shaped.shape == (0,)
        assert shaped.dtype == np.float64
        # and the full-rate matched filter gives it back empty, as fftconvolve does
        assert matched_filter(shaped, CFG).shape == (0,)

    def test_assemble_frame_memory_is_bounded(self, rng):
        """Shaping a 1000-frame stack allocates at most 1.1x the shaped
        stream's bytes above what is live at entry: the result and one
        chunk's working set, the blocks it reads (built from their frames)
        and their overlap-save transforms, about 2.2 MB (1.072x measured,
        the bound leaves 0.03x, about 1 MB; a whole symbol-rate block
        buffer beside the stream and 64-block chunks took 1.46x, a complex
        IFFT with the bare cores held through shaping 1.96x, convolving
        every phase at once and interleaving a copy about 4.7x)."""
        frames = random_stack(rng, 1000, CFG)
        tracemalloc.start()
        try:
            stream = assemble_frame(frames, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stream) == 1000 * CFG.block_stride + len(rrc_taps(CFG)) - 1
        assert peak <= 1.1 * stream.nbytes

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
        config = OfdmConfig(fft_size=64, oversampling_factor=osf, sample_rate_hz=1e9)
        n_blocks = 40
        lead = first_window_lead(config)
        frames = random_stack(rng, n_blocks, config)
        stream, _, first = build_tx_stream(
            list(frames), config, lead_pad=25 * osf + (q - lead) % osf
        )
        stream = stream + rng.normal(0.0, 0.01, len(stream))
        assert (first + lead) % osf == q  # the phase the windows read
        whole = whole_buffer_receive(stream, first, n_blocks, config)
        # one or three overlap-save blocks per chunk, so the run spans
        # several chunks; bit-equal to the whole-phase path
        for chunk_blocks in (1, 3):
            monkeypatch.setattr(ofdm, "_CHUNK_BLOCKS", chunk_blocks)
            got = receive_blocks(stream, first, n_blocks, config)
            assert np.array_equal(got, whole)
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
        # the matched filter works in chunks and each chunk's complete
        # windows are transformed straight into the result, a quarter of
        # the stream's bytes: about 0.456x at 1M samples, the result and
        # 1.6 MB of working set (the bound leaves 0.044x, about 0.35 MB).
        # The whole matched-filter phase and full-width spectrum took
        # 0.91x, one unchunked transform of every polyphase block 1.9x
        n_blocks = 1_000_000 // CFG.block_stride
        stream = rng.normal(size=(n_blocks + 1) * CFG.block_stride)
        tracemalloc.start()
        try:
            receive_blocks(stream, 0, n_blocks, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * stream.nbytes


class TestStreamedModem:
    """The chunk-at-a-time transmitter and receiver against their
    whole-buffer forms (one symbol-rate block buffer, one full matched-filter
    phase), by exact equality: overlap-save blocks sit at ``first + k*step``
    whatever the chunk size, and the FFTs transform rows independently."""

    @pytest.mark.parametrize("chunk_blocks", [1, 3, 64])
    @pytest.mark.parametrize("osf", [1, 2, 3, 4])
    def test_burst_equals_the_whole_buffer_path(self, rng, monkeypatch, osf, chunk_blocks):
        config = OfdmConfig(fft_size=64, oversampling_factor=osf, sample_rate_hz=1e9)
        # a pilot stack, a one-frame stack and a longer one: stack edges
        # fall inside chunks and on their edges
        stacks = [
            tiled(random_qpsk(rng, 1, config), 3),
            random_qpsk(rng, 1, config),
            random_qpsk(rng, 150, config),
        ]
        ref = whole_buffer_burst([frames_of(stack) for stack in stacks], config)
        monkeypatch.setattr(ofdm, "_CHUNK_BLOCKS", chunk_blocks)
        stream, pre_seg, first = assemble_burst(stacks, config)
        assert first == ref[2]
        assert np.array_equal(pre_seg, ref[1])
        assert np.array_equal(stream, ref[0])

    @pytest.mark.parametrize("chunk_blocks", [1, 3, 64])
    def test_default_burst_equals_the_whole_buffer_path(self, rng, monkeypatch, chunk_blocks):
        stacks = [tiled(random_qpsk(rng, 1, CFG), 8), random_qpsk(rng, 40, CFG)]
        frames = [frames_of(stack) for stack in stacks]
        ref, _, _ = whole_buffer_burst(frames, CFG)
        monkeypatch.setattr(ofdm, "_CHUNK_BLOCKS", chunk_blocks)
        assert np.array_equal(assemble_burst(stacks, CFG)[0], ref)
        whole = whole_buffer_blocks(frames, CFG).ravel()
        assert np.array_equal(assemble_frame(np.vstack(frames), CFG), shape_samples(whole, CFG))

    def test_block_reader_at_frame_stack_and_chunk_edges(self, rng):
        # stacks of 3, 1 and 4 frames: every read range that starts or ends
        # on a block or stack edge, one sample either side, or outside the
        # stream, against the whole block buffer zero-padded
        stacks = [
            tiled(random_qpsk(rng, 1, SMALL), 3),
            random_qpsk(rng, 1, SMALL),
            random_qpsk(rng, 4, SMALL),
        ]
        whole = whole_buffer_blocks([frames_of(stack) for stack in stacks], SMALL).ravel()
        read, n_samples = ofdm._block_reader(sources(stacks), SMALL)
        assert n_samples == len(whole) == 8 * SMALL.block_length
        edges = [k * SMALL.block_length for k in range(9)]
        points = sorted({e + d for e in edges for d in (-1, 0, 1)} | {-200, n_samples + 200})
        for lo in points:
            for hi in points:
                if lo < hi:
                    assert np.array_equal(read(lo, hi), ofdm._window(whole, lo, hi))

    @pytest.mark.parametrize("chunk_blocks", [1, 3, 64])
    def test_receive_equals_the_whole_buffer_path(self, rng, monkeypatch, chunk_blocks):
        n_blocks = 60
        frames = random_stack(rng, n_blocks, CFG)
        stream, _, first = build_tx_stream(list(frames), CFG, lead_pad=100)
        stream = stream + rng.normal(0.0, 0.01, len(stream))
        ref = whole_buffer_receive(stream, first, n_blocks, CFG)
        monkeypatch.setattr(ofdm, "_CHUNK_BLOCKS", chunk_blocks)
        got = receive_blocks(stream, first, n_blocks, CFG)
        assert got.flags.c_contiguous and got.base is None
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("n_blocks", [0, 1, 2])
    def test_short_runs_receive_whole(self, rng, n_blocks):
        # runs shorter than one chunk, and none at all
        frames = random_stack(rng, 3, SMALL)
        stream, _, first = build_tx_stream(list(frames), SMALL)
        got = receive_blocks(stream, first, n_blocks, SMALL)
        assert got.shape == (n_blocks, SMALL.data_subcarriers)
        assert np.array_equal(got, whole_buffer_receive(stream, first, n_blocks, SMALL))


def random_plan(rng, n_carriers):
    """Every order from 1 to 10 bits and unloaded carriers, in random
    carrier order, with random power scales."""
    bits = np.concatenate([np.arange(11), rng.integers(0, 11, n_carriers - 11)])
    rng.shuffle(bits)
    return BitLoadingPlan(bits, np.where(bits > 0, rng.uniform(0.5, 2.0, n_carriers), 0.0))


class TestPlanMapping:
    """The chunked, broadcast-indexed uint8 mapping against the integer
    oracles (a column list per carrier, int64 words, every frame at once),
    by exact equality, with 9 frames in one chunk or across chunks of 4."""

    @pytest.mark.parametrize("plan_rows", [4, 64])
    def test_modulate_equals_the_integer_path(self, rng, monkeypatch, plan_rows):
        monkeypatch.setattr(ofdm, "_PLAN_ROWS", plan_rows)
        plan = random_plan(rng, CFG.data_subcarriers)
        bits = generate_bits(4, 9 * plan.total_bits)
        got = modulate_plan(bits, plan, 9)
        assert np.array_equal(got, integer_modulate_plan(bits, plan, 9))

    @pytest.mark.parametrize("plan_rows", [4, 64])
    def test_demodulate_equals_the_integer_path(self, rng, monkeypatch, plan_rows):
        monkeypatch.setattr(ofdm, "_PLAN_ROWS", plan_rows)
        plan = random_plan(rng, CFG.data_subcarriers)
        symbols = modulate_plan(generate_bits(5, 9 * plan.total_bits), plan, 9)
        noise = rng.normal(size=symbols.shape) + 1j * rng.normal(size=symbols.shape)
        symbols = symbols + 0.05 * noise
        got = demodulate_plan(symbols, plan)
        assert got.dtype == np.uint8
        assert np.array_equal(got, integer_demodulate_plan(symbols, plan))
        # one frame may be given 1-D
        one = demodulate_plan(symbols[3], plan)
        assert np.array_equal(one, integer_demodulate_plan(symbols[3:4], plan))

    def test_plan_memory_is_bounded(self, rng):
        """Mapping and demapping 1024 frames of a mostly-QPSK plan each
        allocate at most their result and 1.5 MiB: one 64-frame chunk's
        temporaries (0.69 MiB measured for the mapping beside its 8 MiB
        result, 0.95 MiB for the demapping).  Every frame at once, with the
        integer mapping, took about 18 MiB and 28 MiB."""
        bits = np.full(CFG.data_subcarriers, 2)
        bits[:68] = 3
        plan = BitLoadingPlan(bits, np.ones(CFG.data_subcarriers))
        payload = generate_bits(6, 1024 * plan.total_bits)
        tracemalloc.start()
        try:
            symbols = modulate_plan(payload, plan, 1024)
            mod_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rx = demodulate_plan(symbols, plan)
            demod_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.array_equal(rx, payload)
        assert mod_peak <= symbols.nbytes + 1.5 * 2**20
        assert demod_peak <= rx.nbytes + 1.5 * 2**20


class TestPayloadBits:
    """A burst's stacks are (bits, plan) pairs, and a payload shapes and
    receives as the frames its bits map to, by exact equality, with groups
    and batches of ``_PLAN_ROWS`` frames that straddle shaping chunks,
    receive chunks and the pilot stack's edge."""

    @pytest.mark.parametrize("plan_rows, chunk_blocks", [(4, 1), (4, 3), (64, 16)])
    def test_bits_shape_as_their_frames(self, rng, monkeypatch, plan_rows, chunk_blocks):
        monkeypatch.setattr(ofdm, "_PLAN_ROWS", plan_rows)
        monkeypatch.setattr(ofdm, "_CHUNK_BLOCKS", chunk_blocks)
        plan = random_plan(rng, SMALL.data_subcarriers)
        n_frames = 2 * plan_rows + 3
        bits = generate_bits(8, n_frames * plan.total_bits)
        pilots = tiled(random_qpsk(rng, 1, SMALL), 3)
        frames = modulate_plan(bits, plan, n_frames)
        ref = frames_burst(np.vstack([frames_of(pilots), frames]), SMALL)
        groups = []
        modulate = ofdm.modulate_plan

        def tracked(*args):
            groups.append(modulate(*args))
            return groups[-1]

        monkeypatch.setattr(ofdm, "modulate_plan", tracked)
        got = assemble_burst([pilots, (bits, plan)], SMALL)
        assert np.array_equal(got[0], ref[0])
        # shaping reads move forward: each group is mapped once, the
        # pilots' one and then the payload's
        assert [len(g) for g in groups] == [3, plan_rows, plan_rows, 3]
        assert np.array_equal(np.vstack(groups[1:]), frames)

    def test_reader_of_bits_at_group_and_stack_edges(self, rng, monkeypatch):
        # every read range that starts or ends on a block, group or stack
        # edge, one sample either side, or outside the stream, in any order
        monkeypatch.setattr(ofdm, "_PLAN_ROWS", 2)
        plan = random_plan(rng, SMALL.data_subcarriers)
        bits = generate_bits(9, 5 * plan.total_bits)
        stacks = [tiled(random_qpsk(rng, 1, SMALL), 3), (bits, plan)]
        whole = whole_buffer_blocks([frames_of(stack) for stack in stacks], SMALL).ravel()
        read, n_samples = ofdm._block_reader(sources(stacks), SMALL)
        assert n_samples == len(whole) == 8 * SMALL.block_length
        edges = [k * SMALL.block_length for k in range(9)]
        points = sorted({e + d for e in edges for d in (-1, 0, 1)} | {-200, n_samples + 200})
        for lo in reversed(points):
            for hi in points:
                if lo < hi:
                    assert np.array_equal(read(lo, hi), ofdm._window(whole, lo, hi))

    @pytest.mark.parametrize("n_bits, loaded", [(7, True), (0, False)], ids=["partial", "unloaded"])
    def test_bits_must_fill_whole_frames_of_a_loaded_plan(self, n_bits, loaded):
        nd = SMALL.data_subcarriers
        plan = BitLoadingPlan(np.full(nd, 2 if loaded else 0), np.full(nd, 1.0 if loaded else 0.0))
        with pytest.raises(ParameterError, match="whole frames"):
            assemble_burst([(np.zeros(n_bits, dtype=np.uint8), plan)], SMALL)

    @pytest.mark.parametrize("case", ["frames", "3-tuple", "not a plan"])
    def test_a_stack_is_bits_and_a_plan(self, rng, case):
        # a frames array, a third element, or a second element that is not
        # a plan: the second stack is refused by its position
        bits, plan = random_qpsk(rng, 2, SMALL)
        stack = {
            "frames": frames_of((bits, plan)),
            "3-tuple": (bits, plan, 2),
            "not a plan": (bits, plan.bits),
        }[case]
        refusal = r"stack 1 of a burst is not a \(bits, BitLoadingPlan\) pair"
        with pytest.raises(ParameterError, match=refusal):
            assemble_burst([(bits, plan), stack], SMALL)

    @pytest.mark.parametrize("rows", [1, 5, 64])
    @pytest.mark.parametrize("n_blocks", [0, 1, 60])
    def test_receive_batches_make_up_the_whole_result(self, rng, rows, n_blocks):
        # 60 blocks span two receive chunks of the default config
        frames = random_stack(rng, max(n_blocks, 1), CFG)
        stream, _, first = build_tx_stream(list(frames), CFG, lead_pad=100)
        stream = stream + rng.normal(0.0, 0.01, len(stream))
        whole = receive_blocks(stream, first, n_blocks, CFG)
        batches = list(ofdm._receive_batches(stream, first, n_blocks, CFG, rows))
        assert [len(b) for b in batches] == [
            min(rows, n_blocks - lo) for lo in range(0, n_blocks, rows)
        ]
        assert np.array_equal(np.concatenate([whole[:0], *batches]), whole)


class TestTypedErrors:
    """Malformed arguments at the modem entry points are package errors
    naming the argument."""

    def test_demodulate_plan_carrier_count(self):
        plan = BitLoadingPlan(np.full(SMALL.data_subcarriers, 2), np.ones(SMALL.data_subcarriers))
        for shape in [(4, SMALL.data_subcarriers - 1), (4, SMALL.data_subcarriers + 1),
                      (2, 4, SMALL.data_subcarriers)]:
            with pytest.raises(ParameterError, match="symbols"):
                demodulate_plan(np.zeros(shape, dtype=complex), plan)

    @pytest.mark.parametrize("n_gains", [SMALL.data_subcarriers - 1, SMALL.data_subcarriers + 1])
    def test_equalize_gain_count(self, n_gains):
        with pytest.raises(ParameterError, match="gains"):
            equalize(np.ones((3, SMALL.data_subcarriers), dtype=complex), np.ones(n_gains))

    def test_receive_blocks_negative_count(self, rng):
        stream = rng.normal(size=10 * SMALL.block_stride)
        with pytest.raises(ParameterError, match="n_blocks"):
            receive_blocks(stream, 0, -1, SMALL)

    @pytest.mark.parametrize("loaded", [True, False], ids=["loaded", "unloaded"])
    def test_modulate_plan_negative_frame_count(self, loaded):
        nd = SMALL.data_subcarriers
        plan = BitLoadingPlan(np.full(nd, 2 if loaded else 0), np.full(nd, 1.0 if loaded else 0.0))
        with pytest.raises(ParameterError, match="n_frames"):
            modulate_plan(np.zeros(0, dtype=np.uint8), plan, -2)
