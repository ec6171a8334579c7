import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chain import reference_channel
from sliptsim.link import (
    NoiseModel,
    TransmitterModel,
    _apply_channel,
    _build_stream,
    _header_length,
    _run_burst,
    _std,
    channel_response,
    mismatch_study,
    run_link,
    snr_crossing_bandwidth,
    sweep,
)
from sliptsim.loading import BitLoadingPlan, bit_power_loading
from sliptsim.ofdm import (
    OfdmConfig,
    SubcarrierSnr,
    SyncError,
    generate_bits,
    modulate_plan,
    synchronize,
)
from sliptsim.ppc import (
    DiodeParams,
    IlluminationProfile,
    SegmentGeometry,
    SegmentedDevice,
    dc_operating_point,
    sector_fractions,
    string_iv,
)
from sliptsim.presets import default_beam, default_receiver, default_transmitter

QUIET = NoiseModel(include_thermal=False, include_shot=False, quantization_snr_db=None)

FAST_CFG = OfdmConfig(fft_size=256, cp_length=5, sample_rate_hz=7.68e9)


def quiet_receiver(name="L4", cap_density=5e-12, **kwargs):
    return default_receiver(
        name,
        diode=DiodeParams(capacitance_density_f_mm2=cap_density),
        noise=QUIET,
        effective_series_resistance_ohm=kwargs.pop("rs", 100.0),
        **kwargs,
    )


class TestTransmitter:
    def test_waveform_stays_linear_at_nominal_drive(self):
        tx = default_transmitter()
        drive = np.linspace(-0.5, 0.5, 101)
        power, clipped = tx.optical_waveform(drive)
        assert clipped == 0.0
        assert power.min() > 0
        assert power.mean() == pytest.approx(tx.emitted_power_w, rel=1e-12)

    def test_overdrive_clips_and_flags(self):
        tx = default_transmitter()
        drive = np.linspace(-5, 5, 1001)
        power, clipped = tx.optical_waveform(drive)
        assert clipped > 0
        assert power.min() == 0.0
        assert power.max() == 2 * tx.emitted_power_w

    @pytest.mark.parametrize("side", ["below", "above", "both", "inside"])
    def test_clip_count_equals_the_mask_count(self, side):
        # gain 0.25 and a [0, 2] W window make the edges exact: drives of
        # -4 and +4 V give 0 and 2 W, which are inside the window
        tx = TransmitterModel(
            slope_efficiency_w_per_a=0.5, transconductance_a_per_v=0.5, emitted_power_w=1.0
        )
        lo, hi = {"below": (-9.0, 4.0), "above": (-4.0, 9.0),
                  "both": (-9.0, 9.0), "inside": (-4.0, 4.0)}[side]
        drive = np.random.default_rng(len(side)).uniform(lo, hi, 50_000)
        drive[:4] = [-4.0, 4.0, -4.0, 4.0]
        p = drive * 0.25 + 1.0
        assert p[0] == 0.0 and p[1] == 2.0
        mask = (p < 0.0) | (p > 2.0)
        assert mask.any() == (side != "inside")
        power, clipped = tx.optical_waveform(drive)
        assert clipped == np.count_nonzero(mask) / drive.size
        assert np.array_equal(power, np.clip(p, 0.0, 2.0))
        # in place: the drive buffer becomes the waveform
        in_place, clipped_in_place = tx.optical_waveform(drive, out=drive)
        assert in_place is drive
        assert clipped_in_place == clipped
        assert np.array_equal(drive, power)

    @pytest.mark.parametrize("field, value", [
        ("emitted_power_w", math.nan),
        ("drive_vpp", math.inf),
    ])
    def test_non_finite_values_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            TransmitterModel(**{field: value})


class TestReadOutValidation:
    @pytest.mark.parametrize("field", ["noise_figure_db", "temperature_k", "quantization_snr_db"])
    def test_non_finite_noise_refused(self, field):
        with pytest.raises(ValueError, match=field):
            NoiseModel(**{field: math.nan})

    @pytest.mark.parametrize("field", ["amplifier_input_ohm", "effective_series_resistance_ohm"])
    def test_non_finite_read_out_refused(self, field):
        with pytest.raises(ValueError, match=field):
            default_receiver("S2", **{field: math.nan})


class TestChannelResponse:
    def test_dc_gain_and_corner(self):
        chain = quiet_receiver()
        gains, f3db = channel_response(chain, FAST_CFG)
        g = chain.beam.responsivity_a_w * chain.ac_load_ohm
        freqs = FAST_CFG.carrier_frequencies_hz()
        k3 = np.argmin(np.abs(freqs - f3db))
        assert abs(gains[0]) == pytest.approx(g, rel=1e-3)  # first carrier ~ DC
        if freqs[0] < f3db < freqs[-1]:
            expected = g / math.sqrt(1 + (freqs[k3] / f3db) ** 2)
            assert abs(gains[k3]) == pytest.approx(expected, rel=1e-12)

    def test_ac_load_is_parallel_combination(self):
        chain = quiet_receiver()
        assert chain.ac_load_ohm == pytest.approx(950 * 50 / 1000, rel=1e-12)

    def test_bandwidth_crossing_interpolation(self):
        freqs = np.array([1.0, 2.0, 3.0, 4.0])
        snr = SubcarrierSnr(np.array([4.0, 2.0, 0.5, 0.1]), np.ones(4, bool))
        bw = snr_crossing_bandwidth(snr, freqs)
        assert 2.0 < bw < 3.0
        none = SubcarrierSnr(np.full(4, 0.5), np.ones(4, bool))
        assert snr_crossing_bandwidth(none, freqs) == 0.0
        alla = SubcarrierSnr(np.full(4, 5.0), np.ones(4, bool))
        assert snr_crossing_bandwidth(alla, freqs) == 4.0


class TestDcOperatingPoint:
    def test_load_line_intersection(self):
        device = SegmentedDevice(
            SegmentGeometry(2.08, 4), DiodeParams(shunt_resistance_ohm=2e5)
        )
        ph = [2e-4] * 4
        op = dc_operating_point(string_iv(device, ph), 950.0)
        assert op.voltage_v == pytest.approx(op.current_a * 950.0, rel=1e-9)
        assert 0 < op.current_a <= 2e-4 + 5e-5

    def test_dark_device(self):
        device = SegmentedDevice(SegmentGeometry(1.0, 2))
        op = dc_operating_point(string_iv(device, [0.0, 0.0]), 950.0)
        assert op.power_w == 0.0


class TestRunLink:
    def test_noiseless_link_error_free(self):
        # gentle drive keeps the waveform strictly inside the laser's linear
        # window, so the only impairment left is the modem's own EVM floor
        tx = replace(default_transmitter(), drive_vpp=0.4)
        report = run_link(
            tx,
            quiet_receiver(cap_density=1e-15),  # corner far above the band
            replace(FAST_CFG, clip_sigma=None),
            seed=3,
            n_measurement_frames=20,
            n_payload_frames=6,
        )
        assert report.clip_fraction == 0.0
        assert report.ber == 0.0
        assert report.data_rate_bps > 0

    def test_deterministic_given_seed(self):
        cfg = FAST_CFG
        kwargs = dict(n_measurement_frames=12, n_payload_frames=4)
        a = run_link(default_transmitter(), quiet_receiver(), cfg, seed=9, **kwargs)
        b = run_link(default_transmitter(), quiet_receiver(), cfg, seed=9, **kwargs)
        assert a.csv_row() == b.csv_row()
        assert np.array_equal(a.snr.snr_linear, b.snr.snr_linear)
        assert np.array_equal(a.plan.bits, b.plan.bits)

    def test_report_fields_populated(self):
        report = run_link(
            default_transmitter(), quiet_receiver(), FAST_CFG, seed=1,
            n_measurement_frames=12, n_payload_frames=4,
        )
        assert report.f3db_hz > 0
        assert report.pmp_w > 0
        assert 0 < report.imp_isc <= 1
        assert report.harvested_w > 0
        assert report.pce_emitted > 0 and report.pce_incident > report.pce_emitted
        assert report.operating_voltage_v == pytest.approx(
            report.operating_current_a * 950.0, rel=1e-9
        )

    def test_miniature_link_rate_arithmetic(self):
        # 15-carrier modem: the reported rate must equal the hand formula
        cfg = OfdmConfig(fft_size=32, cp_length=5, sample_rate_hz=1e9,
                         clip_sigma=None)
        report = run_link(
            default_transmitter(), quiet_receiver(), cfg, seed=2,
            n_measurement_frames=30, n_payload_frames=8,
        )
        expected = report.plan.total_bits * 1e9 / ((32 + 5) * 4)
        assert report.data_rate_bps == pytest.approx(expected, rel=1e-12)

    def test_17db_flat_snr_loads_four_bits(self):
        plan = bit_power_loading(np.full(64, 10 ** 1.7), 4.7e-3)
        assert np.all(plan.bits >= 4)

    def test_noise_psd_doubling_costs_3db(self):
        # noise-dominated regime: flat channel, no clipping, strong PSD
        cfg = OfdmConfig(fft_size=64, cp_length=5, sample_rate_hz=7.68e9,
                         clip_sigma=None)
        base_psd = 6e-21

        def profile(psd):
            noise = NoiseModel(
                include_thermal=False, include_shot=False,
                quantization_snr_db=None, extra_current_psd_a2_hz=psd,
            )
            chain = replace(quiet_receiver(cap_density=1e-15), noise=noise)
            report = run_link(
                default_transmitter(), chain, cfg, seed=4,
                n_measurement_frames=20000, n_payload_frames=1,
            )
            return report.snr

        a = profile(base_psd)
        b = profile(2 * base_psd)
        delta = a.db() - b.db()
        assert np.all(np.abs(delta - 3.0) <= 0.2)


class TestGoldenLink:
    """A small overdriven S2 link pinned to the figures recorded with the
    per-block waveform path (one FFT convolution per block, full-length FFT
    filters at the receiver).  The batched path sums in another order: the
    discrete outcomes must not move and the SNR profile only by rounding."""

    SNR = np.array([
        9.533573850430141, 12.218123713833714, 8.87999257950886,
        9.750997357692928, 11.539675028428112, 8.662453738960192,
        12.723177721337562, 10.205675581173493, 10.584454496195592,
        10.446903009486181, 10.848169145104194, 9.328287826353323,
        8.67604081939035, 10.924436402402119, 9.26014304389128,
        10.235863530987377, 10.094243173792687, 7.668435906735873,
        7.262479738740504, 8.411537297525486, 8.849500174730064,
        9.752492761040156, 10.446871844918045, 10.053289829688184,
        7.822987675158025, 5.221444267091479, 7.885615815116182,
        9.121290653945128, 6.341484647090926, 8.457442952706286,
        8.491255995498006,
    ])
    BITS = [2, 3, 2, 2, 3, 2, 3, 2, 2, 2, 3, 2, 2, 3] + [2] * 17
    POWER = np.array([
        0.792250941428232, 1.5873272762220274, 0.8505618434420583,
        0.7745856737639276, 1.6806505371638032, 0.8719218694592978,
        1.5243173883123722, 0.740076714971414, 0.7135920760860799,
        0.7229877458726727, 1.7877819543379874, 0.8096858714887571,
        0.8705563995617058, 1.7753008320831039, 0.8156442964627202,
        0.737894056062144, 0.7482465726393819, 0.9849443811018092,
        1.0400005411221611, 0.8979313282484996, 0.8534925938242883,
        0.7744669022828672, 0.7229899026523483, 0.751294649426527,
        0.9654857161750908, 1.4465313564260491, 0.957817757707687,
        0.8280607585848664, 1.1910433090212855, 0.8930574998158263,
        0.8895012542530084,
    ])

    def test_small_link_matches_recorded_figures(self):
        report = run_link(
            replace(default_transmitter(), drive_vpp=1.5),
            default_receiver("S2"),
            OfdmConfig(fft_size=64, cp_length=5, sample_rate_hz=7.68e9),
            seed=5,
            n_measurement_frames=100,
            n_payload_frames=16,
        )
        assert report.data_rate_bps == 1864347826.0869565
        assert report.ber == 0.0009328358208955224
        assert report.total_bits_per_frame == 67
        assert report.clip_fraction == 0.007915133998949027
        assert np.all(np.abs(report.snr.snr_linear - self.SNR) <= 1e-12 * self.SNR)
        assert report.plan.bits.tolist() == self.BITS
        assert np.all(np.abs(report.plan.power - self.POWER) <= 1e-12 * self.POWER)


def qpsk_frames(config, n_frames, seed):
    nd = config.data_subcarriers
    plan = BitLoadingPlan(np.full(nd, 2), np.ones(nd))
    return modulate_plan(generate_bits(seed, 2 * nd * n_frames), plan, n_frames)


def s2_channel_inputs(tx):
    """S2 receiver, its mean sector fraction and its DC operating current."""
    chain = default_receiver("S2")
    fractions = sector_fractions(chain.device.geometry, chain.beam)
    photocurrents = chain.beam.responsivity_a_w * tx.emitted_power_w * fractions
    op = dc_operating_point(string_iv(chain.device, photocurrents), chain.load_resistance_ohm)
    return chain, float(fractions.mean()), op.current_a


class TestChannelOracle:
    """The in-place channel equals the step-by-step reference bit for bit."""

    @pytest.mark.parametrize("n", [1, 7, 1000, 100_003])
    def test_std_through_a_spent_buffer_equals_np_std(self, n):
        samples = np.random.default_rng(n).normal(0.3, 2.0, n)
        scratch = np.full(n, np.nan)
        assert _std(samples, scratch) == np.std(samples)

    SMALL_CFG = OfdmConfig(fft_size=64, cp_length=5, sample_rate_hz=7.68e9)

    @pytest.mark.parametrize("case", ["nominal", "overdriven", "constant", "unclipped"])
    def test_matches_reference(self, case):
        tx = default_transmitter()
        config = self.SMALL_CFG
        stream, _, _ = _build_stream(config, qpsk_frames(config, 40, 3))
        if case == "overdriven":
            tx = replace(tx, drive_vpp=1.5)
        elif case == "constant":
            stream = np.full(len(stream), 0.3)
            # numerically constant: a rounding-level std that clip must not scale
            assert 0.0 < stream.std() <= 1e-12 * 0.3
        elif case == "unclipped":
            config = replace(config, clip_sigma=None)
        chain, mean_fraction, current = s2_channel_inputs(tx)
        # the channel consumes its input: it gets a copy, the reference the original
        consumed = stream.copy()
        rx, clipped = _apply_channel(
            consumed, tx, chain, config, mean_fraction, current,
            np.random.default_rng(17),
        )
        ref, ref_clipped = reference_channel(
            stream, tx, chain, config, mean_fraction, current,
            np.random.default_rng(17), config.clip_sigma,
        )
        assert np.shares_memory(rx, consumed)
        assert np.array_equal(rx, ref)
        assert clipped == ref_clipped
        assert type(clipped) is float
        assert (clipped > 0.0) == (case in ("overdriven", "constant"))

    def test_channel_memory_is_bounded(self):
        """The channel of a 1000-frame burst allocates at most 1.1x the
        stream's bytes above what is live at entry: the stream's own buffer
        carries the drive, the optical waveform, the AC photocurrent and
        then the received samples, and the drive's std-dev scratch and the
        single-pole filter's output are each one stream length (about 1.0x
        measured; a separate working buffer takes about 2.0x, a new array
        per step about 4.0x)."""
        config = OfdmConfig()
        stream, _, _ = _build_stream(config, qpsk_frames(config, 1000, 5))
        nbytes = stream.nbytes
        tx = default_transmitter()
        chain, mean_fraction, current = s2_channel_inputs(tx)
        rng = np.random.default_rng(3)
        # scipy.signal is already loaded (by the reference channel), so its
        # import inside the channel allocates nothing here
        tracemalloc.start()
        try:
            rx, _ = _apply_channel(stream, tx, chain, config, mean_fraction, current, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rx is stream
        assert peak <= 1.1 * nbytes

    def test_burst_memory_is_bounded(self):
        """A 1000-frame burst allocates at most 2.4x its stream's bytes
        above what is live at entry: the stream, which the channel consumes
        and returns as the received samples, plus one more stream length at
        the peak (about 2.25x measured; a channel that keeps its input
        intact reaches about 3.25x)."""
        config = OfdmConfig()
        n_pilot = 8
        frames = qpsk_frames(config, 1000 - n_pilot, 5)
        pilot = qpsk_frames(config, 1, 1)[0]
        tx = default_transmitter()
        chain, mean_fraction, current = s2_channel_inputs(tx)
        stream, _, _ = _build_stream(config, np.vstack([np.tile(pilot, (n_pilot, 1)), frames]))
        nbytes = stream.nbytes
        del stream
        rng = np.random.default_rng(3)
        # the burst's lazy imports happen outside the traced window
        _run_burst(frames[:2], pilot, n_pilot, tx, chain, config,
                   mean_fraction, current, np.random.default_rng(0))
        tracemalloc.start()
        try:
            eq, _, _ = _run_burst(frames, pilot, n_pilot, tx, chain, config,
                                  mean_fraction, current, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eq.shape == frames.shape
        assert peak <= 2.4 * nbytes


class TestHeaderSync:
    """run_link searches only the burst header for the preamble."""

    @pytest.mark.parametrize("config", [OfdmConfig(), FAST_CFG], ids=["default", "fast"])
    def test_header_start_equals_whole_stream_start(self, config):
        tx = default_transmitter()
        chain, mean_fraction, current = s2_channel_inputs(tx)
        n_pilot = 8
        frames = np.vstack([qpsk_frames(config, n_pilot, 1), qpsk_frames(config, 100, 2)])
        stream, pre_seg, pre_stride = _build_stream(config, frames)
        rx, _ = _apply_channel(
            stream, tx, chain, config, mean_fraction, current,
            np.random.default_rng(4),
        )
        header = _header_length(config, n_pilot, pre_stride, len(pre_seg))
        assert header < len(rx)
        assert synchronize(rx[:header], pre_seg) == synchronize(rx, pre_seg) == 0

    @pytest.mark.parametrize("noise", [NoiseModel(), QUIET], ids=["noise", "silent"])
    def test_noise_only_burst_raises(self, noise):
        tx = default_transmitter()
        chain, _, current = s2_channel_inputs(tx)
        chain = replace(chain, noise=noise)
        pilot = qpsk_frames(FAST_CFG, 1, 1)[0]
        # no light reaches the device: the burst is receiver noise only, or
        # with the noise switched off, all zeros, whose correlation has no
        # peak at any lag
        with pytest.raises(SyncError):
            _run_burst(
                qpsk_frames(FAST_CFG, 100, 2), pilot, 8, tx, chain, FAST_CFG,
                0.0, current, np.random.default_rng(6),
            )

    @pytest.mark.parametrize("fft_size", [64, 32])
    def test_header_holds_the_preamble_with_one_pilot(self, fft_size):
        config = OfdmConfig(fft_size=fft_size, cp_length=5, sample_rate_hz=7.68e9)
        _, pre_seg, pre_stride = _build_stream(config, qpsk_frames(config, 1, 0))
        header = _header_length(config, 1, pre_stride, len(pre_seg))
        # the preamble plus lags beyond the correlation main lobe
        assert header > len(pre_seg) + len(pre_seg) // 8
        report = run_link(
            default_transmitter(), default_receiver("S2"), config,
            seed=2, n_pilot_frames=1,
        )
        assert report.error == ""
        assert report.total_bits_per_frame > 0


class TestSweep:
    def test_empty(self):
        assert sweep([], default_transmitter(), FAST_CFG) == []

    def test_single_matches_run_link(self):
        chain = quiet_receiver()
        direct = run_link(default_transmitter(), chain, FAST_CFG, seed=5)
        swept = sweep([("L4", chain)], default_transmitter(), FAST_CFG, seed=5)
        assert len(swept) == 1
        assert swept[0].data_rate_bps == direct.data_rate_bps
        assert swept[0].ber == direct.ber

    def test_failure_recorded_not_raised(self):
        # beam misses the device entirely; with thermal noise on, the
        # receiver sees pure noise and synchronization fails for that row
        bad_beam = IlluminationProfile(2.3e-3, 1e-6, center_mm=(40.0, 0.0),
                                       responsivity_a_w=0.42)
        bad = replace(
            quiet_receiver(), beam=bad_beam,
            noise=NoiseModel(quantization_snr_db=None),
        )
        reports = sweep([("ok", quiet_receiver()), ("bad", bad)],
                        default_transmitter(), FAST_CFG, seed=1)
        assert reports[0].error == ""
        assert "Sync" in reports[1].error


class TestMismatch:
    def test_aligned_beam_matches_symmetric_ratio(self):
        device = SegmentedDevice(
            SegmentGeometry(2.08, 4, junction_area_mm2=0.93),
            DiodeParams(capacitance_density_f_mm2=5e-12),
        )
        beam = default_beam()
        rows = mismatch_study(device, beam, [0.0, 0.25, 0.5])
        offsets, ratios, pmps = zip(*rows)
        assert ratios[0] > 0.9
        assert pmps[0] >= pmps[1] >= pmps[2]
        assert ratios[0] >= ratios[1] >= ratios[2] - 1e-9
