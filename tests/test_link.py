import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import lfilter

from chain import frames_burst, measure_ber, reference_channel
from sliptsim import link, ofdm
from sliptsim.calibrate import calibrated_receiver
from sliptsim.link import (
    _CHANNEL_CHUNK,
    _POLE_CHUNK,
    LinkReport,
    TransmitterModel,
    _apply_channel,
    _count_errors,
    _header_length,
    _one_pole,
    _send_burst,
    _std,
    _sum_of_squares,
    channel_response,
    run_link,
    snr_crossing_bandwidth,
    sweep,
)
from sliptsim.errors import ParameterError
from sliptsim.loading import BitLoadingPlan, bit_power_loading
from sliptsim.ofdm import (
    OfdmConfig,
    SubcarrierSnr,
    SyncError,
    _receive_batches,
    assemble_burst,
    demodulate_plan,
    equalize,
    estimate_channel,
    generate_bits,
    modulate_plan,
    receive_blocks,
    rrc_taps,
    synchronize,
)
from sliptsim.ppc import (
    DiodeParams,
    IlluminationProfile,
    NoiseModel,
    SegmentGeometry,
    SegmentedDevice,
    dc_operating_point,
    mismatch_study,
    sector_fractions,
    string_iv,
)
from sliptsim.presets import (
    PRESET_NAMES, default_beam, default_receiver, default_transmitter,
)

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
            # the discrete pole the waveform path applies
            fs = FAST_CFG.sample_rate_hz
            a = math.exp(-2 * math.pi * f3db / fs)
            expected = g * (1 - a) / abs(1 - a * np.exp(-2j * math.pi * freqs[k3] / fs))
            assert abs(gains[k3]) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("name", ["S2", "L6"])
    def test_equals_the_pole_the_waveform_applies(self, calibration, name):
        # the rfft of the filter's impulse response over whole carrier
        # periods, long enough for its tail to vanish, at the carrier bins
        chain = calibrated_receiver(calibration, name)
        config = OfdmConfig()
        gains, f3db = channel_response(chain, config)
        periods = 16
        impulse = np.zeros(periods * config.fft_size * config.oversampling_factor)
        impulse[0] = 1.0
        spectrum = np.fft.rfft(_one_pole(impulse, f3db, config.sample_rate_hz))
        carriers = periods * np.arange(1, config.data_subcarriers + 1)
        expected = chain.beam.responsivity_a_w * chain.ac_load_ohm * spectrum[carriers]
        assert np.max(np.abs(gains / expected - 1.0)) < 1e-9

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
        with pytest.warns(UserWarning, match="SNR estimated from only 20"):
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

    def test_payload_symbols_are_freed_before_the_channel(self, monkeypatch):
        # every stack enters its burst as bits: the transmitter maps them a
        # group of _PLAN_ROWS frames at a time through ofdm.modulate_plan
        # (the pilot and SNR references come from link's binding), and no
        # group outlives the shaping, so none is alive at a channel pass
        groups, alive = [], []
        modulate, channel = ofdm.modulate_plan, link._apply_channel

        def tracked_modulate(*args):
            symbols = modulate(*args)
            groups.append((len(symbols), weakref.ref(symbols)))
            return symbols

        def tracked_channel(*args):
            alive.append(any(ref() is not None for _, ref in groups))
            return channel(*args)

        monkeypatch.setattr(ofdm, "modulate_plan", tracked_modulate)
        monkeypatch.setattr(link, "_apply_channel", tracked_channel)
        with pytest.warns(UserWarning, match="SNR estimated from only 12"):
            report = run_link(
                default_transmitter(), quiet_receiver(), FAST_CFG, seed=1,
                n_measurement_frames=12, n_payload_frames=2 * ofdm._PLAN_ROWS + 3,
            )
        assert report.total_bits_per_frame > 0
        # the measurement burst's 8 pilots and 12 frames, then the payload
        # burst's 8 pilots and its three groups
        assert [n for n, _ in groups] == [8, 12, 8, ofdm._PLAN_ROWS, ofdm._PLAN_ROWS, 3]
        assert alive == [False, False]

    def test_deterministic_given_seed(self):
        cfg = FAST_CFG
        kwargs = dict(n_measurement_frames=12, n_payload_frames=4)
        with pytest.warns(UserWarning, match="SNR estimated from only 12"):
            a = run_link(default_transmitter(), quiet_receiver(), cfg, seed=9, **kwargs)
            b = run_link(default_transmitter(), quiet_receiver(), cfg, seed=9, **kwargs)
        assert a.csv_row() == b.csv_row()
        assert np.array_equal(a.snr.snr_linear, b.snr.snr_linear)
        assert np.array_equal(a.plan.bits, b.plan.bits)

    def test_report_fields_populated(self):
        with pytest.warns(UserWarning, match="SNR estimated from only 12"):
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
        with pytest.warns(UserWarning, match="SNR estimated from only 30"):
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


class TestRunLinkArguments:
    """run_link's frame counts and seed are integers in their legal range,
    refused with a ParameterError, which sweep records in its row."""

    CONFIG = OfdmConfig(fft_size=64, cp_length=5, sample_rate_hz=7.68e9)

    @pytest.mark.parametrize("name, value", [
        ("n_payload_frames", 2.5),
        ("n_pilot_frames", 2.0),
        ("seed", 1.5),
        ("n_pilot_frames", -1),
        ("seed", -1),
        ("n_pilot_frames", 0),
        ("n_measurement_frames", 0),
    ])
    def test_counts_and_seed_are_checked(self, name, value):
        with pytest.raises(ParameterError, match=name):
            run_link(default_transmitter(), default_receiver("S2"), self.CONFIG, **{name: value})

    def test_sweep_records_a_negative_seed(self):
        [report] = sweep([("S2", default_receiver("S2"))], default_transmitter(),
                         self.CONFIG, seed=-1)
        assert report.error == "ParameterError: seed must be at least 0, got -1"


class TestStreamedPayload:
    """run_link maps every stack's bits a group at a time and counts the
    payload's bit errors a receive batch at a time.  The whole-burst oracle
    maps every frame of a burst at once and shapes them as symbols
    (``frames_burst``), then receives every payload block
    (``receive_blocks``) and equalizes, demaps and measures the BER of the
    whole payload (``equalize``, ``demodulate_plan``, ``measure_ber``); the
    reports must be equal, field for field."""

    CONFIG = OfdmConfig(fft_size=64, cp_length=5, sample_rate_hz=7.68e9)

    @pytest.mark.parametrize("n_payload", [0, 1, 130])
    @pytest.mark.parametrize("n_pilot", [8, 230])
    def test_ber_and_report_equal_the_whole_burst_oracle(self, monkeypatch, n_pilot, n_payload):
        config = self.CONFIG
        # 230 pilots straddle the first receive chunk (about 215 blocks of
        # this config) and the first receive batches
        osf = config.oversampling_factor
        k = ofdm._polyphase_taps_cached(osf, config.rolloff).shape[1] + 1
        chunk_blocks = (ofdm._fft_size(k) - k + 1) * ofdm._CHUNK_BLOCKS / config.block_length
        assert ofdm._PLAN_ROWS < chunk_blocks < 230
        tx = replace(default_transmitter(), drive_vpp=1.5)  # overdriven: errors occur
        kwargs = dict(seed=5, n_pilot_frames=n_pilot, n_payload_frames=n_payload)
        report = run_link(tx, default_receiver("S2"), config, **kwargs)

        oracle_ber = []

        def whole_burst(stacks, n_pilot_frames, *args):
            frames = np.vstack([
                modulate_plan(bits, plan, bits.size // plan.total_bits) for bits, plan in stacks
            ])
            stream, pre_seg, pre_stride = frames_burst(frames, config)
            rx, clipped = link._apply_channel(stream, *args)
            header = _header_length(config, n_pilot_frames, pre_stride, len(pre_seg))
            return rx, synchronize(rx[:header], pre_seg) + pre_stride, clipped

        def whole_receive(stream, first, n_blocks, config):
            return [receive_blocks(stream, first, n_blocks, config)]

        def whole_count(batches, pilot, n_pilot_frames, bits, plan):
            [blocks] = batches
            gains = estimate_channel(blocks[:n_pilot_frames], pilot)
            rx_bits = demodulate_plan(equalize(blocks[n_pilot_frames:], gains), plan)
            oracle_ber.append(measure_ber(bits, rx_bits))
            return int(np.count_nonzero(rx_bits != bits))

        monkeypatch.setattr(link, "_send_burst", whole_burst)
        monkeypatch.setattr(link, "_receive_batches", whole_receive)
        monkeypatch.setattr(link, "_count_errors", whole_count)
        oracle = run_link(tx, default_receiver("S2"), config, **kwargs)
        assert report.total_bits_per_frame > 0
        assert report.ber == oracle.ber == oracle_ber[0]
        assert (report.ber > 0) == (n_payload == 130)
        assert report.csv_row() == oracle.csv_row()
        assert np.array_equal(report.snr.snr_linear, oracle.snr.snr_linear)
        assert np.array_equal(report.plan.bits, oracle.plan.bits)
        assert np.array_equal(report.plan.power, oracle.plan.power)


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


def qpsk_stack(config, n_frames, seed):
    """A (bits, plan) stack of n_frames QPSK frames on every carrier."""
    nd = config.data_subcarriers
    return generate_bits(seed, 2 * nd * n_frames), BitLoadingPlan(np.full(nd, 2), np.ones(nd))


def s2_channel_inputs(tx):
    """S2 receiver, its mean sector fraction and its DC operating current."""
    chain = default_receiver("S2")
    fractions = sector_fractions(chain.device.geometry, chain.beam)
    photocurrents = chain.beam.responsivity_a_w * tx.emitted_power_w * fractions
    op = dc_operating_point(string_iv(chain.device, photocurrents), chain.load_resistance_ohm)
    return chain, float(fractions.mean()), op.current_a


def unchunked_one_pole(x, f3db_hz, fs_hz):
    """The single pole's recursive doubling over the whole stream at once,
    into a new array: the span's taps reach every output from the same
    samples as a chunk window does, so it equals the chunked in-place
    filter bit for bit."""
    a = math.exp(-2.0 * math.pi * f3db_hz / fs_hz)
    span = 1
    while span < len(x) and a**span >= 2.0**-60:
        span *= 2
    w = (1.0 - a) * x
    step = 1
    while step < span:
        w[step:] = w[step:] + a**step * w[:-step]
        step *= 2
    return w


class TestOnePole:
    """The recursive-doubling pole filters its input in place and equals
    ``lfilter``'s recurrence to within 8 eps of the output's largest sample
    at spans of up to 8 K taps."""

    FS = OfdmConfig().sample_rate_hz

    def assert_matches_lfilter(self, x, f3db_hz):
        a = math.exp(-2.0 * math.pi * f3db_hz / self.FS)
        ref = lfilter([1.0 - a], [1.0, -a], x)
        buf = x.copy()
        y = _one_pole(buf, f3db_hz, self.FS)
        assert y is buf
        err = np.abs(y - ref).max(initial=0.0)
        assert err <= 8 * np.finfo(float).eps * np.abs(ref).max(initial=0.0)
        return y

    def test_calibrated_presets(self, calibration):
        # three full chunks and a partial one
        x = np.random.default_rng(5).normal(size=3 * _POLE_CHUNK + 12_345)
        for name in PRESET_NAMES:
            self.assert_matches_lfilter(x, calibrated_receiver(calibration, name).f3db_hz())

    @pytest.mark.parametrize("seed", range(8))
    def test_random_pole_and_length(self, seed):
        rng = np.random.default_rng(seed)
        # a from 0.994 (a span of 8192 taps) down to 5e-28
        f3db_hz = self.FS * 10.0 ** rng.uniform(-3.0, 1.0)
        self.assert_matches_lfilter(rng.normal(size=rng.integers(1, 100_000)), f3db_hz)

    @pytest.mark.parametrize("n", [0, 1, 10, 63, 64, 65])
    def test_streams_shorter_than_the_history(self, n):
        # a 0.9 GHz pole (S2's is 0.83 GHz) sums 64 taps
        self.assert_matches_lfilter(np.random.default_rng(n).normal(size=n), 0.9e9)

    def test_the_stream_length_caps_the_span(self):
        # 8192 taps reach 2**-60; the 4096-sample stream holds fewer
        self.assert_matches_lfilter(np.random.default_rng(1).normal(size=4096), 1e-3 * self.FS)

    def test_a_pole_far_above_the_sample_rate_passes_the_stream(self):
        x = np.random.default_rng(2).normal(size=1000)
        assert math.exp(-2.0 * math.pi * 1e3) == 0.0
        assert np.array_equal(_one_pole(x.copy(), 1e3 * self.FS, self.FS), x)

    @pytest.mark.parametrize("edge", [-1, 0, 1, 62, 63, 64])
    @pytest.mark.parametrize(
        "f3db_hz, chunk",
        [
            (0.83e9, _POLE_CHUNK),  # S2's corner: 64 taps per output
            (1e6, 1 << 16),  # chunks of the span, each reading a chunk of history
            (7.68, None),  # the span reaches past the stream: one chunk
        ],
    )
    def test_in_place_chunks_equal_one_pass(self, f3db_hz, chunk, edge):
        # two chunks and a few samples around the next edge, so the last
        # chunk's saved history straddles an edge.  The two long spans round
        # to 10-50 eps of their heavily low-passed outputs' peaks, past the
        # lfilter bound above, so only the one-pass oracle checks them
        x = np.random.default_rng(edge + 1).normal(size=2 * (chunk or _POLE_CHUNK) + edge)
        if chunk == _POLE_CHUNK:
            y = self.assert_matches_lfilter(x, f3db_hz)
        else:
            y = _one_pole(x.copy(), f3db_hz, self.FS)
        assert np.array_equal(y, unchunked_one_pole(x, f3db_hz, self.FS))

    @pytest.mark.parametrize(
        "f3db_hz, bound",
        [
            # S2's corner: one chunk's doubling product and 63 samples of
            # saved history (0.031x measured)
            (0.83e9, 0.05),
            # 2**33 taps to reach 2**-60, capped at the stream's length: one
            # stream-length chunk filtered in place, and its doubling
            # product (1.0001x measured; 3.0x with a new output and a copied
            # window)
            (7.68, 1.05),
        ],
    )
    def test_scratch_is_bounded(self, f3db_hz, bound):
        x = np.random.default_rng(3).normal(size=1 << 20)
        tracemalloc.start()
        try:
            y = _one_pole(x, f3db_hz, self.FS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y is x and np.all(np.isfinite(y))
        assert peak <= bound * x.nbytes


class TestChannelOracle:
    """The in-place channel equals the step-by-step reference bit for bit."""

    @pytest.mark.parametrize(
        "n", [1, 7, 1000, 2**16 - 1, 2**16, 2**16 + 1, 100_003, 4_249_120]
    )
    def test_std_through_a_spent_buffer_equals_np_std(self, n):
        # leaves of at most _CHANNEL_CHUNK samples of numpy's pairwise tree;
        # 4,249,120 samples is the bench's 1024-frame payload burst
        samples = np.random.default_rng(n).normal(0.3, 2.0, n)
        scratch = np.full(min(n, _CHANNEL_CHUNK), np.nan)
        assert _std(samples, scratch) == np.std(samples)

    @pytest.mark.parametrize("n", [2**16 + 1, 100_003, 131_075, 4_249_120])
    def test_sum_of_squares_walks_numpys_pairwise_tree(self, n):
        # heavy tails make the rounded sum depend on the tree's shape: a
        # split at half the length not rounded down to a multiple of 8
        # changes it at 131,075 and 4,249,120 samples
        samples = np.random.default_rng(n).standard_cauchy(n)
        mean = samples.mean()
        scratch = np.empty(_CHANNEL_CHUNK)
        assert _sum_of_squares(samples, mean, scratch, 0, n) == np.sum((samples - mean) ** 2)

    SMALL_CFG = OfdmConfig(fft_size=64, cp_length=5, sample_rate_hz=7.68e9)

    @pytest.mark.parametrize(
        "case", ["nominal", "overdriven", "constant", "unclipped", "chunked"]
    )
    def test_matches_reference(self, case):
        tx = default_transmitter()
        config = self.SMALL_CFG
        if case == "chunked":
            # 40 default frames: 166,095 samples, two full chunks of the
            # std-dev leaves and the noise draw and a partial third
            config = OfdmConfig()
        stream, _, _ = assemble_burst([qpsk_stack(config, 40, 3)], config)
        if case == "chunked":
            assert 2 * _CHANNEL_CHUNK < len(stream) < 3 * _CHANNEL_CHUNK
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
        """The channel of a 1000-frame burst allocates at most 0.04x the
        stream's bytes above what is live at entry: the stream's own buffer
        carries the drive, the optical waveform, the AC photocurrent, the
        filtered load voltage and then the received samples; both std-devs
        and the noise draw work in one 512 KB scratch, and the single pole
        adds a chunk's doubling product (about 0.024x, 0.75 MB, measured; a
        full-length std-dev scratch and filter output took about 1.0x, a
        separate working buffer about 2.0x, a new array per step about
        4.0x)."""
        config = OfdmConfig()
        stream, _, _ = assemble_burst([qpsk_stack(config, 1000, 5)], config)
        nbytes = stream.nbytes
        tx = default_transmitter()
        chain, mean_fraction, current = s2_channel_inputs(tx)
        rng = np.random.default_rng(3)
        tracemalloc.start()
        try:
            rx, _ = _apply_channel(stream, tx, chain, config, mean_fraction, current, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rx is stream
        assert peak <= 0.04 * nbytes

    def test_burst_memory_is_bounded(self):
        """A 1000-frame burst sent by ``_send_burst`` allocates at most
        1.15x its stream's bytes above what is live at entry (its bits
        included) when its errors are counted batch by batch, as run_link's
        payload burst's are, and 1.35x when its blocks are received whole
        and equalized, as the measurement burst's are.  Counted: the stream,
        which carries the burst from shaping to the received samples, plus,
        at the peak, chunk-sized working sets, two groups of mapped frames
        and a shaping chunk or a receive batch and a filter chunk (1.105x
        measured; the bound leaves 0.044x, about 1.5 MB).  Whole: the stream
        plus the receiver's whole result, a quarter of the stream's bytes,
        and a chunk's working set (1.30x measured); the stream is dropped
        before the equalizer runs.  The receiver's whole matched-filter
        phase and full-width spectrum took 1.50x, with a second zeroed
        stream for the preamble and the channel's full-length std-dev
        scratch and filter output 2.25x, and a channel that keeps its input
        intact about 3.25x."""
        config = OfdmConfig()
        n_pilot, n_frames = 8, 1000 - 8
        bits = np.full(config.data_subcarriers, 2)
        bits[:68] = 3
        plan = BitLoadingPlan(bits, np.ones(config.data_subcarriers))
        payload = generate_bits(5, n_frames * plan.total_bits)
        pilot_bits, qpsk = qpsk_stack(config, 1, 1)
        pilot = modulate_plan(pilot_bits, qpsk, 1)[0]
        pilots = (np.tile(pilot_bits, n_pilot), qpsk)
        tx = default_transmitter()
        chain, mean_fraction, current = s2_channel_inputs(tx)
        nbytes = assemble_burst([pilots, (payload, plan)], config)[0].nbytes

        def send(bits, seed):
            rx, first, _ = _send_burst(
                [pilots, (bits, plan)], n_pilot, tx, chain, config,
                mean_fraction, current, np.random.default_rng(seed),
            )
            return rx, first, n_pilot + bits.size // plan.total_bits

        def counted(bits, seed):
            rx, first, n_blocks = send(bits, seed)
            batches = _receive_batches(rx, first, n_blocks, config)
            return _count_errors(batches, pilot, n_pilot, bits, plan)

        def received_whole(bits, seed):
            rx, first, n_blocks = send(bits, seed)
            blocks = receive_blocks(rx, first, n_blocks, config)
            del rx
            return equalize(blocks[n_pilot:], estimate_channel(blocks[:n_pilot], pilot))

        received = []
        for receive, bound in [(counted, 1.15), (received_whole, 1.35)]:
            # the burst's lazy imports and caches fill outside the traced window
            receive(payload[: 2 * plan.total_bits], 0)
            tracemalloc.start()
            try:
                received.append(receive(payload, 3))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * nbytes
        # one burst, one channel draw: the count equals the frames' errors
        errors, equalized = received
        assert 0 < errors == np.count_nonzero(demodulate_plan(equalized, plan) != payload)
        assert errors < payload.size // 100

    def test_bench_shaped_link_memory_is_bounded(self):
        """A default-modem S2 ``run_link`` of 1024 payload frames allocates
        at most 1.19x its payload stream's bytes: at the peak, TX shaping
        of the payload burst, with the payload bits, two groups of mapped
        frames and a shaping chunk beside the stream (its receiver's
        batches peak 0.15 MB lower); the measurement burst's frames are
        freed once the SNR is estimated (1.140x
        measured; the bound leaves 0.05x, about 1.7 MB; 1.404x with the
        payload symbols mapped whole and the measurement frames kept, 1.79x
        with a whole block buffer, the whole matched-filter phase and the
        integer bit mapping)."""
        config = OfdmConfig()
        tx = default_transmitter()
        chain = default_receiver("S2")
        n_payload = 1024
        # the link's caches and lazy imports fill outside the traced window
        run_link(tx, chain, config, seed=0, n_payload_frames=4)
        tracemalloc.start()
        try:
            report = run_link(tx, chain, config, seed=1, n_payload_frames=n_payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.total_bits_per_frame > 0 and report.error == ""
        n_blocks = 8 + n_payload
        nbytes = 8 * (
            config.preamble_length * config.oversampling_factor
            + n_blocks * config.block_stride + len(rrc_taps(config)) - 1
        )
        assert peak <= 1.19 * nbytes


class TestHeaderSync:
    """run_link searches only the burst header for the preamble."""

    @pytest.mark.parametrize("config", [OfdmConfig(), FAST_CFG], ids=["default", "fast"])
    def test_header_start_equals_whole_stream_start(self, config):
        tx = default_transmitter()
        chain, mean_fraction, current = s2_channel_inputs(tx)
        n_pilot = 8
        stacks = [qpsk_stack(config, n_pilot, 1), qpsk_stack(config, 100, 2)]
        stream, pre_seg, pre_stride = assemble_burst(stacks, config)
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
        # no light reaches the device: the burst is receiver noise only, or
        # with the noise switched off, all zeros, whose correlation has no
        # peak at any lag
        with pytest.raises(SyncError):
            _send_burst(
                [qpsk_stack(FAST_CFG, 8, 1), qpsk_stack(FAST_CFG, 100, 2)], 8, tx, chain,
                FAST_CFG, 0.0, current, np.random.default_rng(6),
            )

    @pytest.mark.parametrize("fft_size", [64, 32])
    def test_header_holds_the_preamble_with_one_pilot(self, fft_size):
        config = OfdmConfig(fft_size=fft_size, cp_length=5, sample_rate_hz=7.68e9)
        _, pre_seg, pre_stride = assemble_burst([qpsk_stack(config, 1, 0)], config)
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

    def test_failure_row_fills_every_report_column(self, monkeypatch):
        def refused(tx, chain, config, **kwargs):
            raise SyncError("no peak")

        monkeypatch.setattr(link, "run_link", refused)
        [report] = sweep([("S2", quiet_receiver("S2"))], default_transmitter(), FAST_CFG, seed=4)
        # the report.csv header: every field but the per-carrier records
        assert LinkReport.CSV_COLUMNS == (
            "device_id", "n_segments", "seed", "f3db_hz", "bandwidth_snr0_hz",
            "data_rate_bps", "ber", "pmp_w", "pce_emitted", "pce_incident",
            "imp_isc", "harvested_w", "operating_voltage_v", "operating_current_a",
            "emitted_power_w", "captured_power_w", "clip_fraction",
            "total_bits_per_frame", "n_active_carriers", "error",
        )
        row = dict(zip(LinkReport.CSV_COLUMNS, report.csv_row()))
        given = {"device_id": "S2", "n_segments": 2, "seed": 4, "emitted_power_w": 2.3e-3,
                 "total_bits_per_frame": 0, "n_active_carriers": 0,
                 "error": "SyncError: no peak"}
        assert {k: row.pop(k) for k in given} == given
        assert len(row) == 13 and all(math.isnan(v) for v in row.values())
        assert (report.snr, report.plan, report.carrier_freqs_hz) == (None, None, None)

    def test_bug_in_a_stage_propagates(self, monkeypatch):
        # only a SliptsimError is a refused row; any other exception is a bug
        def broken(*args):
            raise TypeError("injected bug")

        monkeypatch.setattr(link, "estimate_snr", broken)
        with pytest.raises(TypeError, match="injected bug"):
            sweep([("L4", quiet_receiver())], default_transmitter(), FAST_CFG)


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
