"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime (run with ``pytest tests/test_acceptance.py -s``
to see the lines as they complete)."""

import math
import time
import numpy as np
import pytest
from scipy.stats import spearmanr

from chain import digital_loopback, reference_core, synthesize_targets
from sliptsim.calibrate import (
    CalibrationTargets,
    calibrate,
    calibrated_receiver,
)
from sliptsim.cli import main as cli_main
from sliptsim.constants import thermal_voltage
from sliptsim.link import run_link
from sliptsim.loading import bit_power_loading, required_snr_table
from sliptsim.ofdm import ofdm_core
from sliptsim.ppc import (
    DiodeParams,
    IVCurve,
    SegmentGeometry,
    SegmentedDevice,
    find_mpp,
    mismatch_study,
    series_capacitance,
    string_capacitance,
    string_iv,
)
from sliptsim.presets import (
    JUNCTION_AREA_MM2,
    PRESET_NAMES,
    default_modem,
    default_transmitter,
)
from sliptsim.qam import exact_ber, qam_demodulate, qam_modulate
from sliptsim.safety import SafetyScenario, assess


def report(criterion, started, budget_s, detail=""):
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"criterion {criterion} overran: {elapsed:.1f} s"
    print(f"ACCEPTANCE {criterion}: PASS in {elapsed:.1f} s (< {budget_s:.0f} s) {detail}")


def test_criterion_01_eye_safety_numbers():
    t0 = time.perf_counter()
    result = assess(
        SafetyScenario(
            wavelength_nm=850.0,
            source_diameter_mm=35.0,
            evaluation_distance_mm=100.0,
            exposure_time_s=30000.0,
            received_power_w=80e-6,
            pupil_radius_mm=3.5,
        )
    )
    assert result.angular_subtense_rad == pytest.approx(346.4e-3, abs=0.2e-3)
    assert result.mpe_w_m2 == pytest.approx(181.84, rel=5e-3)
    assert result.irradiance_w_m2 == pytest.approx(2.08, rel=5e-3)
    assert result.safety_margin == pytest.approx(87.42, rel=1e-2)
    report(1, t0, 1.0, f"margin {result.safety_margin:.2f}")


def test_criterion_02_capacitance_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    for _ in range(1000):
        caps = 10 ** rng.uniform(-14, -10, rng.integers(1, 9))
        total = series_capacitance(caps)
        # independent composition: sequential pairwise reduction
        folded = caps[0]
        for c in caps[1:]:
            folded = folded * c / (folded + c)
        assert abs(total - folded) <= 1e-12 * folded
        assert total <= caps.min() * (1 + 1e-12)
    # C proportional to A / n^2 for equal splits of a fixed total area
    density = 30e-12
    for _ in range(200):
        d = rng.uniform(0.5, 3.0)
        n = int(rng.choice([1, 2, 4, 6]))
        g = SegmentGeometry(d, n)
        expected = density * g.active_area_mm2 / n**2
        got = string_capacitance(g, DiodeParams(capacitance_density_f_mm2=density))
        assert got == pytest.approx(expected, rel=1e-12)
    report(2, t0, 5.0, "1000 reciprocal sets + 200 equal splits")


# strings of 3 and 5 segments, outside the fabricated set, are meant here
@pytest.mark.filterwarnings(r"ignore:n_segments=\d+ is outside the fabricated set:UserWarning")
def test_criterion_03_string_iv_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        diode = DiodeParams(
            saturation_current_density_a_mm2=10 ** rng.uniform(-19, -17),
            ideality=rng.uniform(1.0, 1.5),
            series_resistance_ohm=rng.uniform(0.0, 10.0),
            shunt_resistance_ohm=math.inf,
        )
        device = SegmentedDevice(
            SegmentGeometry(rng.uniform(0.8, 2.5), n),
            diode,
            reverse_breakdown_v=None,
        )
        ph = 10 ** rng.uniform(-4.3, -3.3, n)
        curve = string_iv(device, ph, n_points=48)

        # short circuit pins to the least-illuminated segment's own I_sc
        area = device.geometry.sector_area_mm2
        i0 = diode.saturation_current_density_a_mm2 * area
        nvt = diode.ideality * thermal_voltage(diode.temperature_k)

        def segment_isc(iph):
            lo, hi = 0.0, iph + i0
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                v = nvt * math.log((iph - mid + i0) / i0) - mid * diode.series_resistance_ohm
                if v > 0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        isc_min = min(segment_isc(p) for p in ph)
        assert abs(curve.short_circuit_current_a() - isc_min) <= 1e-12

        # per-point oracle: independent bisection per segment, summed
        for v, i in zip(curve.voltages_v[::5], curve.currents_a[::5]):
            total = 0.0
            for iph in ph:
                head = iph - i + i0
                assert head > 0
                total += nvt * math.log(head / i0) - i * diode.series_resistance_ohm
            assert abs(v - total) <= 1e-9
    report(3, t0, 60.0, "100 devices, 48-point curves, Isc to 1e-12 A")


def test_criterion_04_mpp_dense_grid():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    for trial in range(50):
        iph = 10 ** rng.uniform(-4, -2.5)
        j0 = 10 ** rng.uniform(-17, -14)
        ideality = rng.uniform(1.0, 2.0)
        rsh = 10 ** rng.uniform(4.5, 6.5)
        nvt = ideality * thermal_voltage(298.15)

        def current(v):
            return iph - j0 * np.expm1(v / nvt) - v / rsh

        lo, hi = 0.0, nvt * math.log(iph / j0 + 1.0)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if current(mid) > 0:
                lo = mid
            else:
                hi = mid
        voc = 0.5 * (lo + hi)

        def model(i):
            # the curve's voltage at current i by bisection, and its slope
            lo, hi = 0.0, voc
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if current(mid) > i:
                    lo = mid
                else:
                    hi = mid
            v = 0.5 * (lo + hi)
            return v, -1.0 / (j0 / nvt * math.exp(v / nvt) + 1.0 / rsh)

        grid_v = np.linspace(0.0, voc, 300)
        curve = IVCurve(grid_v, current(grid_v), model=model)
        mpp = find_mpp(curve)

        dense = np.linspace(0.0, voc, 1_000_000)
        p_oracle = (dense * current(dense)).max()
        assert mpp.power_w == pytest.approx(p_oracle, rel=1e-6)
    report(4, t0, 60.0, "50 curves vs 1e6-point grid")


def test_criterion_05_modem_loopback():
    t0 = time.perf_counter()
    cfg = default_modem()
    rng = np.random.default_rng(5)
    for order in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
        b = order.bit_length() - 1
        n_frames = math.ceil(100_000 / (cfg.data_subcarriers * b))
        ber, sync_err, bits, _, _, _ = digital_loopback(
            order, cfg, n_frames=n_frames, seed=50 + order
        )
        assert bits.size >= 100_000
        assert sync_err == 0
        assert ber == 0.0, f"loopback errors at M={order}"
        # Hermitian realness on freshly drawn frames: the real cores against
        # the complex IFFT of the full Hermitian spectrum
        symbols = rng.normal(size=(2, cfg.data_subcarriers)) + 1j * rng.normal(
            size=(2, cfg.data_subcarriers)
        )
        ref = reference_core(symbols, cfg.fft_size)
        core = ofdm_core(symbols, cfg)
        residue = np.sqrt(np.mean(np.abs(core - ref) ** 2) / np.mean(np.abs(ref) ** 2))
        assert residue < 1e-10
    report(5, t0, 120.0, "BER 0 for all 10 orders, >=1e5 bits each")


def test_criterion_06_qam_ber_curves():
    t0 = time.perf_counter()
    points = 0
    for order in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
        b = order.bit_length() - 1
        for point, target in enumerate((3e-2, 3e-3, 3e-4)):
            rng = np.random.default_rng([6, order, point])
            # place the operating point by inverting the exact expression
            lo, hi = -2.0, 9.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if exact_ber(order, 10.0**mid) > target:
                    lo = mid
                else:
                    hi = mid
            snr = 10.0 ** (0.5 * (lo + hi))
            expected = exact_ber(order, snr)
            assert 1e-4 <= expected <= 1e-1

            n_bits = math.ceil(100_000 / b) * b
            bits = rng.integers(0, 2, n_bits, dtype=np.uint8)
            tx = qam_modulate(bits, order)
            noise = (
                rng.normal(size=tx.size) + 1j * rng.normal(size=tx.size)
            ) * math.sqrt(0.5 / snr)
            ber = np.mean(qam_demodulate(tx + noise, order) != bits)
            se = math.sqrt(expected * (1 - expected) / n_bits)
            assert abs(ber - expected) <= 3 * se, (order, target)
            points += 1
    report(6, t0, 300.0, f"{points} (order, SNR) points within 3 binomial SE")


def test_criterion_07_loading_optimality_and_safety():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    target = 4.7e-3
    table = required_snr_table(target, 10)

    def dp_optimum(snr):
        dp = {0: 0.0}
        for s in snr:
            if s <= 0:
                continue
            options = [(0, 0.0)] + [
                (b, table[b] / s - 1.0) for b in range(1, 11)
            ]
            new = {}
            for total, cost in dp.items():
                for b, oc in options:
                    key = total + b
                    val = cost + oc
                    if val < new.get(key, math.inf):
                        new[key] = val
            dp = new
        return max(tb for tb, c in dp.items() if c <= 0.0)

    for trial in range(200):
        snr = 10 ** rng.uniform(-1.0, 3.5, 16)
        plan = bit_power_loading(snr, target)
        assert plan.total_bits == dp_optimum(snr), f"instance {trial}"

    # simulated per-carrier BER under the plan's assumed SNR
    checked = 0
    for trial in range(5):
        snr = 10 ** rng.uniform(0.5, 3.2, 16)
        plan = bit_power_loading(snr, target)
        for k in range(16):
            if plan.bits[k] == 0:
                continue
            order = 2 ** plan.bits[k]
            b = plan.bits[k]
            n_bits = math.ceil(100_000 / b) * b
            bits = rng.integers(0, 2, n_bits, dtype=np.uint8)
            tx = qam_modulate(bits, order)
            sigma = math.sqrt(0.5 / (snr[k] * plan.power[k]))
            noise = (rng.normal(size=tx.size) + 1j * rng.normal(size=tx.size)) * sigma
            ber = np.mean(qam_demodulate(tx + noise, order) != bits)
            bound = target + 3 * math.sqrt(target * (1 - target) / n_bits)
            assert ber <= bound, (trial, k, ber)
            checked += 1
    report(7, t0, 300.0, f"200 optimal instances; {checked} carriers BER-safe")


def test_criterion_08_calibration_and_orderings(calibration):
    t0 = time.perf_counter()

    # modeled corner frequencies within 15% of every measured bandwidth
    worst_bw = max(abs(v) for v in calibration.bandwidth_residuals.values())
    assert worst_bw <= 0.15

    # inverse crime: bandwidth-stage parameters recovered to 1e-6 relative
    true_caps = {"S": 14e-12, "M": 9e-12, "L": 6e-12}
    true_rs = {2: 0.0, 4: 90.0, 6: 210.0}
    synth = synthesize_targets(
        true_caps, true_rs,
        responsivity_a_w={"S": 0.4, "M": 0.4, "L": 0.4},
        beam_radius_mm=0.7, beam_offset_mm={},
    )
    recovered = calibrate(CalibrationTargets(bandwidth_hz=synth.bandwidth_hz))
    for size, cap in true_caps.items():
        assert recovered.capacitance_density_f_mm2[size] == pytest.approx(cap, rel=1e-6)
    for n, rs in true_rs.items():
        assert recovered.series_resistance_ohm[n] == pytest.approx(rs, rel=1e-6, abs=1e-6)

    # ordering facts at desk scale
    tx = default_transmitter()
    cfg = default_modem()
    reports = {
        name: run_link(tx, calibrated_receiver(calibration, name), cfg, seed=11)
        for name in PRESET_NAMES
    }
    rates = {n: r.data_rate_bps for n, r in reports.items()}
    f3 = {n: r.f3db_hz for n, r in reports.items()}

    assert rates["L2"] < rates["L4"] < rates["L6"], "L-cell rate ordering"
    for size, counts in (("S", (2, 4)), ("M", (2, 4)), ("L", (2, 4, 6))):
        values = [f3[f"{size}{n}"] for n in counts]
        assert all(a < b for a, b in zip(values, values[1:])), f"{size} bandwidth"

    areas = [JUNCTION_AREA_MM2[n] for n in PRESET_NAMES]
    rho, _ = spearmanr(areas, [rates[n] for n in PRESET_NAMES])
    assert rho <= -0.5, f"rate-vs-area trend too weak: {rho:.2f}"
    report(
        8, t0, 600.0,
        f"bw residuals <= {worst_bw:.1%}, rate/area Spearman {rho:.2f}",
    )


def test_criterion_09_mismatch_study(calibration):
    t0 = time.perf_counter()
    chain = calibrated_receiver(calibration, "L6")
    offset = calibration.beam_offset_mm["L6"]

    rows = mismatch_study(chain.device, chain.beam, [offset])
    _, ratio, _ = rows[0]
    assert ratio == pytest.approx(0.661, abs=0.02)

    sweep_offsets = np.linspace(0.0, 1.5 * offset, 20)
    rows = mismatch_study(chain.device, chain.beam, sweep_offsets)
    pmps = np.array([r[2] for r in rows])
    assert np.all(np.diff(pmps) <= 1e-9 * pmps[0]), "Pmp not monotone in offset"
    report(9, t0, 120.0, f"Imp/Isc {ratio:.3f} at offset {offset:.3f} mm")


def test_criterion_10_reproduce_determinism(calibration, tmp_path):
    t0 = time.perf_counter()
    calib_path = tmp_path / "calibration.json"
    calibration.save(calib_path)

    for target, artifact in (("table1", "table1.csv"), ("fig6", "fig6.csv")):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{target}_{run}"
            code = cli_main(
                ["reproduce", target, "--out", str(out), "--seed", "7",
                 "--calibration", str(calib_path)]
            )
            assert code == 0
            outputs.append((out / artifact).read_bytes())
        assert outputs[0] == outputs[1], f"{target} artifacts differ"
    report(10, t0, 60.0, "table1 + fig6 byte-identical across reruns")
