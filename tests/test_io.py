import numpy as np
import pytest

from sliptsim.io import (
    iv_curve_from_csv,
    iv_curve_to_csv,
    plan_from_csv,
    plan_to_csv,
    read_csv,
    write_csv,
)
from sliptsim.loading import BitLoadingPlan
from sliptsim.ppc import IVCurve


class TestCsv:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [(1, 2.5), (3, -0.125)],
                  header_comments=["context line"])
        cols, rows = read_csv(path)
        assert cols == ["a", "b"]
        assert rows == [["1", "2.5"], ["3", "-0.125"]]
        assert path.read_text().startswith("# context line\n")

    def test_float_repr_is_lossless(self, tmp_path):
        value = 0.1 + 0.2  # not representable prettily
        path = tmp_path / "f.csv"
        write_csv(path, ["x"], [(value,)])
        _, rows = read_csv(path)
        assert float(rows[0][0]) == value


class TestDomainRoundTrips:
    def test_iv_curve(self, tmp_path):
        curve = IVCurve(np.linspace(0, 1, 32), np.linspace(1e-3, 0, 32))
        path = tmp_path / "iv.csv"
        iv_curve_to_csv(curve, path)
        assert path.read_text().splitlines()[0] == "voltage_V,current_A"
        back = iv_curve_from_csv(path)
        assert np.array_equal(back.voltages_v, curve.voltages_v)
        assert np.array_equal(back.currents_a, curve.currents_a)

    def test_plan_csv(self, tmp_path):
        plan = BitLoadingPlan(np.array([0, 2, 4]), np.array([0.0, 1.25, 0.75]))
        path = tmp_path / "plan.csv"
        plan_to_csv(plan, path)
        back = plan_from_csv(path)
        assert np.array_equal(back.bits, plan.bits)
        assert np.array_equal(back.power, plan.power)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["foo", "bar"], [(1, 2)])
        with pytest.raises(ValueError):
            iv_curve_from_csv(path)
