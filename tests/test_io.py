import numpy as np
import pytest

from chain import read_csv
from sliptsim.io import iv_curve_to_csv, plan_to_csv, write_csv
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

    def test_numpy_scalars_format_as_their_python_values(self, tmp_path):
        path = tmp_path / "n.csv"
        write_csv(path, list("abcdefghij"), [(
            np.bool_(True), np.False_, np.int64(-7), np.uint8(255), np.float64(0.1),
            np.float32(0.5), True, 3, 2.5, "safe",
        )])
        assert path.read_text().splitlines()[1] == "1,0,-7,255,0.1,0.5,1,3,2.5,safe"

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
        cols, rows = read_csv(path)
        assert cols == ["voltage_V", "current_A"]
        back = np.array(rows, dtype=float)
        assert np.array_equal(back[:, 0], curve.voltages_v)
        assert np.array_equal(back[:, 1], curve.currents_a)

    def test_plan_csv(self, tmp_path):
        plan = BitLoadingPlan(np.array([0, 2, 4]), np.array([0.0, 1.25, 0.75]))
        path = tmp_path / "plan.csv"
        plan_to_csv(plan, path)
        cols, rows = read_csv(path)
        assert cols == ["carrier", "bits", "power_scale"]
        assert [int(r[0]) for r in rows] == [0, 1, 2]
        assert np.array_equal([int(r[1]) for r in rows], plan.bits)
        assert np.array_equal([float(r[2]) for r in rows], plan.power)

    def test_file_without_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# comment only\n")
        with pytest.raises(ValueError, match="no header row"):
            read_csv(path)
