import re

import numpy as np
import pytest

from chain import read_csv
from sliptsim import ParameterError, link, ppc
from sliptsim.cli import main
from sliptsim.io import write_csv


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

    @pytest.mark.parametrize("blocker", ["directory", "file-as-parent"])
    def test_unwritable_path_is_a_parameter_error(self, tmp_path, blocker):
        # a builtin IsADirectoryError or FileExistsError escaped once
        if blocker == "directory":
            path = tmp_path / "t.csv"
            path.mkdir()
        else:
            (tmp_path / "f").write_text("keep")
            path = tmp_path / "f" / "t.csv"
        with pytest.raises(ParameterError, match=re.escape(f"{path}: cannot write")):
            write_csv(path, ["x"], [(1.0,)])


def recording(monkeypatch, module, name):
    """Patch ``module.name`` to keep each result it returns; the CLI
    handlers import it when they run, so they call the recording."""
    results = []
    original = getattr(module, name)

    def record(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, record)
    return results


class TestDomainRoundTrips:
    # the files the CLI jobs write hold every bit of the objects they report
    def test_iv_curve(self, tmp_path, monkeypatch):
        curves = recording(monkeypatch, ppc, "string_iv")
        assert main(["iv", "--preset", "L6", "--out", str(tmp_path)]) == 0
        [curve] = curves
        cols, rows = read_csv(tmp_path / "iv.csv")
        assert cols == ["voltage_V", "current_A"]
        back = np.array(rows, dtype=float)
        assert np.array_equal(back[:, 0], curve.voltages_v)
        assert np.array_equal(back[:, 1], curve.currents_a)

    def test_plan_csv(self, tmp_path, monkeypatch):
        sweeps = recording(monkeypatch, link, "sweep")
        assert main(["link", "--preset", "S2", "--seed", "3", "--out", str(tmp_path)]) == 0
        [[report]] = sweeps
        plan = report.plan
        cols, rows = read_csv(tmp_path / "loading.csv")
        assert cols == ["carrier", "bits", "power_scale"]
        assert [int(r[0]) for r in rows] == list(range(plan.bits.size))
        assert np.array_equal([int(r[1]) for r in rows], plan.bits)
        assert np.array_equal([float(r[2]) for r in rows], plan.power)

    def test_file_without_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# comment only\n")
        with pytest.raises(ValueError, match="no header row"):
            read_csv(path)
