import math
import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


def test_restoration_curves(capsys):
    out = run_demo(capsys, "restoration_curves.py")
    rows = [line.split() for line in out.splitlines() if line[:5].strip().startswith("0.")]
    # three scenarios on 19 grid points, each keeping stage III
    assert len(rows) == 57 and not any("(zero trace)" in line for line in out.splitlines())
    # filtering never lowers the concurrence; at T = 1/2 the indistinguishable photons'
    # stage II has none, so the unit pair leaves it as it is
    assert all(float(row[3]) >= float(row[2]) for row in rows)
    assert rows[19 + 9][:4] == ["0.50", "0.0000", "0.0000", "0.0000"]
    assert out.count("stage-I entanglement-breaking threshold: T = ") == 3
    assert out.rstrip().endswith(
        f"reference thresholds: sqrt(2)-1 = {math.sqrt(2) - 1:.6f},"
        f" 1/sqrt(3) = {1 / math.sqrt(3):.6f}"
    )
    assert f"threshold: T = {math.sqrt(2) - 1:.6f}" in out
    assert f"threshold: T = {1 / math.sqrt(3):.6f}" in out


def test_oracle_crosscheck(capsys):
    out = run_demo(capsys, "oracle_crosscheck.py")
    assert "--- convention = real ---" in out
    assert "--- convention = phase ---" in out
    # three scenarios, 19 grid T values, two epsilons and three stages: none left out
    assert "stages compared: 342\n" in out
    assert out.rstrip().endswith("ok: True")


def test_tomography_pipeline(capsys):
    out = run_demo(capsys, "tomography_pipeline.py")
    lines = out.splitlines()
    assert lines[0] == "true concurrence: 0.308"
    rows = [line.split() for line in lines if line[:8].strip().isdigit()]
    assert [int(row[0]) for row in rows] == [500, 2_000, 20_000, 200_000]
    assert all(len(row) == 5 and row[3].endswith("%") for row in rows)
    poisson = [line.split() for line in lines if line.startswith("  N=")]
    assert [int(row[1].rstrip(":")) for row in poisson] == [1_000, 10_000, 100_000]
    for row in poisson:
        assert (row[2], row[4]) == ("measured", "predicted")
        assert row[5] == f"{1 / math.sqrt(int(row[1].rstrip(':'))):.5f}"


def test_hom_calibration(capsys):
    out = run_demo(capsys, "hom_calibration.py")
    visibilities = [line.split()[-1] for line in out.splitlines() if "visibility:" in line]
    # at T = 1/2 the HOM dip visibility equals the overlap p
    assert visibilities == ["0.0000", "0.5000", "0.8500", "1.0000"]
