"""Smoke test: every demo script runs to completion against the package."""
import runpy
import tempfile
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = ("01_metric_tour", "02_temperature_scaling", "03_measurement_suite",
         "04_metric_agreement", "05_architecture_search")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
    # a demo removes what it writes to the temp dir
    assert list(tmp_path.iterdir()) == []
