"""Smoke runs of the scripts under scripts/ on small inputs.

The scripts import the package's public names; running each main once
catches an export they rely on going missing.
"""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script,argv,header", [
    ("threshold_curve.py", ["--size", "32", "--steps", "5"], "risk_estimate"),
    ("spin_sweep.py", ["--size", "32", "--sigmas", "20", "--seeds", "1", "--levels", "2"],
     "spins=16"),
    ("threshold_curve.py", ["--size", "32", "--steps", "5", "--level", "2"], "risk_estimate"),
    ("walk_crossover.py", ["--sizes", "16", "10x9", "--repeats", "1"], "fft/direct"),
])
def test_script_main_runs(script, argv, header, capsys):
    main = runpy.run_path(str(SCRIPTS / script))["main"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert header in lines[0]
    assert len(lines) >= 2
