"""The experiment scripts run the pipeline through the ``sgdetect`` CLI."""

import os
import subprocess
import sys
from pathlib import Path

from sgdetect.cli import main

ROOT = Path(__file__).resolve().parents[1]
GINN2D = ROOT / "perfbench" / "fixtures" / "ginn2d.json"


def test_phantom_edges_csv_equals_detect(tmp_path, capsys):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "phantom_edges.py"), "--model", str(GINN2D),
         "--resolutions", "64", "--depth", "4", "--out", str(tmp_path / "script")],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "r=64: visited=" in done.stdout
    # Λ_min = (64 - 1) / 2^4
    assert main(["detect", "--target", "phantom:64", "--detector", f"nn:{GINN2D}",
                 "--lambda-min", "63/16", "--csv", str(tmp_path / "cli.csv")]) == 0
    script_csv = (tmp_path / "script" / "troubled-64.csv").read_bytes()
    assert script_csv == (tmp_path / "cli.csv").read_bytes()
    assert script_csv.count(b"\n") > 1  # a header and troubled points
