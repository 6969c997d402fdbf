"""Smoke test of the Python demos: each one runs to the end in a fresh
interpreter, without output on stderr.  The demos write their pictures only
to the git-ignored ``demos/output/``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(ROOT.glob("demos/0[1-4]_*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path)
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    if demo.name.startswith("03_"):
        assert "octagon constraints: 8\n" in done.stdout
        assert "X subset of octagon: True\n" in done.stdout
        assert len(re.findall(r"^eps=0\.\d+ +-> +\d+ vertices, area \d+\.\d+ \(exact 13\.3600\)$", done.stdout, re.M)) == 3


def test_all_four_demos_are_found():
    assert [demo.name[:3] for demo in DEMOS] == ["01_", "02_", "03_", "04_"]
