"""Each demo runs to completion in a child interpreter and prints its closing line."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv, closing",
    [
        (["blowup_and_bounds.py"],
         r"beta=12\.566371 +span \[[0-9.]+, [0-9.]+\]  critical: unbounded, but grows only past n ~ 10\^23\.7"),
        (["sharp_constants.py"], r"the ratio climbs to 1, so the constant in the window bound is sharp"),
        (["optimize_walkthrough.py", "--budget", "2000"], r"lam=0\.001 +J=[0-9.]+ gap=[0-9.e+-]+"),
    ],
    ids=["blowup_and_bounds", "sharp_constants", "optimize_walkthrough"],
)
def test_demo_runs(argv, closing):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / argv[0]), *argv[1:]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(closing, done.stdout.splitlines()[-1].strip()), done.stdout


def test_walkthrough_gives_a_verdict_below_the_vanishing_level():
    # at this budget the ruf search ends below beta times the L2 budget at
    # zero energy (12.56612819 against 12.56637061), and the verdict says so
    argv = ["--constraint", "ruf", "--beta-over-pi", "4", "--budget", "3000"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "optimize_walkthrough.py"), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "best value: 12.56612819" in lines
    assert "vanishing level, beta times the L2 budget at zero energy: 12.56637061" in lines
    verdicts = [x for x in lines if x.startswith("verdict: ")]
    assert verdicts == ["verdict: the maximizer stays at or below the vanishing level at this budget"]
