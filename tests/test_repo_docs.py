"""The demos run, and the README's configuration table matches the code."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ltcmh import experiment

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_readme_config_table_names_every_key_once():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("| key | default | meaning |", 1)[1].split("\n\n", 1)[0]
    keys = [key for row in table.splitlines()[2:]
            for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(experiment.DEFAULTS)
