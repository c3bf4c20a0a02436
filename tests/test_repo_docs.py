"""The demos and the README's library example run, and the README
matches the code: the keys and eta modes of its configuration table, the
values it gives the fixed constants and the struct strings it gives the
file headers."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ltcmh import dataset, experiment, hash_learn, meta_embed, retrieval

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _python(*args):
    """Run python on args from the repo root, with src importable."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = _python(str(demo))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = _python("-W", "error::RuntimeWarning", "-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _config_table():
    """The README's config table as (key, default, meaning) cell triples."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("| key | default | meaning |", 1)[1].split("\n\n", 1)[0]
    return [row.split("|")[1:4] for row in table.splitlines()[2:]]


def test_readme_config_table_names_every_key_once():
    keys = [key for cells in _config_table()
            for key in re.findall(r"`(\w+)`", cells[0])]
    assert sorted(keys) == sorted(experiment.DEFAULTS)


def test_readme_config_table_defaults_match_code():
    for key_cell, default_cell, _ in _config_table():
        keys = re.findall(r"`(\w+)`", key_cell)
        # one default per key; the groups default holds commas of its own
        raws = default_cell.split(",") if len(keys) > 1 else [default_cell]
        assert len(raws) == len(keys), key_cell
        for key, raw in zip(keys, raws):
            value = experiment.parse_value("README", key, raw.strip(" `"),
                                           experiment.DEFAULTS[key])
            assert value == experiment.DEFAULTS[key], key


def test_readme_eta_mode_row_names_every_mode_in_tag_order():
    (meaning,) = [m for key, _, m in _config_table()
                  if key.strip() == "`eta_mode`"]
    assert re.findall(r"`(\w+)`", meaning) == list(meta_embed.ETA_MODES)


@pytest.mark.parametrize("module, name", [
    (hash_learn, "CLIP_NORM"), (hash_learn, "BANK_EMA"),
    (hash_learn, "ATTENTION_INIT_SCALE"), (meta_embed, "ENCODE_CHUNK"),
    (retrieval, "EVAL_PAIRS")])
def test_readme_states_constants_at_code_values(module, name):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.findall(rf"`{name}` =\s+(\d[\d,]*(?:\.\d+)?)", text)
    assert stated, f"README does not state `{name}` = <value>"
    assert {float(v.replace(",", "")) for v in stated} == {
        float(getattr(module, name))}


@pytest.mark.parametrize("module, name", [
    (dataset, "DATASET_HEADER"), (hash_learn, "MODEL_HEADER"),
    (retrieval, "CODES_HEADER")])
def test_readme_states_header_struct_strings_at_code_values(module, name):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    stated = re.findall(rf'`{name}` =\s+`"([^"`]*)"`', section)
    assert stated, f"README's file formats do not state `{name}` = <value>"
    assert set(stated) == {getattr(module, name)}
