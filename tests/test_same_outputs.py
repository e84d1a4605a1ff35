"""scripts/same_outputs.py: ten of its cases, with no git, on two trees."""

import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import same_outputs  # noqa: E402

SMOKE = [
    "fm-path --fc=440.0 --fm=880.0 --i-start=0.0 --i-end=20.0 --i-step=0.1 --base=440.0",
    "fm-path --i-step=nan via flag",
    "fm-path --rate=1e308 via config",
    "wav2color --max-harmonic=-1 via config",
    "envelope-transfer --sustain-level=5e-324 via flag",
    "--help",
    "rate past the WAV limit, index past 1000",
    "config flip-orientation=false",
    "config flip-orientation=maybe",
    "scripts/fm_color_sweep.py",
]


@pytest.fixture(scope="module")
def found(tmp_path_factory):
    by_name = {case["name"]: case for case in same_outputs.cases(tmp_path_factory.mktemp("inputs"))}
    return [by_name[name] for name in SMOKE]


def test_the_working_tree_gives_the_outputs_of_the_working_tree(tmp_path, found):
    assert same_outputs.compare(ROOT, ROOT, found, tmp_path) == []


def test_a_changed_csv_header_is_reported_at_its_line(tmp_path, found):
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tree / "src" / "timbrecolor" / "cli.py"
    cli.write_text(cli.read_text().replace('"I,X,Y,Z,R,G,B\\n"', '"I,X,Y,Z,R,G,b\\n"'))
    (tmp_path / "runs").mkdir()
    assert same_outputs.compare(ROOT, tree, found[:1], tmp_path / "runs") == [
        f"DIFFERS  {SMOKE[0]}",
        "    fm_path.csv: line 1: 'I,X,Y,Z,R,G,B' != 'I,X,Y,Z,R,G,b'",
    ]
