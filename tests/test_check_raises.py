"""scripts/check_raises.py's mutant: one raise statement replaced by `pass`, the rest of the source kept."""

import ast
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import check_raises  # noqa: E402

SOURCE = '''def f(x):
    if x < 0: raise ValueError("négatif")
    if x > 9:
        raise ValueError(
            f"too big: {x}"
        ) from None
    return x
'''


@pytest.mark.parametrize(
    "source, which, mutant",
    [
        (SOURCE, 0, SOURCE.replace('raise ValueError("négatif")', "pass")),
        (SOURCE, 1, SOURCE.replace('raise ValueError(\n            f"too big: {x}"\n        ) from None', "pass")),
        ('s = "é"; raise ValueError(s)\n', 0, 's = "é"; pass\n'),  # ast offsets count UTF-8 bytes
    ],
)
def test_the_mutant_replaces_only_its_statement(source, which, mutant):
    raises = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)]
    assert check_raises.mutant_source(source.encode(), raises[which]) == mutant.encode()
