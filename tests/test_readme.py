"""The README's Python examples run as written, top to bottom, in one
namespace, so a later example sees the names an earlier one bound."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the supply-margin example, on the gradient_ff pairs of the first one
    assert namespace["theta"] == pytest.approx(0.6034, abs=1e-4)
