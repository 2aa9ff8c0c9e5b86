"""The README's Python examples run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nilquat

_README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCKS = re.findall(r"^```python\n(.*?)^```", _README.read_text(),
                     flags=re.M | re.S)


def test_readme_has_python_examples():
    assert _BLOCKS


@pytest.mark.parametrize("code", _BLOCKS,
                         ids=[f"block{i}" for i in range(len(_BLOCKS))])
def test_readme_python_block_runs(code):
    src = os.path.dirname(os.path.dirname(nilquat.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
