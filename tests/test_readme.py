"""Each ```python block in README.md runs to completion against src/, every warning an error."""

import re
import subprocess
import sys

import pytest

from conftest import ROOT, src_env

BLOCKS = re.findall(
    r"^```python\n(.*?)^```$",
    (ROOT / "README.md").read_text(encoding="utf-8"),
    flags=re.MULTILINE | re.DOTALL,
)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_exits_0(code):
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        cwd=ROOT,
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
