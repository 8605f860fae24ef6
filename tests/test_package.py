import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cogrelay
from cogrelay import analytics, model, optimizer, oracle, simulator

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", [analytics, model, optimizer, oracle, simulator])
def test_package_exports_every_public_name(module):
    for name in module.__all__:
        assert name in cogrelay.__all__
        assert getattr(cogrelay, name) is getattr(module, name)


def test_package_exports_are_unique():
    assert len(cogrelay.__all__) == len(set(cogrelay.__all__))
    assert "__version__" in cogrelay.__all__


def test_readme_library_quick_start_runs():
    # the README may name only what the package has
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert blocks
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for block in blocks:
        proc = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr


def test_cli_import_does_not_load_statistics():
    # only pooled replications use it (with fractions and decimal), and they import it themselves
    code = "import sys, cogrelay.cli; print(sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
