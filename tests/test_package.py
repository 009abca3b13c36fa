"""The package from outside: the README tour prints what it says, and
``import principal_subspaces.cli`` loads every module the benchmark traces
but none of the standard modules that the package keeps out of start-up.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# dataclasses and what it imports: the README says start-up loads none of them
SLOW_STDLIB = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def _readme_tour() -> list[str]:
    """The lines of the one ```python block of the README."""
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return block.splitlines()


def _timed():
    """``TIMED`` of ``perfbench/spans.py``, read from that file."""
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TIMED


def test_readme_tour_prints_its_outputs():
    """Each ``expr  # output`` line of the tour evaluates to the printed
    output, and every other line runs, in one namespace, in order."""
    namespace: dict = {}
    checked = []
    for line in _readme_tour():
        expr, comment, output = line.partition("  # ")
        if comment:
            assert str(eval(expr, namespace)) == output, line
            checked.append(output)
        else:
            exec(line, namespace)
    assert len(checked) == 3


def test_cli_import_loads_the_traced_modules_and_no_slow_stdlib():
    """In a fresh interpreter without ``site``, importing the cli leaves
    every module of ``spans.TIMED`` loaded, so the traced pass wraps them
    all, and loads none of ``SLOW_STDLIB``."""
    probe = "import sys, principal_subspaces.cli; print(*sys.modules)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    loaded = set(out.split())
    assert {f"principal_subspaces.{name}" for name in _timed()} <= loaded
    assert loaded.isdisjoint(SLOW_STDLIB)
