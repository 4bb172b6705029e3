"""Start-up cost: scipy is loaded only by a process that integrates.

Each case runs ``cli.run(argv)`` in a fresh interpreter, because the test
process has scipy loaded already (``tests/test_orderstats.py`` imports
``scipy.integrate``).  The child reports whether scipy was loaded after
``import extropy.cli`` and after the run; its stdout must equal an
in-process ``cli.run`` of the same argv.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from extropy import cli

SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import json, sys
import extropy.cli
imported = "scipy" in sys.modules
code = extropy.cli.run(json.loads(sys.argv[1]))
sys.stdout.flush()
sys.stderr.write(json.dumps([code, imported, "scipy.integrate" in sys.modules]))
"""

CASES = [
    ("help", ["--help"], False),
    ("measure-closed-form", ["measure", "--dist", "{exp}", "--measure", "crex-min", "--n", "2"], False),
    ("estimate", ["estimate", "--samples", "{samples}", "--measure", "crex", "--n", "2"], False),
    ("characterize-gpd", ["characterize", "--dist", "{gpd}", "--model", "gpd"], False),
    ("measure-quadrature", ["measure", "--dist", "{weibull}", "--measure", "dcrex-min", "--t", "0.7"], True),
]


@pytest.fixture
def inputs(tmp_path):
    specs = {
        "exp": ("exponential", {"lambda": 1.5}),
        "gpd": ("gpd", {"theta": 1.0, "lambda": 0.5}),
        "weibull": ("weibull", {"lambda": 1.0, "theta": 2.0}),
    }
    paths = {}
    for name, (family, params) in specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"family": family, "params": params}))
        paths[name] = str(path)
    samples = tmp_path / "samples.txt"
    samples.write_text("\n".join(str(0.1 * i) for i in range(1, 40)) + "\n")
    paths["samples"] = str(samples)
    return paths


def _child(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argv)], capture_output=True, text=True, env=env, timeout=120
    )
    code, imported, integrated = json.loads(proc.stderr.splitlines()[-1])
    return code, proc.stdout, imported, integrated


@pytest.mark.parametrize("argv,loads_scipy", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_scipy_loaded_only_by_integration(inputs, argv, loads_scipy, capsys, monkeypatch):
    argv = [a.format(**inputs) for a in argv]
    code, out, imported, integrated = _child(argv)
    assert (code, imported, integrated) == (0, False, loads_scipy)
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.run(argv) == 0
    assert out == capsys.readouterr().out
