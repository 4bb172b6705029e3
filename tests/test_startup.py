"""Start-up cost: no verb loads scipy, which the library does not use, and a
verb loads only the ``extropy`` submodules it uses.

Each case runs ``cli.run(argv)`` in a fresh interpreter, because the test
process has scipy loaded already (``tests/test_orderstats.py`` imports
``scipy.integrate``).  The child reports whether scipy was loaded after
``import extropy.cli`` and after the run, and which ``extropy`` submodules
were loaded after the run; its stdout must equal an in-process ``cli.run``
of the same argv.
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
loaded = sorted(name for name in sys.modules if name.startswith("extropy."))
sys.stderr.write(json.dumps([code, imported, "scipy.integrate" in sys.modules, loaded]))
"""

#: the submodules that only some verbs need
HEAVY = {"analysis", "characterize", "estimators", "orderstats"}

# (id, argv, the extropy submodules that stay unloaded)
CASES = [
    ("help", ["--help"], HEAVY),
    ("measure-closed-form", ["measure", "--dist", "{exp}", "--measure", "crex-min", "--n", "2"], HEAVY),
    ("estimate", ["estimate", "--samples", "{samples}", "--measure", "crex", "--n", "2"], HEAVY - {"estimators"}),
    ("characterize-gpd", ["characterize", "--dist", "{gpd}", "--model", "gpd"], set()),
    ("measure-quadrature", ["measure", "--dist", "{weibull}", "--measure", "dcrex-min", "--t", "0.7"], HEAVY),
    (
        "measure-order",
        ["measure", "--dist", "{exp}", "--measure", "dcrex", "--t", "0.7", "--order", "3:7"],
        HEAVY - {"orderstats"},
    ),
    # pdf^2 ~ x^-1/2 at 0: the batched passes leave it to the engine's end rule
    ("measure-extrapolated", ["measure", "--dist", "{power}", "--measure", "extropy"], HEAVY),
]


@pytest.fixture
def inputs(tmp_path):
    specs = {
        "exp": ("exponential", {"lambda": 1.5}),
        "gpd": ("gpd", {"theta": 1.0, "lambda": 0.5}),
        "weibull": ("weibull", {"lambda": 1.0, "theta": 2.0}),
        "power": ("power", {"b": 3.0, "c": 0.75}),
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
    code, imported, integrated, loaded = json.loads(proc.stderr.splitlines()[-1])
    return code, proc.stdout, imported, integrated, loaded


@pytest.mark.parametrize("argv,unloaded", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_no_verb_loads_scipy(inputs, argv, unloaded, capsys, monkeypatch):
    argv = [a.format(**inputs) for a in argv]
    code, out, imported, integrated, loaded = _child(argv)
    assert (code, imported, integrated) == (0, False, False)
    assert not {f"extropy.{name}" for name in unloaded} & set(loaded), loaded
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.run(argv) == 0
    assert out == capsys.readouterr().out


def test_import_extropy_loads_no_submodule_until_a_name_is_used():
    child = (
        "import json, sys\n"
        "import extropy\n"
        "before = sorted(m for m in sys.modules if m.startswith('extropy.'))\n"
        "names = {name: type(getattr(extropy, name)).__name__ for name in extropy.__all__}\n"
        "print(json.dumps([before, names]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=120)
    before, names = json.loads(proc.stdout)
    assert before == []
    submodules = {"analysis", "characterize", "distributions", "estimators", "measures", "orderstats"}
    assert {name for name, kind in names.items() if kind == "module"} == submodules
    assert len(names) == 30
