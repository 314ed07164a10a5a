"""What importing and running discop loads: numpy, and scipy only where a command needs it.

Each check runs in a fresh interpreter, because this test session has scipy
loaded already (``tests/oracles.py`` imports it).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import discop

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SRC = os.path.dirname(os.path.dirname(discop.__file__))

#: the norm_geometric report's rows without wall_ms, as discop wrote them
#: with scipy imported up front
NORM_GEOMETRIC_ROWS = [
    [f"geom:{k}", "dirichlet_norm_sq", value, method, tol, "Pass"]
    for k, pair in enumerate(
        [("0.5", "0.5"), ("1.1666666666666667", "1.1666666666666674"),
         ("1.9166666666666667", "1.9166666666666679"), ("2.716666666666667", "2.7166666666666677"),
         ("3.5500000000000003", "3.5500000000000016"), ("4.4071428571428575", "4.407142857142859")],
        start=1,
    )
    for value, method, tol in zip(pair, ("coefficient", "quadrature"), ("0.0", "1e-08"))
]


def _fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return done.stdout


def _scipy_after(statement: str) -> list:
    listing = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    code = f"import json, sys\n{statement}\nprint(json.dumps({listing}))"
    return json.loads(_fresh(code).splitlines()[-1])


def test_import_discop_loads_no_scipy():
    assert _scipy_after("import discop") == []


@pytest.mark.parametrize("name", ["kernel_sup_mobius", "selfmap_check_poly", "rank_check_blaschke"])
def test_numpy_only_commands_load_no_scipy(tmp_path, name):
    path = CONFIGS / f"{name}.json"
    command = json.loads(path.read_text())["command"]
    argv = [command, "--config", str(path), "--out", str(tmp_path)]
    assert _scipy_after(f"from discop.cli import main\nassert main({argv!r}) == 0") == []


def test_norm_run_imports_scipy_on_demand_and_keeps_its_report(tmp_path):
    path = CONFIGS / "norm_geometric.json"
    argv = ["norm", "--config", str(path), "--out", str(tmp_path)]
    loaded = _scipy_after(f"from discop.cli import main\nassert main({argv!r}) == 0")
    assert "scipy.special" in loaded and "scipy.optimize" not in loaded
    lines = (tmp_path / "report.csv").read_text().splitlines()[1:]
    assert [line.split(",")[1:7] for line in lines] == NORM_GEOMETRIC_ROWS
