"""``import qcoupling`` loads nothing beyond the standard library and numpy.

pyproject.toml declares numpy as the only dependency, and the import time
counts in every caller's start-up: an installed but undeclared package such
as scipy can take longer to import than numpy and qcoupling together.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import qcoupling
print(json.dumps(sorted({m.split(".")[0] for m in set(sys.modules) - before})))
"""


def test_import_loads_only_stdlib_and_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert "qcoupling" in loaded and "numpy" in loaded
    allowed = sys.stdlib_module_names | {"numpy", "qcoupling"}
    assert [m for m in loaded if m not in allowed] == []
