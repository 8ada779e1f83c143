import os
import subprocess
import sys
from pathlib import Path

import rigidity


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; importing scipy would take most
    # of the start-up time of every rigidity command
    src = str(Path(rigidity.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, rigidity; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
