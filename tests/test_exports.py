import os
import subprocess
import sys
from pathlib import Path

import riccialign


def test_every_exported_name_resolves():
    missing = [name for name in riccialign.__all__ if not hasattr(riccialign, name)]
    assert missing == []


def test_import_does_not_load_scipy():
    # hungarian imports scipy.optimize when first called; importing the
    # package (and so every `rmc` command) must not pay for it
    src = str(Path(riccialign.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c",
                    "import riccialign, sys; assert 'scipy' not in sys.modules"],
                   env=env, check=True, timeout=60)
