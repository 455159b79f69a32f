import os
import subprocess
import sys
from pathlib import Path

import riccialign


def test_every_exported_name_resolves():
    missing = [name for name in riccialign.__all__ if not hasattr(riccialign, name)]
    assert missing == []


def test_import_does_not_load_scipy():
    # _solve imports scipy.optimize when first called; importing the
    # package (and so every `rmc` command) must not pay for it
    src = str(Path(riccialign.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c",
                    "import riccialign, sys; assert 'scipy' not in sys.modules"],
                   env=env, check=True, timeout=60)


def test_readme_quick_start_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(readme), "exec"), {})
