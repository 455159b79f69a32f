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


def test_uncertain_deletion_uses_no_numpy_generator():
    # the deletion draws from the handle itself: it neither imports
    # numpy.random (numpy 2 loads it lazily) nor builds a numpy generator
    # (numpy 1 imports it with numpy, so its generators are disabled here)
    src = str(Path(riccialign.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import riccialign as ra, sys\n"
            "loaded = 'numpy.random' in sys.modules\n"
            "if loaded:\n"
            "    sys.modules['numpy.random'].MT19937 = sys.modules['numpy.random'].Generator = None\n"
            "g = ra.Graph(3001, [(i, i + 1) for i in range(3000)])\n"
            "kept = ra.delete_edges_randomly(g, 0.3, ra.RngHandle(0))\n"
            "assert 0 < kept.num_edges < 3000\n"
            "assert ('numpy.random' in sys.modules) == loaded\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_readme_quick_start_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(readme), "exec"), {})
