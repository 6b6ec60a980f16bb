"""The public API: what `ineqlab` exports, and the README's library sketch."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import ineqlab

README = Path(__file__).parents[1] / "README.md"


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(ineqlab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(ineqlab.__all__) == len(set(ineqlab.__all__))
    assert set(ineqlab.__all__) == public | {"__version__"}
    for name in ineqlab.__all__:
        getattr(ineqlab, name)


def test_readme_library_sketch_runs():
    (sketch,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    src = str(Path(ineqlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", sketch],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "[2. 2. 0. 0.]"
