import os
import subprocess
import sys
from pathlib import Path

import distshift


def test_every_export_resolves_once():
    names = distshift.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(distshift, name), name


def test_import_loads_no_process_pool():
    # every experiment and audit runs in the calling process, so importing
    # the package must not pay for multiprocessing or for
    # concurrent.futures, whose import costs milliseconds
    src = str(Path(distshift.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, distshift; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
