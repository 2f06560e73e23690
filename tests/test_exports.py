"""The package's public names: a star import works and exports them all,
and importing the command line pulls in no heavy standard module."""

import subprocess
import sys
from pathlib import Path

import nvlog


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from nvlog import *", namespace)
    missing = [name for name in nvlog.__all__ if name not in namespace]
    assert missing == []
    for name in nvlog.__all__:
        assert namespace[name] is getattr(nvlog, name)


def test_cli_import_leaves_dataclasses_unloaded():
    # `dataclasses` brings inspect, dis, ast and tokenize with it, about a
    # quarter of a fresh `import nvlog.cli`, which nvbench counts in setup_s
    src = str(Path(nvlog.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import nvlog.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
