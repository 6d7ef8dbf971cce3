import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eidlab
from eidlab.errors import UnknownNameError

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "bench" / "cli_configs"


@pytest.mark.parametrize("module", ["eidlab", "eidlab.gains"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_dir_lists_every_exported_name():
    listed = dir(eidlab)
    assert [name for name in eidlab.__all__ if name not in listed] == []
    assert "__version__" in listed


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from eidlab import *", namespace)
    assert [name for name in eidlab.__all__ if name not in namespace] == []
    assert namespace["verify_eid_ct"] is eidlab.certify.verify_eid_ct


def test_unknown_name_is_an_attribute_error():
    # the catalog's φ is a StorageGenerator and a sector map any callable, so
    # the two wrapper classes that restated them are no longer exported
    for name in ("verify_eid", "SeparableConvex", "StaticNonlinearity"):
        with pytest.raises(UnknownNameError, match=f"has no attribute '{name}'"):
            getattr(eidlab, name)
        assert not hasattr(eidlab, name)
        with pytest.raises(ImportError):
            exec(f"from eidlab import {name}", {})


# Each check below starts a fresh interpreter that writes no bytecode, as a
# CLI process run with PYTHONDONTWRITEBYTECODE=1 does, and prints the eidlab
# modules it loaded.

_LOADED = ("import json, sys; "
           "print(json.dumps(sorted(m for m in sys.modules if m.startswith('eidlab'))))")


def _loaded_modules(code: str) -> list:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_eidlab_loads_no_submodule():
    assert _loaded_modules(f"import eidlab; {_LOADED}") == ["eidlab"]


def test_import_cli_loads_only_the_errors_module():
    assert _loaded_modules(f"import eidlab.cli; {_LOADED}") == [
        "eidlab", "eidlab.cli", "eidlab.errors"]


def test_simulate_command_loads_no_certificate_module(tmp_path):
    # python -m eidlab.cli simulate, run through runpy so the child can
    # report its modules after the command exits
    argv = ["eid-lab", "simulate", "--system", str(CONFIGS / "sys_lti_decay.json"),
            "--config", str(CONFIGS / "simulate.json"), "--out", str(tmp_path)]
    code = (f"import runpy, sys\nsys.argv = {argv!r}\n"
            "try:\n    runpy.run_module('eidlab.cli', run_name='__main__', alter_sys=True)\n"
            f"except SystemExit as exc:\n    assert exc.code == 0, exc.code\n{_LOADED}")
    loaded = _loaded_modules(code)
    assert "eidlab.sim" in loaded
    assert not {"eidlab.certify", "eidlab.equilibria", "eidlab.gains",
                "eidlab.interconnect"} & set(loaded)
    assert (tmp_path / "simulate_report.json").is_file()
