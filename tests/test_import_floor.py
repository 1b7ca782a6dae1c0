"""The CLI imports only what a command runs.

`arithgroups --version` and a warm cache hit parse argv, resolve the group and
read the cached bytes; neither may load a compute module.  Each case runs the
CLI in a fresh interpreter, as a user does, and lists the arithgroups modules
loaded when it exits.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

COMPUTE_MODULES = {
    "arithgroups.closure",
    "arithgroups.congruence",
    "arithgroups.density",
    "arithgroups.groups",
    "arithgroups.mpoly",
    "arithgroups.numberfield",
    "arithgroups.padics",
    "arithgroups.poly",
}

# Runs the CLI as `python -m arithgroups.cli ARGS` would, and at exit writes
# the loaded arithgroups modules to the file named by the first argument.
LISTING_MAIN = """
import atexit, json, runpy, sys

listing = sys.argv.pop(1)

def dump():
    with open(listing, "w", encoding="utf-8") as fh:
        json.dump(sorted(m for m in sys.modules if m.startswith("arithgroups")), fh)

atexit.register(dump)
runpy.run_module("arithgroups.cli", run_name="__main__", alter_sys=True)
"""


def loaded_modules(tmp_path, *argv):
    listing = tmp_path / "modules.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("ARITHGROUPS_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, "-c", LISTING_MAIN, str(listing), *argv],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout, set(json.loads(listing.read_text()))


def test_version_loads_no_compute_module(tmp_path):
    out, modules = loaded_modules(tmp_path, "--version")
    assert out.strip() != b""
    assert "arithgroups.catalog" in modules      # the parser names the aliases
    assert not modules & COMPUTE_MODULES


def assert_warm_hit_loads_no_compute_module(tmp_path, argv, computing_module):
    cold_out, cold_modules = loaded_modules(tmp_path, *argv)
    assert computing_module in cold_modules      # the miss computed the scan
    warm_out, warm_modules = loaded_modules(tmp_path, *argv)
    assert warm_out == cold_out
    assert {"arithgroups.catalog", "arithgroups.report"} <= warm_modules
    assert not warm_modules & COMPUTE_MODULES


def test_warm_cache_hit_loads_no_compute_module(tmp_path):
    argv = ("cong", "scan", "--group", "sanov", "--pmax", "31",
            "--cache-dir", str(tmp_path / "cache"))
    assert_warm_hit_loads_no_compute_module(tmp_path, argv, "arithgroups.congruence")


def test_warm_chebotarev_hit_on_a_field_alias_loads_no_compute_module(tmp_path):
    # the cache key comes from the alias's catalog record, not from a built field
    argv = ("nf", "chebotarev", "--field", "qi", "--bound", "10000",
            "--cache-dir", str(tmp_path / "cache"))
    assert_warm_hit_loads_no_compute_module(tmp_path, argv, "arithgroups.numberfield")
