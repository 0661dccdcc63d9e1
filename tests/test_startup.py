"""Start-up: the package imports lazily and the CLI starts only what it runs.

Each check runs in a child interpreter, since the test process has long
since imported every module and started whatever threads numpy starts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from solgrow.catalog import catalog
from solgrow.specio import dump_genset

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _child(code: str, **env: str) -> dict:
    """Run `code` in a fresh interpreter on this checkout; it prints one JSON value."""
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env.update(env, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(out.stdout)


def test_import_solgrow_loads_no_submodule_and_no_numpy():
    loaded = _child(
        "import json, sys, solgrow\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'numpy' or m.startswith('solgrow.'))))"
    )
    assert loaded == []


def test_every_export_resolves_to_its_defining_object():
    # `catalog` names a submodule and a function; importing the submodule
    # first (smallcases does) must not make `solgrow.catalog` the module.
    report = _child(
        "import importlib, json, sys\n"
        "import solgrow.smallcases\n"
        "import solgrow\n"
        "from solgrow import catalog\n"
        "wrong = [n for n in solgrow.__all__\n"
        "    if getattr(sys.modules[getattr(solgrow, n).__module__], n) is not getattr(solgrow, n)]\n"
        "missing = sorted(set(solgrow.__all__) - set(dir(solgrow)))\n"
        "try:\n"
        "    solgrow.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError:\n"
        "    unknown = 'AttributeError'\n"
        "print(json.dumps({'wrong': wrong, 'missing': missing, 'unknown': unknown,\n"
        "    'catalog': catalog is importlib.import_module('solgrow.catalog').catalog,\n"
        "    'count': len(solgrow.__all__), 'version': solgrow.__version__}))"
    )
    assert report == {
        "wrong": [],
        "missing": [],
        "unknown": "AttributeError",
        "catalog": True,
        "count": 75,
        "version": "0.1.0",
    }


_THREADS = (
    "import json, os, solgrow.cli\n"
    "task = '/proc/self/task'\n"
    "threads = len(os.listdir(task)) if os.path.isdir(task) else None\n"
    "print(json.dumps({'threads': threads, 'env': os.environ['OPENBLAS_NUM_THREADS']}))"
)


def test_cli_starts_no_blas_thread_pool():
    report = _child(_THREADS)
    assert report["env"] == "1"
    if report["threads"] is None:
        pytest.skip("no /proc/self/task on this platform")
    assert report["threads"] == 1


def test_cli_leaves_a_preset_blas_thread_count():
    assert _child(_THREADS, OPENBLAS_NUM_THREADS="2")["env"] == "2"


def test_growth_run_loads_only_what_it_uses(tmp_path):
    spec = tmp_path / "sanov.json"
    dump_genset(catalog("sanov"), str(spec))
    report = _child(
        "import json, sys\n"
        "from solgrow.cli import main\n"
        f"rc = main(['growth', {str(spec)!r}, '--radius', '3', '--csv', {str(tmp_path / 'g.csv')!r}])\n"
        "print(json.dumps({'rc': rc, 'loaded': sorted(m for m in sys.modules"
        " if m.startswith('solgrow.') or m in ('argparse', 'locale'))}))"
    )
    assert report["rc"] == 0
    # a plain argv is parsed without argparse, whose gettext imports locale
    assert {"argparse", "locale"}.isdisjoint(report["loaded"]), report["loaded"]
    unused = {
        "solgrow." + m
        for m in ("soluble", "mu", "milnor", "smallcases", "catalog", "constructions",
                  "bounds", "fields")
    }
    assert unused.isdisjoint(report["loaded"]), report["loaded"]
    assert (tmp_path / "g.csv").read_text().splitlines()[-1] == "3,53"


@pytest.mark.parametrize("job", ["analyze", "certify", "mu"])
def test_finite_jobs_load_no_constructions(job, tmp_path):
    # the wreath and catalog code serves `verify-cases` and `catalog` only
    spec = tmp_path / "s4wrs2.json"
    dump_genset(catalog("s4wrs2"), str(spec))
    argv = {
        "analyze": ["analyze", str(spec), "-o", str(tmp_path / "out.json")],
        "certify": ["certify", str(spec)],
        "mu": ["mu", str(spec), "--method", "bruteforce"],
    }[job]
    report = _child(
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "from solgrow.cli import main\n"
        "with redirect_stdout(io.StringIO()):\n"
        f"    rc = main({argv!r})\n"
        "print(json.dumps({'rc': rc, 'loaded': sorted(m for m in sys.modules"
        " if m.startswith('solgrow.'))}))"
    )
    assert report["rc"] == 0
    unused = {"solgrow.constructions", "solgrow.smallcases", "solgrow.catalog"}
    assert unused.isdisjoint(report["loaded"]), report["loaded"]


@pytest.mark.parametrize("job", ["verify-cases", "analyze"])
def test_jobs_never_load_numpy_random(job, tmp_path):
    # numpy.random costs about 6 MiB of RSS and 15 ms to import
    out = str(tmp_path / "out.json")
    if job == "verify-cases":
        argv = ["verify-cases", "--quick", "-o", out]
    else:
        spec = tmp_path / "s4wrs2.json"
        dump_genset(catalog("s4wrs2"), str(spec))
        argv = ["analyze", str(spec), "-o", out]
    report = _child(
        "import json, sys\n"
        "from solgrow.cli import main\n"
        f"rc = main({argv!r})\n"
        "print(json.dumps({'rc': rc, 'random': 'numpy.random' in sys.modules}))"
    )
    assert report == {"rc": 0, "random": False}
