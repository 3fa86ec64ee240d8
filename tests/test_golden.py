"""Stdout of the command line is byte-identical to the recorded digests.

Every ``census``, ``info`` and ``verify`` invocation of the benchmark's
workloads (``perfbench/run.py``) runs in-process through ``cli.main``,
and the sha256 of its stdout must equal the digest recorded for it in
``perfbench/golden.json``.  So must the invocations of
``golden_ladder.json``, which those workloads miss: E8, E7, F4, G2,
B3, C3 and E6 adjoint, D4 triality, a D6 ``sub:`` type and twisted A3
at q = 9; split and twisted D4 adjoint at q = 3, whose fundamental
group is the Klein four-group and whose twist swaps the spin nodes;
twisted D5 adjoint at q = 3, which carries the split
``d_odd_comparison`` form; the A5 ``sub:2`` type at q = 4; ``info`` on
D6, whose invariant dimensions read the Weyl matrices, and on A7 (Z/8),
D5 (Z/4), E6 and E7, whose fundamental groups are read off the alcove
vertices; and the full
runs of the ``verify`` suites table2, table3, steinberg, alovefixe,
e6e7 and d-odd.  The benchmark's tracer, which
wraps the package's layer functions by name, must still run and
reproduce a digest, for a census and for a ``verify`` suite, and its
probes must still run: ``setup`` on each workload's configurations and
``oracle``, whose two counts agree.
"""

import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from brauercensus import cli, verify

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def _benchmark_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


GOLDEN = json.loads((BENCH / "golden.json").read_text())
WORKLOADS = _benchmark_module().WORKLOADS
INVOCATIONS = sorted(
    {
        inv.name: inv.argv
        for workload in WORKLOADS.values()
        for inv in workload.invocations
        if inv.argv[0] in ("census", "info", "verify")
    }.items()
)


LADDER = json.loads((Path(__file__).resolve().parent / "golden_ladder.json").read_text())


def _stdout_digest(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == cli.EXIT_OK
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name,argv", INVOCATIONS, ids=[name for name, _ in INVOCATIONS])
def test_stdout_matches_golden_digest(name, argv):
    assert _stdout_digest(argv) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(LADDER))
def test_census_matches_ladder_digest(name):
    assert _stdout_digest(LADDER[name]["argv"]) == LADDER[name]["sha256"]


def _child(script, *args):
    """A benchmark script run as the benchmark runs it, in a fresh
    process on this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(BENCH / script), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _traced(argv):
    """The tracer's record of one ``cli`` invocation."""
    proc = _child("tracer.py", "cli", *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_setup_probe_sets_up_each_workload(name):
    proc = _child("probe.py", "setup", json.dumps(WORKLOADS[name].configs))
    assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr


def test_oracle_probe_agrees_with_the_census():
    proc = _child("probe.py", "oracle")
    assert proc.returncode == 0, proc.stderr
    assert list(json.loads(proc.stdout).values()) == [9, 9]


def test_tracer_runs_and_reproduces_a_digest():
    result = _traced(["census", "--type", "A2", "--isogeny", "ad", "--q", "7"])
    assert result["exit"] == 0
    assert result["sha256"] == GOLDEN["census-A2-ad-q7"]


def test_tracer_wraps_a_suite_and_reproduces_its_digest():
    # The tracer wraps each value of cli.SUITES; the suite then imports
    # verify, whose calls into census go through the wrapped functions.
    result = _traced(["verify", "--suite", "theta"])
    assert result["exit"] == 0
    assert result["sha256"] == GOLDEN["verify-theta"]
    names = [span[0] for span in result["spans"]]
    assert names.count("cli.verify_suite") == 1
    assert names.count("census.enumerate_classes") == len(verify.THETA_CASES)


def test_cli_suites_follow_the_suite_table():
    # cli lists the suites without importing verify; the usage error for
    # an unknown suite prints the names in cli.SUITES.
    assert list(cli.SUITES) == list(verify.SUITES)
    assert all(verify.SUITES[name].name == name for name in verify.SUITES)
