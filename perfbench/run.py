"""Census benchmark: end-to-end and per-layer metrics of brauercensus.

    python3 perfbench/run.py --workload d5-adjoint --seed 1 --seconds 40 --trace 0

Run from anywhere; the package is taken from the ``src`` directory next
to this one.  Each workload is a fixed list of invocations, and one pass
runs each of them once, every one in a fresh interpreter, because the
package caches the root datum, the fundamental group and the sub-alcoves
within a process.  Every invocation's stdout is checked against its
sha256 in ``golden.json``, recorded from the seed code.

``--trace 0`` measures set-up, then repeats passes until ``--seconds``
is spent (at least MIN_PASSES), and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes (``tracer.py``) and
reports the per-layer metrics.  Human-readable lines come first; the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (passes,
environment, spans of the last traced pass) goes to ``out/``.  The exit
code is 1 when any output is wrong and 2 when the package is missing.

Runs vary because the processor's speed varies on a shared host: CPU
time tracks wall time to within 1%, yet one configuration's time can
change by half from one minute to the next.  Hence every timing is a
median over passes, set-up probes are spread over the run, and a fixed
calibration job runs before every timed child process.  The end-to-end
times are reported at reference speed: each median is scaled by
CALIBRATION_REF_S over the median calibration time of the run.  The
result file keeps the unscaled medians and every calibration time.

``--workload all`` runs every workload in an order shuffled by the seed,
and prefixes the metric names in the JSON line with ``<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_PASSES = 3
# Set-up probes run between passes, so that they sample the same stretch
# of machine time as the passes do.
SETUP_PER_PASS = 2
SETUP_MIN = 12
# The calibration job's time at reference speed: run medians were 41-46 ms
# on a shared 2-vCPU Xeon at 2.0 GHz under Python 3.11.  It only sets the
# scale of the reported times.
CALIBRATION_REF_S = 0.045
CALIBRATION_KEYS = 3000


def calibration_s() -> float:
    """Wall time of a fixed job of the kinds the census does: tuple keys,
    dict updates and Fraction sums.  Its median over a run follows the
    host's speed drift: scaling by it took the spread of wall_s medians
    over ten runs from 0.20-0.45 to 0.09-0.15 of their median."""
    rng = random.Random(3)
    start = time.perf_counter()
    table = {}
    for _ in range(CALIBRATION_KEYS):
        key = tuple(rng.randint(0, 9) for _ in range(6))
        table[key] = table.get(key, Fraction(0)) + Fraction(rng.randint(1, 9), rng.randint(1, 9))
    sum(table.values())
    return time.perf_counter() - start


@dataclass(frozen=True)
class Invocation:
    """One child process: a ``brauercensus`` command line, or the
    oracle comparison in ``probe.py`` when ``argv`` is ("oracle",)."""

    name: str
    argv: tuple[str, ...]

    def command(self, traced: bool) -> list[str]:
        if traced:
            kind = ["oracle"] if self.argv == ("oracle",) else ["cli", *self.argv]
            return [sys.executable, str(BENCH / "tracer.py"), *kind]
        if self.argv == ("oracle",):
            return [sys.executable, str(BENCH / "probe.py"), "oracle"]
        return [sys.executable, "-m", "brauercensus", *self.argv]

    def classes(self, stdout: bytes) -> int:
        """Classes emitted: ``geometric_total`` of a census, else 0."""
        if self.argv[0] != "census":
            return 0
        if "tsv" in self.argv:
            return stdout.count(b"\n") - 1
        return json.loads(stdout)["counts"]["geometric_total"]


def _census(name, label, isogeny, q, *flags):
    argv = ("census", "--type", label, "--isogeny", isogeny, "--q", str(q), *flags)
    return Invocation(name, argv)


@dataclass(frozen=True)
class Workload:
    invocations: tuple[Invocation, ...]
    # [type, isogeny, q, twisted, triality] for make_group_config.
    configs: tuple[tuple, ...]


# Each workload is sized so that one pass takes seconds, not minutes: a
# run must repeat passes to report a median.  D5 adjoint q=5 (about 35 s a
# pass) and E7 simply connected q=3 (10-17 s) have the same layer mix as
# the q=3 and q=2 configurations used here.
WORKLOADS = {
    # Odd-rank D adjoint: the CLI computes the census twice (the report,
    # then the closed-form comparison), with 4 stabilizer nodes per cell.
    # Fixed-point solves dominate.
    "d5-adjoint": Workload(
        (_census("census-D5-ad-q3", "D5", "ad", 3),),
        (("D5", "ad", 3, False, False),),
    ),
    # Rank 7 simply connected, TSV: one fixed point per cell, trivial
    # orbit keys, one census.  The sub-alcove search has its largest share
    # here, and removing the second census must leave this unchanged.
    "e7-sc-tsv": Workload(
        (_census("census-E7-sc-q2-tsv", "E7", "sc", 2, "--format", "tsv"),),
        (("E7", "sc", 2, False, False),),
    ),
    # Many small configurations, each a fresh process: start-up, import,
    # root data, fundamental group, invariant spaces and the brute-force
    # oracle dominate.  Also puts twisted, triality and sub: outputs under
    # the golden digests.  The seed shuffles the order of each pass.
    "small-mix": Workload(
        (
            Invocation("info-E8", ("info", "--type", "E8")),
            _census("census-A2-ad-q7", "A2", "ad", 7),
            _census("census-A2-ad-q5-twisted", "A2", "ad", 5, "--twisted"),
            _census("census-E6-ad-q2-twisted", "E6", "ad", 2, "--twisted"),
            _census("census-D4-sub1-q3", "D4", "sub:alpha1", 3),
            _census("census-D4-ad-q3-triality", "D4", "ad", 3, "--twisted", "--triality"),
            Invocation("verify-table1", ("verify", "--suite", "table1")),
            Invocation("verify-theta", ("verify", "--suite", "theta")),
            Invocation("verify-oracle", ("verify", "--suite", "oracle")),
            Invocation("oracle-PGL3-q3", ("oracle",)),
        ),
        (
            ("E8", "ad", 2, False, False),
            ("A2", "ad", 7, False, False),
            ("A2", "ad", 5, True, False),
            ("E6", "ad", 2, True, False),
            ("D4", [1], 3, False, False),
            ("D4", "ad", 3, True, True),
            ("A2", "ad", 3, False, False),
        ),
    ),
    # For selftest.py only.
    "smoke": Workload(
        (_census("census-A2-ad-q7", "A2", "ad", 7),),
        (("A2", "ad", 7, False, False),),
    ),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "classes_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
# The power of CALIBRATION_REF_S / (median calibration time) by which each
# end-to-end metric is scaled to reference speed.
SPEED_POWER = {"wall_s": 1, "cpu_s": 1, "classes_per_s": -1, "peak_rss_mib": 0, "setup_s": 1}


class Layers:
    """Span totals of one traced pass, summed over its invocations."""

    def __init__(self):
        self.incl = defaultdict(float)
        self.own = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.stdout_bytes = 0

    def add(self, trace: dict) -> float:
        """Add one invocation's trace; returns the sum of its self times."""
        child = defaultdict(float)
        for _, start, end, _, parent, _ in trace["spans"]:
            child[parent] += end - start
        total_self = 0.0
        for name, start, end, sid, _, nested in trace["spans"]:
            own = end - start - child[sid]
            self.own[name] += own
            self.calls[name] += 1
            total_self += own
            if not nested:
                self.incl[name] += end - start
        for key, value in trace["counters"].items():
            self.counters[key] += value
        self.stdout_bytes += trace["stdout_bytes"]
        return total_self


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics: name, unit, value from a pass's Layers.
LAYER_METRICS = (
    ("rootdata.build_root_system_s", "s", lambda t: t.incl["rootdata.build_root_system"]),
    ("rootdata.subdiagram_type_s", "s", lambda t: t.incl["rootdata.subdiagram_type"]),
    ("rootdata.subdiagram_type_calls", "count", lambda t: t.calls["rootdata.subdiagram_type"]),
    ("affine.fundamental_group_s", "s", lambda t: t.incl["affine.fundamental_group"]),
    ("affine.invariant_space_s", "s", lambda t: t.incl["affine.invariant_space"]),
    ("affine.fold_coords_s", "s", lambda t: t.incl["affine.fold_coords"]),
    ("affine.fold_coords_calls", "count", lambda t: t.calls["affine.fold_coords"]),
    ("brauer.enumerate_subalcoves_s", "s", lambda t: t.incl["brauer.enumerate_subalcoves"]),
    ("brauer.subalcoves", "count", lambda t: t.counters["brauer.subalcoves"]),
    ("brauer.fixed_point_s", "s", lambda t: t.incl["brauer.fixed_point"]),
    ("brauer.fixed_point_calls", "count", lambda t: t.calls["brauer.fixed_point"]),
    ("brauer.theta_s", "s", lambda t: t.incl["brauer.theta"]),
    ("census.enumerate_classes_calls", "count", lambda t: t.calls["census.enumerate_classes"]),
    ("census.enumerate_classes_self_s", "s", lambda t: t.own["census.enumerate_classes"]),
    ("census.orbit_key_s", "s", lambda t: t.incl["census.orbit_key"]),
    ("census.orbit_equal_s", "s", lambda t: t.incl["census.orbit_equal"]),
    ("census.f_stable_self_s", "s", lambda t: t.own["census.f_stable"]),
    ("census.classify_s", "s", lambda t: t.incl["census.classify"]),
    ("census.candidates", "count", lambda t: t.counters["census.candidates"]),
    ("census.orbit_keys", "count", lambda t: t.counters["census.orbit_keys"]),
    ("census.stable_classes", "count", lambda t: t.counters["census.stable_classes"]),
    ("census.candidate_yield", "ratio", lambda t: _ratio(
        t.counters["census.orbit_keys"], t.calls["brauer.fixed_point"])),
    ("census.stable_ratio", "ratio", lambda t: _ratio(
        t.counters["census.stable_classes"], t.counters["census.orbit_keys"])),
    ("cli.import_s", "s", lambda t: t.incl["cli.import"]),
    ("cli.census_report_self_s", "s", lambda t: t.own["cli.census_report"]),
    ("cli.serialize_s", "s", lambda t: t.incl["cli.serialize"]),
    ("cli.stdout_bytes", "bytes", lambda t: t.stdout_bytes),
    ("oracle.semisimple_class_count_s", "s",
     lambda t: t.incl["oracle.semisimple_class_count"]),
)
# The base each ratio is taken over, printed next to it.
RATIO_BASES = {
    "census.candidate_yield": "census.orbit_keys / brauer.fixed_point_calls",
    "census.stable_ratio": "census.stable_classes / census.orbit_keys",
}


@dataclass
class Outcome:
    ok: bool
    stdout: bytes
    wall: float
    cpu: float
    maxrss_kib: int


class Runner:
    """Spawns the child processes of one benchmark run and keeps count."""

    def __init__(self, golden: dict, log):
        self.golden = golden
        self.log = log
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.mismatches = []
        self.digests = {"untraced": {}, "traced": {}}
        self.calibration = []

    def spawn(self, command: list[str]) -> Outcome:
        start = time.perf_counter()
        proc = subprocess.Popen(
            command, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=self.log
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(
            proc.returncode == 0, out, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss
        )

    def setup_probe(self, configs: str) -> float:
        """Wall time of a fresh process that sets up ``configs``."""
        self.calibration.append(calibration_s())
        outcome = self.spawn([sys.executable, str(BENCH / "probe.py"), "setup", configs])
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            self.mismatches.append("setup-probe")
        return outcome.wall

    def invoke(self, inv: Invocation) -> Outcome:
        """Run one untraced invocation and check its stdout."""
        self.calibration.append(calibration_s())
        outcome = self.spawn(inv.command(traced=False))
        digest = hashlib.sha256(outcome.stdout).hexdigest()
        self.digests["untraced"][inv.name] = digest
        return self._check(inv, outcome, outcome.ok, digest)

    def invoke_traced(self, inv: Invocation) -> tuple[Outcome, dict]:
        outcome = self.spawn(inv.command(traced=True))
        trace = {}
        if outcome.ok:
            trace = json.loads(outcome.stdout.splitlines()[-1])
        ok = outcome.ok and trace["exit"] == 0
        self.digests["traced"][inv.name] = trace.get("sha256")
        return self._check(inv, outcome, ok, trace.get("sha256")), trace

    def _check(self, inv, outcome, ok, digest) -> Outcome:
        self.attempted += 1
        if not ok or digest != self.golden.get(inv.name):
            outcome.ok = False
            self.failed += 1
            self.mismatches.append(inv.name)
        return outcome


def timing_summary(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples
    beyond it (if any), and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"median": statistics.median(ordered), "samples": n}
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) >= 1000:
            summary[f"p{p}"] = ordered[-(n * (100 - p) // 100) - 1]
            break
    return summary


def scaled(summary: dict, factor: float) -> dict:
    return {k: v if k == "samples" else v * factor for k, v in summary.items()}


def untraced_pass(runner: Runner, invocations) -> dict:
    wall = cpu = 0.0
    rss = classes = 0
    for inv in invocations:
        outcome = runner.invoke(inv)
        wall += outcome.wall
        cpu += outcome.cpu
        rss = max(rss, outcome.maxrss_kib)
        if outcome.ok:
            classes += inv.classes(outcome.stdout)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "classes_per_s": classes / wall,
        "peak_rss_mib": rss / 1024,
    }


def traced_pass(runner: Runner, invocations) -> tuple[dict, dict, list]:
    layers = Layers()
    wall = 0.0
    span_check = []
    spans = {}
    for inv in invocations:
        outcome, trace = runner.invoke_traced(inv)
        wall += outcome.wall
        if trace:
            roots = [sp for sp in trace["spans"] if sp[4] == 0]
            span_check.append(
                {"invocation": inv.name, "traced_wall_s": outcome.wall,
                 "span_self_sum_s": layers.add(trace),
                 "spanned_s": max(sp[2] for sp in roots) - min(sp[1] for sp in roots)}
            )
            spans[inv.name] = trace["spans"]
    values = {name: fn(layers) for name, _, fn in LAYER_METRICS}
    values["traced_wall_s"] = wall
    return values, spans, span_check


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg_before": os.getloadavg(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, golden: dict) -> dict:
    """One run of one workload; returns the record written to ``out/``."""
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    env = environment()
    OUT.mkdir(exist_ok=True)
    with open(OUT / "stderr.log", "ab") as log:
        runner = Runner(golden, log)
        # Compile the package's bytecode before anything is timed.
        runner.spawn([sys.executable, "-c", "import brauercensus.cli"])
        start = time.perf_counter()
        deadline = start + seconds

        def invocations():
            order = list(workload.invocations)
            rng.shuffle(order)
            return order

        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
        if not trace:
            configs = json.dumps(workload.configs)
            setup, passes = [], []
            while len(passes) < MIN_PASSES or time.perf_counter() + statistics.median(
                p["wall_s"] for p in passes
            ) <= deadline:
                setup += [runner.setup_probe(configs) for _ in range(SETUP_PER_PASS)]
                passes.append(untraced_pass(runner, invocations()))
            while len(setup) < SETUP_MIN:
                setup.append(runner.setup_probe(configs))
            samples = {key: [p[key] for p in passes] for key in passes[0]}
            samples["setup_s"] = setup
            record["passes"] = passes
            record["setup_s"] = setup
            record["calibration_s"] = runner.calibration
            scale = CALIBRATION_REF_S / statistics.median(runner.calibration)
            record["speed_scale"] = scale
            record["unscaled"] = {key: timing_summary(samples[key]) for key in END_TO_END_UNITS}
            metrics = {
                key: (scaled(record["unscaled"][key], scale ** SPEED_POWER[key]), unit)
                for key, unit in END_TO_END_UNITS.items()
            }
        else:
            plain, traced, span_check = [], [], []
            while not traced or time.perf_counter() + statistics.median(
                p["wall_s"] + t["traced_wall_s"] for p, t in zip(plain, traced)
            ) <= deadline:
                # Alternate which side runs first, so that drift in the
                # machine's speed does not bias trace.overhead_s.
                order = invocations()
                traced_first = len(traced) % 2 == 1
                if traced_first:
                    values, spans, checks = traced_pass(runner, order)
                plain.append(untraced_pass(runner, order))
                if not traced_first:
                    values, spans, checks = traced_pass(runner, order)
                traced.append(values)
                span_check += checks
            overhead = [t["traced_wall_s"] - p["wall_s"] for p, t in zip(plain, traced)]
            record["passes"] = plain
            record["traced_passes"] = traced
            record["span_check"] = span_check
            metrics = {
                name: (timing_summary([t[name] for t in traced]), unit)
                for name, unit, _ in LAYER_METRICS
            }
            metrics["trace.overhead_s"] = (timing_summary(overhead), "s")
            with open(OUT / f"{name}-seed{seed}-spans.json", "w") as f:
                json.dump(spans, f)
        record["elapsed_s"] = time.perf_counter() - start
    env["loadavg_after"] = os.getloadavg()
    record["environment"] = env
    record["attempted"] = runner.attempted
    record["failed"] = runner.failed
    record["fail_ratio"] = runner.failed / runner.attempted
    record["mismatches"] = runner.mismatches
    record["digests"] = runner.digests
    record["metrics"] = {
        key: dict(summary, unit=unit) for key, (summary, unit) in metrics.items()
    }
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as f:
        json.dump(record, f, indent=1)
    return record


def report_lines(record: dict) -> list[str]:
    env = record["environment"]
    name = record["workload"]
    lines = [
        f"# {name}: seed {record['seed']}, trace {int(record['trace'])}, "
        f"python {env['python']}, nproc {env['nproc']}, cpu {env['cpu_model']}, "
        f"loadavg {env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}"
        + (f", speed scale {record['speed_scale']:.4f}" if "speed_scale" in record else "")
    ]
    for key, m in record["metrics"].items():
        tail = next((f", {k} {m[k]:.6g}" for k in m if k.startswith("p")), "")
        if SPEED_POWER.get(key) and not record["trace"]:
            tail += f", unscaled {record['unscaled'][key]['median']:.6g}"
        base = f" [{RATIO_BASES[key]}]" if key in RATIO_BASES else ""
        lines.append(
            f"{name}\t{key}\t{m['median']:.6g} {m['unit']}\t"
            f"(median of {m['samples']}{tail}){base}"
        )
    lines.append(
        f"{name}\tfail_ratio\t{record['fail_ratio']:.6g} ratio\t"
        f"({record['failed']} of {record['attempted']} invocations)"
        + (f" mismatched: {', '.join(sorted(set(record['mismatches'])))}"
           if record["mismatches"] else "")
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        names = [n for n in WORKLOADS if n != "smoke"]
    else:
        names = [args.workload]
    if not (SRC / "brauercensus" / "__init__.py").is_file():
        print(f"no package at {SRC / 'brauercensus'}", file=sys.stderr)
        return 2
    golden = json.loads((BENCH / "golden.json").read_text())
    random.Random(args.seed).shuffle(names)

    records = [run_workload(n, args.seed, args.seconds, bool(args.trace), golden) for n in names]
    metrics = {}
    for record in records:
        print("\n".join(report_lines(record)), flush=True)
        prefix = f"{record['workload']}/" if len(records) > 1 else ""
        for key, m in record["metrics"].items():
            metrics[prefix + key] = {"value": m["median"], "unit": m["unit"]}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
