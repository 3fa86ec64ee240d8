"""Self-test of the census benchmark on its smoke workload (A2 adjoint q=7).

    python3 perfbench/selftest.py

Runs run.py untraced and traced, then checks that
1. every end-to-end and per-layer metric prints with its unit, and so
   does fail_ratio;
2. the traced stdout digest of each invocation equals the untraced one;
3. the span self-times of a traced invocation sum to the time from the
   tracer's first statement to its last span (the tracer spans its own
   work as trace.*), and fall short of the traced wall time by no more
   than two bare interpreter lifetimes (start, final write, exit) plus
   trace.overhead_s;
4. a wrong golden digest makes fail_ratio nonzero and the exit code 1;
5. without the package next to it, run.py exits nonzero and prints no
   result.
Exits 0 when all hold.
"""

import json
import shutil
import statistics
import subprocess
import sys
import time

import run


def bench(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines()


def printed_units(lines) -> dict:
    """metric name -> unit, from the human-readable report lines."""
    units = {}
    for line in lines:
        fields = line.split("\t")
        if len(fields) >= 3 and fields[0] == "smoke":
            units[fields[1]] = fields[2].split()[1]
    return units


def check(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    return condition


def copy_of_bench(name, with_src):
    """A checkout under out/ holding BENCHMARK.json and a copy of the
    benchmark, plus a link to the package when ``with_src``."""
    dest = run.OUT / name
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(run.BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", dest)
    if with_src:
        (dest / "src").symlink_to(run.SRC)
    return dest


def bare_interpreter_s() -> float:
    walls = []
    for _ in range(9):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def main() -> int:
    results = []
    code, plain_lines = bench("--seconds", "1", "--trace", "0")
    results.append(check(code == 0 and json.loads(plain_lines[-1])["correct"],
                         "untraced smoke run passes its golden check"))
    code, traced_lines = bench("--seconds", "6", "--trace", "1")
    results.append(check(code == 0 and json.loads(traced_lines[-1])["correct"],
                         "traced smoke run passes its golden check"))

    want = dict(run.END_TO_END_UNITS, fail_ratio="ratio")
    got = printed_units(plain_lines)
    results.append(check(all(got.get(k) == u for k, u in want.items()),
                         f"end-to-end metrics print with units: {sorted(want)}"))
    want = {name: unit for name, unit, _ in run.LAYER_METRICS}
    want.update({"trace.overhead_s": "s", "fail_ratio": "ratio"})
    got = printed_units(traced_lines)
    results.append(check(all(got.get(k) == u for k, u in want.items()),
                         f"{len(want)} per-layer metrics print with units"))

    plain = json.loads((run.OUT / "smoke-seed0-trace0.json").read_text())
    traced = json.loads((run.OUT / "smoke-seed0-trace1.json").read_text())
    digests = traced["digests"]
    results.append(check(digests["traced"] == digests["untraced"] == plain["digests"]["untraced"],
                         "traced stdout digests equal the untraced ones"))

    checks = traced["span_check"]
    results.append(check(all(abs(c["span_self_sum_s"] - c["spanned_s"]) < 1e-3 for c in checks),
                         "span self-times sum to the spanned time of each invocation"))
    gap = statistics.median(c["traced_wall_s"] - c["span_self_sum_s"] for c in checks)
    allowed = 2 * bare_interpreter_s() + abs(traced["metrics"]["trace.overhead_s"]["median"])
    results.append(check(0 < gap <= allowed,
                         f"span self-times sum to the traced wall less {gap:.4f} s "
                         f"(allowed {allowed:.4f} s)"))

    wrong = copy_of_bench("wrong-golden", with_src=True)
    golden = json.loads((run.BENCH / "golden.json").read_text())
    golden["census-A2-ad-q7"] = "0" * 64
    (wrong / "perfbench" / "golden.json").write_text(json.dumps(golden))
    code, lines = bench("--seconds", "1", "--trace", "0", cwd=wrong)
    shutil.rmtree(wrong)
    result = json.loads(lines[-1])
    fail_line = next(line for line in lines if "\tfail_ratio\t" in line)
    results.append(check(code == 1 and not result["correct"] and result["failed"] > 0
                         and float(fail_line.split("\t")[2].split()[0]) > 0,
                         "a wrong golden digest gives fail_ratio > 0 and exit code 1"))

    bare = copy_of_bench("bare", with_src=False)
    code, lines = bench("--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    results.append(check(code != 0 and not any(line.startswith("{") for line in lines),
                         "without the package the benchmark exits nonzero and prints no result"))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
