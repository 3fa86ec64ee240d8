import io
import json
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from brauercensus import brauer, census, cli, verify
from brauercensus.cli import (
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_RESOURCE,
    EXIT_USAGE,
    census_report,
    main,
)
from brauercensus.census import make_group_config
from brauercensus.errors import InvariantViolation
from brauercensus.linalg import PRIME_POWER_BOUND, SingularMatrixError
from brauercensus.rootdata import TypeLabel
from brauercensus.verify import Check, classical_invariant_dimension

import fraction_reference as reference

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_info_e6():
    code, out, _ = run(["info", "--type", "E6"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["fundamental_group"]["order"] == 3
    assert report["invariant_dimensions"] == {"0": 6, "1": 2, "6": 2}
    assert report["roots"] == 72


def test_info_e8():
    code, out, _ = run(["info", "--type", "E8"])
    report = json.loads(out)
    assert report["fundamental_group"]["order"] == 1
    assert report["invariant_dimensions"] == {"0": 8}


def test_info_a1():
    code, out, _ = run(["info", "--type", "A1"])
    report = json.loads(out)
    assert report["roots"] == 2
    assert report["minuscule_nodes"] == [0, 1]


def test_census_json_values():
    code, out, _ = run(["census", "--type", "A1", "--isogeny", "ad", "--q", "3"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["counts"]["rational_total"] == 4
    assert report["counts"]["geometric_total"] == 3
    assert report["counts"]["pprime_char_total"] == 6
    # rationals serialized as exact strings
    reps = {tuple(c["rep_affine"]) for c in report["classes"]}
    assert ("1/2", "1/2") in reps


def test_census_e6_twisted():
    code, out, _ = run(
        ["census", "--type", "E6", "--isogeny", "ad", "--q", "2", "--twisted"]
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["counts"]["rational_total"] == 72
    assert report["counts"]["by_component_order"] == {"1": 60, "3": 4}
    assert report["twisted"] is True


def test_census_deterministic_output():
    args = ["census", "--type", "B2", "--isogeny", "ad", "--q", "3"]
    _, out1, _ = run(args)
    _, out2, _ = run(args)
    assert out1 == out2


def test_census_json_roundtrip():
    code, out, _ = run(["census", "--type", "A2", "--isogeny", "sc", "--q", "2"])
    report = json.loads(out)
    assert json.loads(json.dumps(report)) == report


def test_census_tsv():
    code, out, _ = run(
        ["census", "--type", "A1", "--isogeny", "ad", "--q", "3", "--format", "tsv"]
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0].startswith("rep_affine\t")
    assert len(lines) == 4


def test_census_sub_isogeny():
    code, out, _ = run(
        ["census", "--type", "D4", "--isogeny", "sub:alpha1", "--q", "3"]
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["isogeny"] == "sub:1"
    assert report["isogeny_order"] == 2


def test_usage_errors():
    code, out, err = run(["info", "--type", "Z9"])
    assert code == EXIT_USAGE and out == ""
    assert err == "usage error: cannot parse type label 'Z9'\n"
    code, out, err = run(["info", "--type", "A0"])
    assert code == EXIT_USAGE and out == ""
    assert err == "usage error: invalid rank 0 for family A\n"
    code, out, err = run(["census", "--type", "A1", "--isogeny", "ad", "--q", "6"])
    assert code == EXIT_USAGE and out == ""
    assert err == "usage error: q = 6 is not a prime power >= 2\n"
    assert run(["census", "--type", "A1", "--isogeny", "xx", "--q", "3"])[0] == EXIT_USAGE
    code, out, err = run(["census", "--type", "A5", "--isogeny", "sub:x", "--q", "4"])
    assert code == EXIT_USAGE and out == ""
    assert err == "usage error: cannot parse isogeny node 'x'\n"
    # the parser requires a command
    code, out, err = run([])
    assert code == EXIT_USAGE and out == ""
    assert err == "usage error: the following arguments are required: command\n"
    assert run(["census", "--type", "B3", "--isogeny", "ad", "--q", "3", "--twisted"])[0] == EXIT_USAGE
    assert run(["verify", "--suite", "nope"])[0] == EXIT_USAGE
    assert run(["bogus"])[0] == EXIT_USAGE
    assert run(["census", "--type", "A2", "--q", "3", "--max-subalcoves", "-5"])[0] == EXIT_USAGE
    assert run(["census", "--type", "A2", "--q", "3", "--max-subalcoves", "0"])[0] == EXIT_USAGE
    assert run(["verify", "--suite", "table1", "--max-subalcoves", "0"])[0] == EXIT_USAGE
    for argv in (
        ["verify", "--suite", "table1", "--types", "X9"],
        ["verify", "--suite", "theta", "--types", "X9"],
        ["verify", "--suite", "e6e7", "--types", "A1"],
        ["verify", "--suite", "oracle", "--types", "E6"],
        ["verify", "--suite", "table3", "--max-q", "0"],
        ["verify", "--suite", "table3", "--types", ""],
        ["verify", "--suite", "table1", "--types", ""],
        # an entry that names no case is an error even beside known ones
        ["verify", "--suite", "table1", "--types", "A2, C3"],
        ["verify", "--suite", "theta", "--types", "A2,X9"],
        ["verify", "--suite", "oracle", "--types", "A1,A2"],
        ["verify", "--suite", "steinberg", "--types", "A2,X9"],
    ):
        code, out, err = run(argv)
        assert code == EXIT_USAGE and out == "" and "select no check" in err
    # table1 and table2 have no q, so they cannot honour --max-q
    for suite in ("table1", "table2"):
        code, out, err = run(["verify", "--suite", suite, "--max-q", "2"])
        assert code == EXIT_USAGE and out == "" and "--max-q" in err


def test_verify_info_lines_are_never_passes(monkeypatch):
    def suite(law_holds):
        return lambda **_: [
            Check("stub/value", None, "recorded"),
            Check("stub/law", law_holds, "asserted"),
        ]

    monkeypatch.setitem(cli.SUITES, "stub", suite(True))
    code, out, _ = run(["verify", "--suite", "stub"])
    assert code == EXIT_OK
    assert out == "INFO\tstub/value\trecorded\nPASS\tstub/law\tasserted\n"
    monkeypatch.setitem(cli.SUITES, "stub", suite(False))
    code, out, _ = run(["verify", "--suite", "stub"])
    assert code == EXIT_INVARIANT
    assert out.splitlines()[1] == "FAIL\tstub/law\tasserted"


@pytest.mark.parametrize("suite", sorted(cli.SUITES))
def test_unknown_type_fails_before_any_case_runs(monkeypatch, suite):
    def forbidden(*args, **kw):
        raise AssertionError("a case ran")

    monkeypatch.setattr(verify, "make_group_config", forbidden)
    monkeypatch.setattr(verify, "build_root_system", forbidden)
    known = verify.SUITES[suite].cases[0][0]
    for types in ("X9", f"{known},X9"):
        code, out, err = run(["verify", "--suite", suite, "--types", types])
        assert code == EXIT_USAGE and out == "" and "select no check" in err


@pytest.mark.parametrize(
    "suite,callee,config_of,case",
    [
        ("alovefixe", "stable_cell_count", lambda datum, _, q: (datum, q), "alovefixe/A2/q3"),
        ("steinberg", "counts", lambda config, **_: (config.datum, config.q), "steinberg/A2/q3/split"),
    ],
)
def test_invariant_violation_is_one_fail_line(monkeypatch, suite, callee, config_of, case):
    real = getattr(verify, callee)

    def broken(*args, **kw):
        datum, q = config_of(*args, **kw)
        if str(datum.label) == "A2" and q == 3:
            raise InvariantViolation("injected")
        return real(*args, **kw)

    argv = ["verify", "--suite", suite, "--types", "A1,A2", "--max-q", "3"]
    _, want, _ = run(argv)
    kept = [line for line in want.splitlines() if "/A2/q3" not in line]
    monkeypatch.setattr(verify, callee, broken)
    code, out, _ = run(argv)
    assert code == EXIT_INVARIANT
    # the other cases still print; the broken one (the last) is one line
    assert len(kept) > 1
    assert out.splitlines() == kept + [f"FAIL\t{case}\tinjected"]


def test_d_odd_stratum_lines_can_fail(monkeypatch):
    # The suite's own D5 q=5 run passes (golden_ladder.json pins it).  The
    # stratum identity rests on the congruence hypothesis, which fails at
    # q=3 for the order-4 group, so there every stratum line must read FAIL.
    monkeypatch.setattr(
        verify, "make_group_config", lambda *args, **kw: make_group_config("D5", "ad", 3)
    )
    code, out, _ = run(["verify", "--suite", "d-odd"])
    lines = [line.split("\t")[:2] for line in out.splitlines()]
    assert code == EXIT_INVARIANT
    assert [status for status, name in lines if "stratum" in name] == ["FAIL"] * 4
    assert lines[-1] == ["INFO", "d-odd/D5-q5/closed-form"]


def _shifted(name, shift):
    """Patches ``verify.<name>`` to return its value through ``shift``."""

    def patch(monkeypatch):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args, **kw: shift(real(*args, **kw)))

    return patch


def _table3_literal_off_by_one(monkeypatch):
    # counts and the closed form stay equal, so only the paper's figure moves
    suite = verify.SUITES["table3"]
    cases = tuple((*case[:3], case[3] + 1) for case in suite.cases)
    monkeypatch.setattr(suite, "cases", cases)


def _one_more(*fields):
    return lambda counts: counts._replace(**{f: getattr(counts, f) + 1 for f in fields})


# Per suite whose lines compare a value: its filters, the patch that puts
# that value off by one, and the name prefix of the lines that compare.
COMPARING_SUITES = {
    "table1": (
        ["--types", "A3,D5"],
        _shifted("classical_invariant_dimension", lambda dim: dim + 1),
        "table1/",
    ),
    "table2": (["--types", "B4"], _shifted("subdiagram_type", lambda t: t[1:]), "table2/"),
    "table3": (["--types", "A2,C4"], _table3_literal_off_by_one, "table3/"),
    "alovefixe": (
        ["--types", "A2,B3", "--max-q", "3"],
        _shifted("stable_cell_count", lambda n: n + 1),
        "alcove-fixed/",
    ),
    "e6e7": (["--types", "E6"], _shifted("counts", _one_more("rational_total")), "e6e7/"),
    "oracle": (
        ["--max-q", "3"],
        _shifted("counts", _one_more("rational_total", "pprime_char_total")),
        "oracle/",
    ),
    "theta": (
        ["--types", "A2"],
        _shifted("theta", lambda strata: {a: n + 1 for a, n in strata.items()}),
        "theta/",
    ),
}


@pytest.mark.parametrize("suite", COMPARING_SUITES)
def test_every_comparing_line_can_fail(monkeypatch, suite):
    # With the value that a line compares off by one, the line reads FAIL;
    # the lines that compare nothing, the alovefixe walk's, still pass.
    filters, patch, compared = COMPARING_SUITES[suite]
    patch(monkeypatch)
    code, out, _ = run(["verify", "--suite", suite, *filters])
    lines = [line.split("\t")[:2] for line in out.splitlines()]
    assert code == EXIT_INVARIANT
    assert any(name.startswith(compared) for _, name in lines)
    for status, name in lines:
        assert status == ("FAIL" if name.startswith(compared) else "PASS"), name


def test_resource_cap_exit():
    code, _, err = run(
        ["census", "--type", "E7", "--isogeny", "ad", "--q", "3",
         "--max-subalcoves", "10"]
    )
    assert code == EXIT_RESOURCE
    assert err == "resource cap: E7, q=3: 2187 sub-alcoves exceed the cap 10\n"


def test_large_prime_q_reaches_the_cap_check():
    # The cap is checked before the prime-power test; an over-cap q that
    # is no prime power is refused by the cap too.  A q below 2 stays a
    # usage error, though (-1001)^2 is over the cap.
    for label, q in (("A1", 10000019), ("A1", 2**61 - 1), ("A2", 10000)):
        code, out, err = run(["census", "--type", label, "--q", str(q)])
        assert code == EXIT_RESOURCE and out == ""
        cells = q ** int(label[1:])
        assert err == (
            f"resource cap: {label}, q={q}: {cells} sub-alcoves exceed the cap 1000000\n"
        )
    code, out, err = run(["census", "--type", "A2", "--q", "-1001"])
    assert code == EXIT_USAGE and out == ""
    assert err == "usage error: q = -1001 is not a prime power >= 2\n"


def test_large_q_under_a_raised_cap_is_a_quick_usage_error():
    # With the cap raised past it, a semiprime q near 10^18 reaches the
    # prime-power test, which is bounded and does not trial-divide; a q
    # beyond the test's exact range is a usage error too.
    q = 1000000007 * 1000000009
    start = time.perf_counter()
    code, out, err = run(
        ["census", "--type", "A1", "--q", str(q), "--max-subalcoves", str(10**19)]
    )
    assert time.perf_counter() - start < 2
    assert code == EXIT_USAGE and out == ""
    assert err == f"usage error: q = {q} is not a prime power >= 2\n"
    q = PRIME_POWER_BOUND + 2
    code, out, err = run(
        ["census", "--type", "A1", "--q", str(q), "--max-subalcoves", str(10**25)]
    )
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"usage error: q = {q} is too large for the exact prime-power test")


def test_component_action_fault_is_an_invariant_violation(monkeypatch):
    # With every node's Frobenius image forced to 0, the first
    # disconnected class's component group is not Frobenius-stable: an
    # internal fault, named by the configuration, not a usage error.
    monkeypatch.setattr(census, "central_frobenius_action", lambda *args: 0)
    code, out, err = run(["census", "--type", "A2", "--q", "4"])
    assert code == EXIT_INVARIANT and out == ""
    assert err == "invariant violation: A2 ad q=4: subgroup is not Frobenius-stable\n"


def _singular(rows):
    raise SingularMatrixError("singular coefficient matrix")


def _injected(*args):
    raise ValueError("injected")


@pytest.mark.parametrize(
    "module,attr,fault,argv,message",
    [
        # an unfolded Frobenius image leaves the closed alcove
        (
            census,
            "fold_coords",
            lambda datum, coords: coords,
            ["census", "--type", "D5", "--q", "3"],
            "D5 ad q=3: orbit comparison requires points of the closed alcove",
        ),
        (
            brauer,
            "bareiss",
            _singular,
            ["census", "--type", "A2", "--q", "4"],
            "A2 ad q=4: singular coefficient matrix",
        ),
        # info's type parses, so its report's faults are internal too
        (cli, "invariant_space", _injected, ["info", "--type", "E6"], "E6: injected"),
    ],
    ids=["fold_coords", "bareiss", "invariant_space"],
)
def test_internal_value_errors_are_invariant_violations(
    monkeypatch, module, attr, fault, argv, message
):
    # A ValueError raised past a valid type or configuration is an
    # internal fault, named by it, not a usage error.
    monkeypatch.setattr(module, attr, fault)
    code, out, err = run(argv)
    assert code == EXIT_INVARIANT and out == ""
    assert err == f"invariant violation: {message}\n"


def test_internal_value_error_is_one_fail_line_per_case(monkeypatch):
    monkeypatch.setattr(brauer, "bareiss", _singular)
    code, out, err = run(["verify", "--suite", "theta"])
    assert code == EXIT_INVARIANT and err == ""
    assert out.splitlines() == [
        f"FAIL\t{case}\tsingular coefficient matrix"
        for case in ("theta/A2/q7/split", "theta/A2/q5/twisted", "theta/E6/q2/twisted")
    ]


def test_census_cap_is_the_subalcove_count():
    # A2 at q=3 has exactly 9 sub-alcoves
    argv = ["census", "--type", "A2", "--q", "3", "--max-subalcoves"]
    code, out, err = run(argv + ["8"])
    assert code == EXIT_RESOURCE and out == ""
    assert err == "resource cap: A2, q=3: 9 sub-alcoves exceed the cap 8\n"
    assert run(argv + ["9"])[0] == EXIT_OK


def test_verify_cap_is_checked_before_any_case_runs(monkeypatch):
    def forbidden(*args, **kw):
        raise AssertionError("a case ran")

    monkeypatch.setattr(verify, "build_root_system", forbidden)
    monkeypatch.setattr(verify, "make_group_config", forbidden)
    code, out, err = run(["verify", "--suite", "alovefixe", "--max-subalcoves", "100"])
    assert code == EXIT_RESOURCE and out == ""
    assert err == "resource cap: B3, q=5: 125 sub-alcoves exceed the cap 100\n"


def test_verify_small_suites():
    code, out, _ = run(["verify", "--suite", "table2"])
    assert code == EXIT_OK
    assert all(line.startswith("PASS") for line in out.strip().split("\n"))
    code, out, _ = run(["verify", "--suite", "table1", "--types", "A1,A2,E6"])
    assert code == EXIT_OK
    code, out, _ = run(
        ["verify", "--suite", "alovefixe", "--types", "A1,A2", "--max-q", "3"]
    )
    assert code == EXIT_OK
    assert "alcove-fixed/A2/q3/node1" in out


def test_d_odd_report_block():
    report = census_report(make_group_config("D3", "ad", 3))
    assert "d_odd_comparison" in report
    block = report["d_odd_comparison"]
    assert set(block) == {"rational_total", "closed_form", "agree", "q_mod_4"}


def _torus_and_multi_pair_classes(report):
    return any(not r.centralizer_components for r in report["classes"]) and any(
        len(r.f_action) > 1 for r in report["classes"]
    )


@pytest.mark.parametrize(
    "label,isogeny,q,twisted,triality,covers",
    [
        ("A2", "ad", 7, False, False, _torus_and_multi_pair_classes),
        ("A1", "ad", 2, False, False, lambda report: report["warnings"]),
        ("A3", "ad", 3, True, False, lambda report: report["twisted"]),
        ("D4", "ad", 2, True, True, lambda report: report["twist_order"] == 3),
        ("D4", [1], 3, False, False, lambda report: report["isogeny"] == "sub:1"),
        ("D3", "ad", 3, False, False, lambda report: "d_odd_comparison" in report),
        ("C3", "ad", 5, False, False, _torus_and_multi_pair_classes),
    ],
)
def test_census_writers_match_the_fraction_reference(
    label, isogeny, q, twisted, triality, covers
):
    config = make_group_config(label, isogeny, q, twisted=twisted, triality=triality)
    report = census_report(config)
    assert covers(report)
    payload = reference.report_payload(config.datum, report)
    # The writers stream: the JSON opening, one piece per record and the
    # header; the TSV column names and one line per record.
    pieces = list(cli.census_json(config.datum, report))
    assert len(pieces) == len(report["classes"]) + 2
    assert "".join(pieces) == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = list(cli.census_tsv(report))
    assert len(lines) == len(report["classes"]) + 1
    assert "".join(lines) == reference.payload_tsv(payload)


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_census_violation_writes_nothing(monkeypatch, fmt):
    # d_odd_comparison is the census report's last step
    def broken(*args):
        raise InvariantViolation("injected")

    monkeypatch.setattr(cli, "d_odd_comparison", broken)
    code, out, err = run(["census", "--type", "D3", "--q", "3", "--format", fmt])
    assert code == EXIT_INVARIANT and out == ""
    assert err == "invariant violation: injected\n"


def _fresh_modules(statement, modules):
    """The given modules loaded after ``statement`` runs in a fresh
    interpreter: pytest itself has imported dataclasses, fractions and
    argparse, so only a fresh one can check."""
    probe = f"import sys\n{statement}\nprint([m for m in {modules!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_cli_import_loads_neither_dataclasses_nor_the_oracle():
    # Importing cli compiles only the census path: no verify suites, no
    # argument parser, no oracle.
    modules = (
        "dataclasses", "fractions", "argparse", "brauercensus.oracle", "brauercensus.verify"
    )
    assert _fresh_modules("import brauercensus.cli", modules) == "[]"
    # A census, in either format, parses its flags but loads no suite.
    for fmt in ("json", "tsv"):
        argv = ["census", "--type", "A2", "--q", "3", "--format", fmt]
        census_run = f"from brauercensus import cli; cli.main({argv!r})"
        assert _fresh_modules(census_run, modules) == "['argparse']"
    # A suite loads verify, and only the oracle suite loads the oracle.
    suite_run = "from brauercensus import cli; cli.main(['verify', '--suite', 'theta'])"
    assert _fresh_modules(suite_run, modules) == "['argparse', 'brauercensus.verify']"


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--type", "A1", "--q", "3"],
        ["census", "--type", "E7", "--q", "3", "--format", "tsv"],
        ["verify", "--suite", "table2"],
        ["info", "--type", "E6"],
    ],
    ids=["census-json", "census-tsv", "verify", "info"],
)
def test_a_closed_stdout_exits_as_sigpipe_would(argv):
    # A reader that has gone is no usage error: the exit is 128 + SIGPIPE
    # and stderr stays empty, whether a write or the final flush meets the
    # closed pipe, with stdout buffered or not.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "brauercensus", *argv],
                stdout=write,
                stderr=subprocess.PIPE,
                env=dict(env, **unbuffered),
                timeout=60,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (EXIT_PIPE, b""), unbuffered


def test_verify_import_loads_no_cli():
    # the suites take the cap check from brauer and UsageError from
    # errors, so cli and verify do not import each other
    assert _fresh_modules("import brauercensus.verify", ("brauercensus.cli",)) == "[]"


def test_classical_dimension_table():
    assert classical_invariant_dimension(TypeLabel("A", 5), 3) == 2
    assert classical_invariant_dimension(TypeLabel("D", 5), 4) == 1
    assert classical_invariant_dimension(TypeLabel("D", 6), 6) == 3
    assert classical_invariant_dimension(TypeLabel("E", 7), 7) == 4
    with pytest.raises(ValueError, match="^E8 has no nontrivial minuscule node 1$"):
        classical_invariant_dimension(TypeLabel("E", 8), 1)


def test_readme_command_line_examples_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [
        shlex.split(line)[1:] for line in block.splitlines() if line.startswith("brauercensus ")
    ]
    assert len(commands) == 6
    for argv in commands:
        code, _, err = run(argv)
        assert code == EXIT_OK, f"{argv}: {err}"
