"""Run one benchmark invocation with spans at the package's layer boundaries.

    python3 perfbench/tracer.py cli <brauercensus argv...>
    python3 perfbench/tracer.py oracle

Nothing in the package changes: after importing it, this replaces the
module attributes through which the layers call each other (for example
``census.fixed_point`` or ``cli.enumerate_classes``) with wrappers that
record a span per call.  A span is [name, start, end, id, parent id,
nested], where nested marks a span opened inside another span of the
same name; the invocation's roots have parent 0.  Spans and counters stay
in memory.  The invocation's stdout is captured, and at the end one JSON
object goes to the real stdout: exit code, sha256 and size of the
captured stdout, spans and counters.  The tracer's own work is spanned
too (``trace.*``), so the spans cover the process from its first
statement to the final write.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [0]
        self.open_names = {}
        self.counters = {"brauer.subalcoves": 0}
        self.census_calls = []
        self._open_census = []
        self._seen_subalcoves = set()

    def add_root(self, name, start, end):
        """Record a span that was timed without a wrapper."""
        self.spans.append([name, start, end, len(self.spans) + 1, 0, False])

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so that each call records a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            rec = [name, 0.0, 0.0, len(self.spans) + 1, self.stack[-1], name in self.open_names]
            self.spans.append(rec)
            self.stack.append(rec[3])
            self.open_names[name] = self.open_names.get(name, 0) + 1
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self.stack.pop()
                self.open_names[name] -= 1
                if not self.open_names[name]:
                    del self.open_names[name]
            if after is not None:
                after(result)
            return result

        return wrapper

    # Counters, kept at the boundaries where the work happens.

    def census_enter(self, args, kwargs):
        self._open_census.append({"config": args[0], "fixed": set(), "keys": set()})

    def census_exit(self, records):
        call = self._open_census.pop()
        call["stable"] = len(records)
        self.census_calls.append(call)

    def fixed_point_exit(self, point):
        if self._open_census:
            self._open_census[-1]["fixed"].add(point.affine)

    def orbit_key_exit(self, key):
        if self._open_census:
            self._open_census[-1]["keys"].add(key)

    def subalcoves_exit(self, subalcoves):
        if id(subalcoves) not in self._seen_subalcoves:
            self._seen_subalcoves.add(id(subalcoves))
            self.counters["brauer.subalcoves"] += len(subalcoves)

    def finish_counters(self):
        """Per-census counts, computed after the invocation so that the
        vertex candidates cost no traced time."""
        from brauercensus.affine import affine_point, minuscule_nodes

        candidates = orbit_keys = stable = 0
        for call in self.census_calls:
            datum = call["config"].datum
            vertices = {
                affine_point(datum, datum.alcove_vertices[b]).affine
                for b in minuscule_nodes(datum)
            }
            candidates += len(call["fixed"] | vertices)
            orbit_keys += len(call["keys"])
            stable += call["stable"]
        self.counters.update(
            {
                "census.candidates": candidates,
                "census.orbit_keys": orbit_keys,
                "census.stable_classes": stable,
            }
        )


def install(tracer: Tracer) -> None:
    """Replace every package reference to each layer function by a wrapper."""
    from brauercensus import affine, brauer, census, cli, oracle, rootdata

    targets = (
        ("rootdata.build_root_system", rootdata, "build_root_system", None, None),
        ("rootdata.subdiagram_type", rootdata, "subdiagram_type", None, None),
        ("affine.fundamental_group", affine, "fundamental_group", None, None),
        ("affine.invariant_space", affine, "invariant_space", None, None),
        ("affine.fold_coords", affine, "fold_coords", None, None),
        ("brauer.enumerate_subalcoves", brauer, "enumerate_subalcoves", None,
         tracer.subalcoves_exit),
        ("brauer.fixed_point", brauer, "fixed_point", None, tracer.fixed_point_exit),
        ("brauer.theta", brauer, "theta", None, None),
        ("census.make_group_config", census, "make_group_config", None, None),
        ("census.enumerate_classes", census, "enumerate_classes", tracer.census_enter,
         tracer.census_exit),
        ("census.counts", census, "counts", None, None),
        ("census.d_odd_comparison", census, "d_odd_comparison", None, None),
        ("census.orbit_key", census, "orbit_key", None, tracer.orbit_key_exit),
        ("census.orbit_equal", census, "orbit_equal", None, None),
        ("census.f_stable", census, "f_stable", None, None),
        ("census.classify", census, "_classify", None, None),
        ("cli.census_report", cli, "census_report", None, None),
        ("cli.info_report", cli, "info_report", None, None),
        ("cli.serialize", cli, "census_tsv", None, None),
        ("oracle.semisimple_class_count", oracle, "semisimple_class_count", None, None),
    )
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "brauercensus"]
    for name, module, attr, before, after in targets:
        original = getattr(module, attr)
        wrapped = tracer.span(name, original, before, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    cli.SUITES = {k: tracer.span("cli.verify_suite", v) for k, v in cli.SUITES.items()}
    cli.json = types.SimpleNamespace(dumps=tracer.span("cli.serialize", json.dumps))


def main(argv) -> int:
    tracer = Tracer()
    real_stdout = sys.stdout
    tracer.add_root("trace.setup", T0, perf_counter())
    load = tracer.span("cli.import", functools.partial(__import__, "brauercensus.cli"))
    load()
    tracer.span("trace.install", install)(tracer)
    if argv[:1] == ["cli"]:
        from brauercensus import cli

        entry = tracer.span("cli.main", functools.partial(cli.main, argv[1:]))
    elif argv == ["oracle"]:
        import probe

        entry = tracer.span("bench.oracle_probe", probe.oracle)
    else:
        sys.exit(f"usage: {sys.argv[0]} cli <argv...> | oracle")
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = entry()
    finish = perf_counter()
    payload = captured.getvalue().encode()
    digest = hashlib.sha256(payload).hexdigest()
    tracer.finish_counters()
    tracer.add_root("trace.finish", finish, perf_counter())
    json.dump(
        {
            "exit": code,
            "sha256": digest,
            "stdout_bytes": len(payload),
            "counters": tracer.counters,
            "spans": tracer.spans,
        },
        real_stdout,
    )
    real_stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
