"""Benchmark child processes that are not command-line invocations.

    python3 perfbench/probe.py setup '<json list of configurations>'
        Imports brauercensus.cli and, for each [type, isogeny, q, twisted,
        triality], calls make_group_config and fundamental_group: all the
        census does before the sub-alcove search.  Prints nothing.

    python3 perfbench/probe.py oracle
        Compares the brute-force semisimple class count of PGL3(3) with
        the rational total of the A2 adjoint q=3 census and prints both.

Both need the package on PYTHONPATH; run.py sets it to the checkout's src.
"""

import json
import sys


def setup(configs) -> int:
    from brauercensus import cli

    for label, isogeny, q, twisted, triality in configs:
        config = cli.make_group_config(label, isogeny, q, twisted=twisted, triality=triality)
        cli.fundamental_group(config.datum)
    return 0


def oracle() -> int:
    from brauercensus import census
    from brauercensus import oracle as oracle_mod

    want = oracle_mod.semisimple_class_count(oracle_mod.SmallGroupSpec("PGL3", 3))
    got = census.counts(census.make_group_config("A2", "ad", 3)).rational_total
    print(json.dumps({"A2-ad-q3_rational_total": got, "PGL3-q3_semisimple_classes": want}))
    return 0 if got == want else 2


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"] and len(sys.argv) == 3:
        sys.exit(setup(json.loads(sys.argv[2])))
    if sys.argv[1:] == ["oracle"]:
        sys.exit(oracle())
    sys.exit(f"usage: {sys.argv[0]} setup '<json configurations>' | oracle")
