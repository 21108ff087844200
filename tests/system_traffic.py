"""The system's traffic, traced: run as a script in a fresh interpreter.

``python tests/system_traffic.py SRC`` imports ``lagrange_kit`` from the
directory SRC under ``sys.setprofile``, so that import-time registration
counts, and then runs what the system runs:

- ``run_all(14)``;
- the CLI's ``coeffs``, ``coeffs --R exp``, ``invert --R 0,1,1/3``, ``list``,
  every ``identity`` name and every ``oracle`` kind at their defaults, each
  in json, csv and pretty;
- one call of each routine that a ``perfbench`` job kind makes
  (``PERFBENCH_NAMES``).

It prints one JSON list of [file name, function name, first line] for each
code object of the package that was entered, and exits 1 if a CLI command
exits with a nonzero code.  It does not import the package at the top, so
that the profiler is installed first.
"""

from __future__ import annotations

import io
import json
import pathlib
import sys
from fractions import Fraction

# the names each perfbench job kind loads from the package, all of which
# ``_perfbench_calls`` calls or reads
PERFBENCH_NAMES = (
    "inversion_form_sweep", "agree", "reversion", "compose", "derivative_form",
    "cauchy_convolution_check", "explicit_coefficient", "explicit_from_inverse",
    "count_by_profile", "labeled_forest_profile_count", "count_labeled_forests",
    "count_degree_trees", "enumerate_labeled_trees", "prufer_encode",
    "prufer_decode", "cycle_lemma_count",
)


def _cli_commands(lk):
    """Every CLI command of the traffic, at its defaults."""
    commands = [["coeffs"], ["coeffs", "--R", "exp"], ["invert", "--R", "0,1,1/3"],
                ["list"]]
    commands += [["identity", name] for name in lk.identity_names()]
    commands += [["oracle", kind] for kind in lk.trees.ORACLE_KINDS]
    return commands


def _perfbench_calls(lk):
    """One call of each routine that a perfbench job kind makes."""
    t = lk.trees
    R = lk.PowerSeries([1, Fraction(1, 2), -1, 0, Fraction(2, 3)], 12)
    phi = lk.LaurentSeries([1, 2, Fraction(-1, 3)], -2, 12)
    assert all(fv.agree for fv in lk.inversion_form_sweep(phi, R, range(-3, 8)))
    f = lk.PowerSeries([0, 2, Fraction(1, 3), -1], 10)
    assert lk.compose(f, f.reversion()) == lk.PowerSeries([0, 1], 10)
    phi, psi, H = (
        lk.PowerSeries(c, 8) for c in ([1, 2], [1, 0, -1], [1, 1, Fraction(1, 2)])
    )
    assert lk.derivative_form(phi, H, 3, psi=psi).agree
    assert lk.cauchy_convolution_check(phi, psi, H, 3)
    # f = x (1 + f) is x / (1 - x); the inverse of x - x^2 is the Catalan series
    assert lk.explicit_coefficient([1, 1], 5, 2) == 4
    assert lk.explicit_from_inverse([1], 5, 1) == 14
    assert t.count_by_profile(4, 1, {0: 2, 1: 1, 2: 1}) == 3
    assert t.labeled_forest_profile_count(3, 1, {0: 1, 1: 2}) == 6
    assert t.count_labeled_forests(3, 1, (1, 1, 0)) == 2
    assert t.count_degree_trees(4, (2, 2, 1, 1)) == 2
    for edges in t.enumerate_labeled_trees(4):
        assert t.prufer_decode(t.prufer_encode(edges, 4)) == edges
    assert t.cycle_lemma_count((-1, -1, 1)) == 1


def main(src: str) -> int:
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.path.insert(0, src)
    sys.setprofile(profile)
    import lagrange_kit as lk
    import lagrange_kit.cli  # and with it lagrange_kit.trees

    lk.run_all(14)
    failed = []
    for command in _cli_commands(lk):
        for fmt in ("json", "csv", "pretty"):
            argv = command + ["--format", fmt]
            if lk.cli.main(argv, out=io.StringIO()) != 0:
                failed.append(" ".join(argv))
    _perfbench_calls(lk)
    sys.setprofile(None)

    package = pathlib.Path(lk.__file__).parent
    print(json.dumps(sorted(
        [pathlib.Path(code.co_filename).name, code.co_name, code.co_firstlineno]
        for code in entered if pathlib.Path(code.co_filename).parent == package
    )))
    for argv in failed:
        print("exit code not 0: lagrange-kit %s" % argv, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
