"""Seeded job lists for the three workloads, how to run one job, and how to
check its output.

A workload's job list is a few rounds; every round has the same strata
(kind of job, order, size of input) with fresh random inputs drawn from the
seed, so lists for different seeds cost about the same.  The strata are
interleaved evenly, so that any prefix of the list has about the same mix.

Known unbounded inputs at the commit that defined this benchmark are never
generated: ``oracle degree-trees --m 8`` (over 300 s), Prufer round trips at
m = 8 (21.8 s), ``oracle cycle-lemma --len 40``, ``identity jensen --n-max
100000``, dense rational R above order 30 in ``coeffs`` (order 45 takes
3.3 s, ``exp`` at 120 takes 239 s) and rational quadratic R at order 200
(8.1 s).  The bounds below (``MAX_*``) keep every job far from them.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import random
from fractions import Fraction
from itertools import product
from math import comb, factorial

# rounds in one pass over the seed's job list; a pass takes about 7 s (extract),
# 11 s (verify: run_all alone is 8.6 s) and 6 s (census) on a 2-core Xeon
ROUNDS = {"extract": 2, "verify": 1, "census": 1}
MAX_TREE_M = 7
MAX_ORDERED_N = 12
MAX_LABELED_N = 7
MAX_CYCLE_LEN = 9

# run_all(order=30) runs exactly these catalog names, in this order
IDENTITY_NAMES = (
    "abel", "catalan", "fc-polynomial", "finite-difference-lemma",
    "fuss-catalan", "fuss-narayana", "hirzebruch-residue", "jensen",
    "lacasse", "narayana", "p-l", "q-l", "r-m", "raney",
    "rational-expansion", "rothe-hagen", "schur-jabotinsky",
    "tree-function", "weighted-stirling",
)
TREE_FAMILIES = (
    "ordered_forest", "labeled_forest", "degree_trees", "prufer", "cycle_lemma",
)


class Job:
    """One closed-loop request: ``kind`` selects the runner, ``params`` are
    the generated inputs, ``tag`` groups jobs for per-layer metrics."""

    __slots__ = ("index", "kind", "params", "tag")

    def __init__(self, kind, params, tag):
        self.index = -1
        self.kind = kind
        self.params = params
        self.tag = tag


def _rat(rng):
    # the small rationals of the acceptance tests
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


# values of equal height (larger of |numerator|, denominator), so the bit
# growth of the coefficients, and so the cost, hardly depends on the draw
_HEIGHT_3 = tuple(sign * Fraction(v) for v in ("1/3", "2/3", "3/2", "3") for sign in (1, -1))


def _literal(coeffs) -> str:
    return ",".join(str(Fraction(c)) for c in coeffs)


def _interleave(strata):
    """Merge lists so that each keeps its share of every prefix."""
    keyed = []
    for rank, jobs in enumerate(strata):
        for i, job in enumerate(jobs):
            keyed.append(((i + 0.5) / len(jobs), rank, job))
    keyed.sort(key=lambda item: item[:2])
    return [job for _, _, job in keyed]


def _stratum(count, make):
    return [make() for _ in range(count)]


# -- extract: CLI coeffs / invert at orders 30, 60, 120, 200 -----------------------


def _coeffs_job(rng, order, series, k, r=None, preset=None):
    fmt = rng.choice(("json", "csv"))
    argv = ["coeffs", "--R=" + series, "--k", str(k), "--order", str(order),
            "--format", fmt]
    return Job("cli", {"argv": argv, "command": "coeffs", "order": order,
                       "k": k, "r": r, "preset": preset, "fmt": fmt},
               "coeffs.o%d" % order)


def _invert_job(rng, order, tail):
    fmt = rng.choice(("json", "csv"))
    coeffs = [0, 1] + tail
    argv = ["invert", "--R=" + _literal(coeffs), "--order", str(order),
            "--format", fmt]
    return Job("cli", {"argv": argv, "command": "invert", "order": order,
                       "tail": tail, "fmt": fmt}, "invert.o%d" % order)


def _extract_round(rng):
    # sizes and k are fixed per stratum and only coefficient values vary
    # with the seed, so that job lists of different seeds cost about the same
    def sparse_r(order, degree, k, unit=False):
        values = (Fraction(1), Fraction(-1)) if unit else _HEIGHT_3
        r = [rng.choice(values) for _ in range(degree + 1)]
        return _coeffs_job(rng, order, _literal(r), k, r=r)

    def preset(order, name, k):
        return _coeffs_job(rng, order, name, k, preset=name)

    def invert(order, terms):
        return _invert_job(rng, order, [rng.choice(_HEIGHT_3) for _ in range(terms)])

    return _interleave([
        [sparse_r(30, 6, 1), sparse_r(30, 6, 2)],
        [preset(30, "exp", 3)],
        [sparse_r(60, 2, 1), sparse_r(60, 2, 3)],
        [preset(60, "geom", 2)],
        [sparse_r(120, 1, 2), sparse_r(120, 2, 1, unit=True)],
        [sparse_r(200, 1, 1), sparse_r(200, 1, 3)],
        [preset(200, "one-plus-t-squared", 2)],
        _stratum(2, lambda: invert(30, 20)),
        _stratum(2, lambda: invert(60, 10)),
        [invert(120, 4)],
        _stratum(2, lambda: invert(200, 2)),
    ])


def _geom_coefficient(n, k):
    # f = x / (1 - f): [x^n] f^k = (k/n) C(2n - k - 1, n - 1)
    return Fraction(k * comb(2 * n - k - 1, n - 1), n) if n >= k else Fraction(0)


def _exp_coefficient(n, k):
    # f = x exp(f), the tree function: [x^n] f^k = (k/n) n^(n-k) / (n-k)!
    return Fraction(k * n ** (n - k), n * factorial(n - k)) if n >= k else Fraction(0)


def _parse_rows(text, fmt):
    if fmt == "json":
        rows = json.loads(text)["rows"]
        return [(int(row["n"]), Fraction(row["value"])) for row in rows]
    reader = csv.reader(io.StringIO(text))
    next(reader)
    return [(int(n), Fraction(v)) for n, v in reader]


def _check_cli(lk, job, output):
    rc, text = output
    p = job.params
    if rc != 0:
        return False, "exit code %d" % rc, 0
    rows = _parse_rows(text, p["fmt"])
    order = p["order"]
    if [n for n, _ in rows] != list(range(order)):
        return False, "rows do not cover 0..%d" % (order - 1), 0
    values = dict(rows)
    bits = max(_bits(v) for v in values.values())
    # spot check: the lowest, highest and one seeded middle coefficient
    rng = random.Random(hashlib.sha256(" ".join(p["argv"]).encode()).digest())
    top = order - 1
    if p["command"] == "invert":
        top = min(top, _inverse_probe_cap(len(p["tail"])))
    probes = sorted({1, top, rng.randint(2, top - 1)})
    for n in probes:
        if p["command"] == "coeffs":
            k = p["k"]
            if p["preset"] == "geom":
                want = _geom_coefficient(n, k)
            elif p["preset"] == "exp":
                want = _exp_coefficient(n, k)
            elif p["preset"] == "one-plus-t-squared":
                want = Fraction(lk.explicit_coefficient([1, 0, 1], n, k))
            else:
                want = Fraction(lk.explicit_coefficient(p["r"], n, k))
        else:
            want = Fraction(lk.explicit_from_inverse([-c for c in p["tail"]], n, 1))
        if values[n] != want:
            return False, "[x^%d] is %s, expected %s" % (n, values[n], want), bits
    return True, None, bits


def _inverse_probe_cap(tail_length):
    # explicit_from_inverse sums over weighted partitions of n - 1 into parts
    # up to the tail length; these caps keep one probe under about 0.1 s
    if tail_length <= 2:
        return 199
    return 120 if tail_length == 3 else 40 if tail_length <= 5 else 25


def output_digest(output) -> str:
    rc, text = output
    return hashlib.sha256(("%d\n%s" % (rc, text)).encode()).hexdigest()


# -- verify: acceptance-gate style checks ---------------------------------------


def _sweep_job(rng):
    order = 28
    r = [Fraction(1)] + [_rat(rng) for _ in range(4)]
    tail = [_rat(rng) for _ in range(8)]
    if not any(tail):
        tail[0] = Fraction(1)
    return Job("sweep", {"order": order, "R": r, "phi": tail,
                         "phi_min": rng.randint(-3, 0), "n": (-6, 21)}, "sweep")


def _reversion_job(rng):
    order = 25
    lead = rng.choice([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                       Fraction(-3, 2)])
    coeffs = [0, lead] + [_rat(rng) for _ in range(order - 2)]
    return Job("reversion", {"order": order, "f": coeffs}, "reversion")


def _shift_series(rng, order):
    return [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(order)]


def _derivative_job(rng):
    order = 14
    return Job("derivative", {"order": order, "phi": _shift_series(rng, order),
                              "psi": _shift_series(rng, order),
                              "H": _shift_series(rng, order), "z": 6}, "derivative")


def _cauchy_job(rng, n):
    order = 14
    return Job("cauchy", {"order": order, "phi": _shift_series(rng, order),
                          "psi": _shift_series(rng, order),
                          "H": _shift_series(rng, order), "n": n}, "cauchy")


def _verify_round(rng):
    # the 40 reversion round trips put the median job well inside one stratum
    return _interleave([
        [Job("identity", {"name": name, "order": 30}, "identity")
         for name in IDENTITY_NAMES],
        _stratum(8, lambda: _sweep_job(rng)),
        _stratum(40, lambda: _reversion_job(rng)),
        _stratum(5, lambda: _derivative_job(rng)),
        [_cauchy_job(rng, n % 6) for n in range(12)],
    ])


def _check_verify(lk, job, output):
    p = job.params
    if job.kind == "identity":
        return output.passed, output.first_failure, 0
    if job.kind == "sweep":
        bad = [fv.n for fv in output if not fv.agree]
        bits = max(_bits(v) for fv in output for v in
                   (fv.form_b, fv.form_c, fv.form_d, fv.direct, fv.ratio_x))
        return not bad, "forms disagree at n=%s" % bad if bad else None, bits
    if job.kind == "reversion":
        f, g = output
        x = lk.PowerSeries([0, 1], p["order"])
        ok = lk.compose(f, g) == x
        return ok, None if ok else "compose(f, g) != x", max(_bits(c) for c in g.coeffs)
    if job.kind == "derivative":
        bits = max(_bits(c) for s in output.phi_direct for c in s.coeffs)
        return output.agree, None if output.agree else "expansions disagree", bits
    return output is True, None if output is True else "convolution failed", 0


def _bits(value) -> int:
    value = Fraction(value)
    return max(value.numerator.bit_length(), value.denominator.bit_length())


# -- census: brute-force oracle queries against closed formulas -------------------


def _ordered_profiles(n, k):
    """Child-count profiles {i: n_i} with sum n_i = n and sum i n_i = n - k."""
    out = []

    def rec(i, vertices, weight, acc):
        if weight == 0:
            prof = dict(acc)
            if vertices:
                prof[0] = vertices
            out.append(prof)
            return
        if i > weight or vertices <= 0:
            return
        rec(i + 1, vertices, weight, acc)
        for c in range(1, min(weight // i, vertices) + 1):
            rec(i + 1, vertices - c, weight - c * i, acc + [(i, c)])

    rec(1, n, n - k, [])
    return out


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _degree_sequences(m):
    return [tuple(e + 1 for e in c) for c in _compositions(m - 2, m)]


def _census_round(rng):
    # Eight profile queries per (n, k), visited in criterion-8 order: the
    # first query of each builds the census, the rest hit the cache.  The 78
    # censuses overflow the 64-entry cache, so each pass rebuilds them all.
    ordered = [Job("ordered_forest", {"n": n, "k": k, "profile": prof}, "ordered_forest")
               for n in range(1, MAX_ORDERED_N + 1) for k in range(1, n + 1)
               for prof in rng.choices(_ordered_profiles(n, k), k=8)]
    labeled = []
    for n in range(1, MAX_LABELED_N + 1):
        # at n = 7 one query walks 10^5 forests; two fixed k keep the cost even
        for k in range(1, n + 1) if n < MAX_LABELED_N else (2, 5):
            labeled.append(Job("labeled_profile", {"n": n, "k": k, "profile":
                                                   rng.choice(_ordered_profiles(n, k))},
                               "labeled_forest"))
            child = rng.choice(list(_compositions(n - k, n)))
            labeled.append(Job("labeled_child", {"n": n, "k": k, "child": child},
                               "labeled_forest"))
    degree = []
    for m in range(2, MAX_TREE_M + 1):
        seqs = _degree_sequences(m)
        for degs in seqs if len(seqs) <= 40 else rng.sample(seqs, 10):
            degree.append(Job("degree_trees", {"m": m, "degrees": degs}, "degree_trees"))
    prufer = [Job("prufer", {"m": m, "direction": d}, "prufer")
              for m in range(2, MAX_TREE_M + 1) for d in ("trees", "codes")]
    cycle = [Job("cycle_lemma", {"alphabet": (-1, 0, 1, 2), "length": length}, "cycle_lemma")
             for length in range(1, MAX_CYCLE_LEN + 1)]
    return _interleave([ordered, labeled, degree, prufer, cycle])


def _run_census(lk, job):
    t = lk.trees
    p = job.params
    kind = job.kind
    if kind == "ordered_forest":
        return t.count_by_profile(p["n"], p["k"], dict(p["profile"]))
    if kind == "labeled_profile":
        return t.labeled_forest_profile_count(p["n"], p["k"], dict(p["profile"]))
    if kind == "labeled_child":
        return t.count_labeled_forests(p["n"], p["k"], p["child"])
    if kind == "degree_trees":
        return t.count_degree_trees(p["m"], p["degrees"])
    if kind == "prufer":
        m = p["m"]
        good = 0
        if p["direction"] == "trees":
            for edges in t.enumerate_labeled_trees(m):
                good += t.prufer_decode(t.prufer_encode(edges, m)) == edges
        else:
            for code in product(range(1, m + 1), repeat=m - 2):
                good += t.prufer_encode(t.prufer_decode(code, m), m).entries == code
        return good
    # cycle lemma: sequences with negative sum whose rotation count is -sum
    good = 0
    for seq in product(p["alphabet"], repeat=p["length"]):
        total = sum(seq)
        if total < 0 and t.cycle_lemma_count(seq) == -total:
            good += 1
    return good


def census_scan(job):
    """(items, formula): the size of the enumeration the query is defined
    over, computed from its parameters, and the closed-form answer."""
    p = job.params
    kind = job.kind
    if kind in ("ordered_forest", "labeled_profile", "labeled_child"):
        n, k = p["n"], p["k"]
        if kind == "ordered_forest":
            items = k * comb(2 * n - k - 1, n - 1) // n
            return items, _ordered_formula(n, k, p["profile"])
        items = comb(n - 1, k - 1) * n ** (n - k)
        if kind == "labeled_child":
            return items, _labeled_child_formula(n, k, p["child"])
        return items, _labeled_profile_formula(n, k, p["profile"])
    if kind == "degree_trees":
        m = p["m"]
        return m ** (m - 2), _multinomial(m - 2, [d - 1 for d in p["degrees"]])
    if kind == "prufer":
        m = p["m"]
        return m ** (m - 2), m ** (m - 2)
    alphabet, length = p["alphabet"], p["length"]
    return len(alphabet) ** length, _negative_sequences(alphabet, length)


@functools.lru_cache(maxsize=None)
def _negative_sequences(alphabet, length):
    return sum(1 for seq in product(alphabet, repeat=length) if sum(seq) < 0)


def _multinomial(n, parts):
    value = factorial(n)
    for part in parts:
        value //= factorial(part)
    return value


def _ordered_formula(n, k, profile):
    # (k/n) multinomial(n; n_0, n_1, ...)
    return k * _multinomial(n, profile.values()) // n


def _labeled_child_formula(n, k, child):
    # multinomial(n - 1; k - 1, e_1, ..., e_n)
    return _multinomial(n - 1, (k - 1,) + tuple(child))


def _labeled_profile_formula(n, k, profile):
    # (n-1)! / ((k-1)! prod (i!)^n_i) forests per labelling of the classes,
    # times multinomial(n; n_0, n_1, ...) labellings
    shape = Fraction(factorial(n - 1), factorial(k - 1))
    for i, c in profile.items():
        shape /= factorial(i) ** c
    return int(shape) * _multinomial(n, profile.values())


def _check_census(lk, job, output):
    items, formula = census_scan(job)
    ok = output == formula
    return ok, None if ok else "census %s != formula %s" % (output, formula), _bits(output)


# -- dispatch -------------------------------------------------------------------------


def _run_cli(lk, job):
    out = io.StringIO()
    rc = lk.cli.main(list(job.params["argv"]), out=out)
    return rc, out.getvalue()


def _run_verify(lk, job):
    p = job.params
    order = p.get("order")
    if job.kind == "identity":
        return lk.run_identity(p["name"], order=order)
    if job.kind == "sweep":
        R = lk.PowerSeries(p["R"], order)
        phi = lk.LaurentSeries(p["phi"], p["phi_min"], order)
        return lk.inversion_form_sweep(phi, R, range(*p["n"]))
    if job.kind == "reversion":
        f = lk.PowerSeries(p["f"], order)
        return f, f.reversion()
    phi, psi, H = (lk.PowerSeries(p[key], order) for key in ("phi", "psi", "H"))
    if job.kind == "derivative":
        return lk.derivative_form(phi, H, p["z"], psi=psi)
    return lk.cauchy_convolution_check(phi, psi, H, p["n"])


WORKLOADS = {
    "extract": (_extract_round, _run_cli, _check_cli),
    "verify": (_verify_round, _run_verify, _check_verify),
    "census": (_census_round, _run_census, _check_census),
}


def make_jobs(workload, seed):
    """The seed's fixed job list: ``ROUNDS[workload]`` rounds back to back."""
    make_round = WORKLOADS[workload][0]
    jobs = []
    for r in range(ROUNDS[workload]):
        jobs.extend(make_round(random.Random("%s:%d:%d" % (workload, seed, r))))
    for i, job in enumerate(jobs):
        job.index = i
    return jobs


def run_job(workload, lk, job):
    return WORKLOADS[workload][1](lk, job)


def check_job(workload, lk, job, output):
    """(ok, reason, largest numerator or denominator bit length seen)."""
    return WORKLOADS[workload][2](lk, job, output)
