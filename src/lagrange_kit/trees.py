"""Brute-force tree, forest, and code-sequence oracles.

Everything here counts by exhaustive enumeration so it can sit on the
opposite side of a test from the algebraic coefficient formulas.  Ordered
forests are counted through their reduced codes, labeled forests by a
pruned parent-function search, and unrooted trees by a backtracking
search over the edges of K_m, so no route shares machinery with the
series engine, and the tree search shares none with the Prufer codec
whose round trips it checks.

Each census is counted once per size, while its enumeration runs, and is
held in a module-level ``lru_cache``: ordered forests by profile per
(n, k), labeled forests by child counts and by profile per n, and trees by
degree sequence per m.  Every count query is then a lookup.  Each census
runs its own search, which packs a count vector into one integer key as
it assigns: the ordered search counts the code entries by value (a vertex
with entry e has e + 1 children, so the counts are the profile), the
labeled search counts the children of each vertex, and the tree search
the degree of each vertex.  The searches keep no forest: each counts its
objects by key in its innermost loop, the one that assigns the last free
code entry or the last vertex's parent, and turns each distinct key into
its map key once.  The forest and code objects (ordered forests, suffix
and reduced codes, the forest lists) are test fixtures, built by searches
of their own.  The trees on [m] are cached packed, 2(m - 1) one-byte
endpoints per tree, behind a read-only sequence of canonical edge tuples;
the Prufer round trips read them there.  Prufer encoding and decoding
take linear time, with a leaf pointer that only moves up, and check
their input in one pass; the encoder's leaf deletion is its tree check,
since m - 1 loop-free edges on [m] form a tree exactly when a leaf is
left at each deletion.

The case lists ``ordered_profiles`` and ``degree_sequences`` only name
cases, by ``scalars.weighted_compositions``; every count comes from a search.
Closed-form companions (``*_formula``) are provided next to each census
so callers can compare the two routes; the census functions never consult
the formulas.  ``oracle_rows(kind, ...)`` is the one entry that pairs them:
it checks every argument its kind reads before the first census runs
(``SizeLimit`` for a size out of range, past its enumeration limit, or
leaving no case to check; ``BadSequence`` for an alphabet entry below -1),
then yields (case, census, formula) rows.  The limits live here alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import factorial

from .errors import BadSequence, InvalidCode, NotATree, SelfCheckFailed, SizeLimit
from .scalars import multinomial, weighted_compositions

ORDERED_FOREST_LIMIT = 12
LABELED_TREE_LIMIT = 8
LABELED_FOREST_LIMIT = 7
CYCLE_LEMMA_LIMIT = 4 ** 10


def _within_limit(name: str, size: int, limit: int) -> None:
    if size > limit:
        raise SizeLimit("%s = %d exceeds the enumeration limit %d" % (name, size, limit))


def _digits(key: int, base: int, length: int) -> tuple:
    """The lowest length digits of key in the given base, lowest first:
    a count vector that a search packed into one integer."""
    out = []
    for _ in range(length):
        key, digit = divmod(key, base)
        out.append(digit)
    return tuple(out)


# -- ordered forests, counted through their reduced codes -------------------------


def _normalize_profile(profile) -> dict:
    if isinstance(profile, dict):
        items = profile.items()
    else:
        items = enumerate(profile)
    out = {}
    for i, count in items:
        i = int(i)
        count = int(count)
        if i < 0 or count < 0:
            raise ValueError("profile entries must be nonnegative")
        if count:
            out[i] = count
    return out


# holds every (n, k) with 1 <= k <= n <= ORDERED_FOREST_LIMIT: 78 keys
@lru_cache(maxsize=128)
def _ordered_profile_census(n: int, k: int) -> dict:
    """Sorted profile items -> number of ordered k-forests on n vertices
    with that profile, counted over the valid reduced codes of length n:
    entries >= -1, every partial sum negative, total -k.  A vertex with
    entry e has e + 1 children, so the search keys each code by its counts
    of entries by value: digit j, base n + 1, counts the entries equal to
    j - 1.  Each distinct key becomes a profile once."""
    _within_limit("n", n, ORDERED_FOREST_LIMIT)
    if k < 1:
        raise ValueError("k must be positive")
    by_key: dict = {}
    # weight[e + 1] is the key's unit for entry e
    weight = [(n + 1) ** j for j in range(n + 1)]
    last = n - 2

    def search(i: int, partial: int, key: int) -> None:
        # entry i may take e up to top: the partial sum stays negative, and
        # the n - i - 1 entries after it, each >= -1, can still reach -k
        top = min(-1, n - i - 1 - k) - partial
        if i < last:
            for e in range(-1, top + 1):
                search(i + 1, partial + e, key + weight[e + 1])
            return
        # the last free entry: the final entry is forced to -k minus the
        # partial sum, and top keeps it >= -1, so every e is one code
        forced = 1 - k - partial
        for e in range(-1, top + 1):
            code_key = key + weight[e + 1] + weight[forced - e]
            by_key[code_key] = by_key.get(code_key, 0) + 1

    if n == 1:
        # no free entry: the one entry is -k, valid for k = 1
        if k == 1:
            by_key[weight[0]] = 1
    elif n >= k:
        search(0, 0, 0)
    del search  # the closure refers to itself: free it without gc
    return {
        tuple((j, c) for j, c in enumerate(_digits(key, n + 1, n + 1)) if c): count
        for key, count in by_key.items()
    }


def count_by_profile(n: int, k: int, profile) -> int:
    """Number of ordered k-forests on n vertices in which exactly n_i
    vertices have i children, by exhaustive enumeration."""
    prof = _normalize_profile(profile)
    key = tuple(sorted(prof.items()))
    return _ordered_profile_census(n, k).get(key, 0)


def _profile_parts(n: int, profile: dict) -> tuple:
    top = max(profile) if profile else 0
    return tuple(profile.get(i, 0) for i in range(top + 1))


def ordered_forest_profile_formula(n: int, k: int, profile) -> int:
    """(k/n) multinomial(n; n_0, n_1, ...) when sum n_i = n and
    sum i n_i = n - k; zero otherwise."""
    prof = _normalize_profile(profile)
    if n < 1 or k < 1:
        return 0
    if sum(prof.values()) != n or sum(i * c for i, c in prof.items()) != n - k:
        return 0
    value = Fraction(k, n) * multinomial(n, _profile_parts(n, prof))
    if value.denominator != 1:
        raise SelfCheckFailed("profile count came out non-integer")
    return int(value)


def cycle_lemma_count(seq) -> int:
    """Number of cyclic rotations of the sequence with every partial sum
    negative.  Entries must be >= -1 with a negative total."""
    entries = list(seq)
    if any(not isinstance(e, int) or e < -1 for e in entries):
        raise BadSequence("entries must be integers >= -1")
    total = sum(entries)
    if total >= 0:
        raise BadSequence("sum must be negative, got %d" % total)
    n = len(entries)
    doubled = entries + entries
    count = 0
    for start in range(n):
        partial = 0
        # the n-th partial sum is the total, already found negative
        for e in doubled[start : start + n - 1]:
            partial += e
            if partial >= 0:
                break
        else:
            count += 1
    return count


# -- labeled trees via Prufer codes and a spanning-tree search --------------------


@dataclass(frozen=True)
class PruferCode:
    """Length m-2 sequence over [m]; a vertex of degree d appears d-1
    times.  ``prufer_decode`` checks the length and entries of each code it
    reads."""

    entries: tuple
    m: int


# Both codec directions delete the least-labeled leaf m - 2 times in linear
# time: a pointer `low` only moves up, and a leaf that appears below it when
# its last neighbor goes is the least leaf at once.


def prufer_encode(edges, m: int | None = None) -> PruferCode:
    """Repeatedly delete the least-labeled leaf, recording its neighbor.

    One pass over the edges checks their ends and builds each vertex's
    degree and the XOR of its neighbors' labels, so a leaf's one remaining
    neighbor is read off directly.  The deletion walk is the tree check:
    m - 1 loop-free edges on [m] form a tree exactly when a leaf is left at
    each of the m - 2 deletions.  A bad label anywhere is reported first,
    then a self loop, then a wrong count or a repeated edge, then a cycle."""
    edges = [tuple(e) for e in edges]
    if m is None:
        # only numbers compare with the labels 1..m: any other end is a bad label
        ends = [v for e in edges for v in e]
        numbers = [v for v in ends if isinstance(v, (int, float))]
        m = max(numbers, default=0)
        if len(numbers) < len(ends) or (m >= 2 and not isinstance(m, int)):
            raise NotATree("edges must join vertices in 1..%d" % m)
    if m < 2:
        raise NotATree("need at least two vertices")
    # degree[m + 1] = 1 ends the scan for a leaf past m
    degree = [0] * (m + 1) + [1]
    others = [0] * (m + 1)
    loop = False
    for e in edges:
        # an edge without two ends reads as the bad label 0
        u, v = e if len(e) == 2 else (0, 0)
        if not (isinstance(u, int) and isinstance(v, int) and 1 <= u <= m and 1 <= v <= m):
            raise NotATree("edges must join vertices in 1..%d" % m)
        if u == v:
            loop = True
        degree[u] += 1
        degree[v] += 1
        others[u] ^= v
        others[v] ^= u
    if loop:
        raise NotATree("self loops are not allowed")
    if len(edges) == m - 1:
        code = []
        low = 1
        while degree[low] != 1:
            low += 1
        leaf = low
        for _ in range(m - 2):
            if leaf > m:
                break
            neighbor = others[leaf]
            others[neighbor] ^= leaf
            degree[neighbor] -= 1
            code.append(neighbor)
            if degree[neighbor] == 1 and neighbor < low:
                leaf = neighbor
            else:
                low += 1
                while degree[low] != 1:
                    low += 1
                leaf = low
        else:
            return PruferCode(tuple(code), m)
        # out of leaves: the edges repeat one or close a cycle
        if len(set(map(frozenset, edges))) == m - 1:
            raise NotATree("edge set is not connected")
    raise NotATree("a tree on %d vertices has exactly %d distinct edges" % (m, m - 1))


def prufer_decode(code, m: int | None = None) -> tuple:
    """Inverse of prufer_encode; returns the canonical sorted edge tuple."""
    if isinstance(code, PruferCode):
        entries = code.entries
        if m is None:
            m = code.m
    else:
        entries = tuple(code)
    if m is None:
        m = len(entries) + 2
    if m < 2 or len(entries) != m - 2:
        raise InvalidCode("code length must be m - 2")
    degree = [1] * (m + 1)
    for e in entries:
        if not (isinstance(e, int) and 1 <= e <= m):
            raise InvalidCode("entries must lie in 1..%d" % m)
        degree[e] += 1
    edges = []
    low = 1
    while degree[low] != 1:
        low += 1
    leaf = low
    for neighbor in entries:
        edges.append((leaf, neighbor) if leaf < neighbor else (neighbor, leaf))
        degree[neighbor] -= 1
        if degree[neighbor] == 1 and neighbor < low:
            leaf = neighbor
        else:
            low += 1
            while degree[low] != 1:
                low += 1
            leaf = low
    # the last two vertices are the least leaf and m
    edges.append((leaf, m))
    return tuple(sorted(edges))


class _PackedTrees(Sequence):
    """Trees on [m] held as one bytes object, 2(m - 1) endpoints per tree
    (a label fits in a byte for any m up to LABELED_TREE_LIMIT); items are
    canonical edge tuples, rebuilt on access."""

    __slots__ = ("_data", "_edges")

    def __init__(self, data: bytes, m: int):
        self._data = data
        self._edges = m - 1

    def __len__(self) -> int:
        return len(self._data) // (2 * self._edges)

    def __getitem__(self, index: int) -> tuple:
        count = len(self)
        if not -count <= index < count:
            raise IndexError("tree index out of range")
        width = 2 * self._edges
        start = (index % count) * width
        ends = iter(self._data[start : start + width])
        return tuple(zip(ends, ends))

    def __iter__(self):
        ends = iter(self._data)
        return zip(*[zip(ends, ends)] * self._edges)


@lru_cache(maxsize=16)
def _labeled_tree_census(m: int) -> tuple:
    """The trees on [m], packed, and the map degree sequence -> number of
    trees, both from one backtracking search over the edges of K_m in
    lexicographic order (Read and Tarjan, Networks 1975).  An edge that
    closes a cycle is skipped, and a branch is dropped as soon as its
    edges and the ones after them can no longer span.  Each tree comes out
    as a sorted (m-1)-subset of the sorted edge list, and the trees in
    lexicographic order."""
    _within_limit("m", m, LABELED_TREE_LIMIT)
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return ((),), {(0,): 1}
    edges = list(combinations(range(1, m + 1), 2))
    n_edges = len(edges)
    # the edges from (a, b) on join a to each of b..m and every pair above
    # a, so a branch can still span iff each component has a vertex >= a.
    # Only the component of a - 1 can newly fail, at the first edge
    # (a, a + 1) of a's run: closes[i] is a - 1 there and 0 elsewhere
    closes = [p if p != a else 0 for (p, _), (a, _) in zip([(0, 0)] + edges, edges)]
    # a degree sequence is packed base m, a degree being at most m - 1
    weight = [m ** (u - 1) + m ** (v - 1) for u, v in edges]
    # a component is a bitmask of its vertices; comp[v] is v's component
    members = [[v for v in range(1, m + 1) if mask >> v & 1] for mask in range(1 << (m + 1))]
    comp = [1 << v for v in range(m + 1)]
    last = m - 2
    chosen = bytearray(2 * (m - 1))
    packed = bytearray()
    by_key: dict = {}

    def search(depth: int, start: int, key: int) -> None:
        for i in range(start, n_edges - last + depth):
            a = closes[i]
            if a and not comp[a] >> (a + 1):
                return
            u, v = edges[i]
            cu = comp[u]
            if cu >> v & 1:
                continue
            chosen[2 * depth] = u
            chosen[2 * depth + 1] = v
            if depth == last:
                packed.extend(chosen)
                tree_key = key + weight[i]
                by_key[tree_key] = by_key.get(tree_key, 0) + 1
                continue
            cv = comp[v]
            merged = cu | cv
            for w in members[merged]:
                comp[w] = merged
            search(depth + 1, i + 1, key + weight[i])
            for w in members[cu]:
                comp[w] = cu
            for w in members[cv]:
                comp[w] = cv

    search(0, 0, 0)
    del search  # the closure refers to itself: free it without gc
    census = {_digits(key, m, m): count for key, count in by_key.items()}
    return _PackedTrees(bytes(packed), m), census


def enumerate_labeled_trees(m: int):
    """All unrooted trees on [m] as canonical edge tuples, in lexicographic
    order; held packed, as a read-only sequence, for m >= 2."""
    return _labeled_tree_census(m)[0]


def _degree_census(m: int) -> dict:
    """Degree sequence -> number of trees on [m] with those degrees."""
    return _labeled_tree_census(m)[1]


def count_degree_trees(m: int, degrees) -> int:
    """Number of trees on [m] where vertex i has degree degrees[i-1], by
    exhaustive enumeration."""
    degrees = tuple(degrees)
    if len(degrees) != m:
        raise ValueError("need one degree per vertex")
    return _degree_census(m).get(degrees, 0)


def degree_trees_formula(m: int, degrees) -> int:
    """multinomial(m-2; d_1 - 1, ..., d_m - 1) when every d_i >= 1 and
    sum d_i = 2(m-1); zero otherwise."""
    degrees = tuple(degrees)
    if len(degrees) != m:
        raise ValueError("need one degree per vertex")
    if m < 2:
        raise ValueError("m must be at least 2")
    if any(d < 1 for d in degrees) or sum(degrees) != 2 * (m - 1):
        return 0
    return multinomial(m - 2, tuple(d - 1 for d in degrees))


def degree_sequences(m: int):
    """Every degree sequence (d_1, ..., d_m) with each d_i >= 1 and
    sum d_i = 2(m-1), in lexicographic order; the d_i - 1 sum to m - 2."""
    for excess in weighted_compositions((1,) * m, m - 2):
        yield tuple(e + 1 for e in excess)


# -- labeled rooted forests -------------------------------------------------------


@lru_cache(maxsize=None)
def _labeled_census(n: int) -> tuple:
    """Two maps over the rooted forests on [n]: (k,) + child counts ->
    number of forests, and (k, sorted profile items) -> number of forests.
    The search assigns each vertex i a parent, 0 for a root, that does not
    lead back to i, and keys each forest by its child counts: digit v,
    base n + 1, counts the children of v, so digit 0 counts the roots.
    Each distinct key becomes both map keys once; a forest's profile is
    the multiset of its child counts."""
    _within_limit("n", n, LABELED_FOREST_LIMIT)
    if n < 1:
        raise ValueError("n must be positive")
    by_key: dict = {}
    # parent[v] for the vertices v < n; the last vertex's is never read
    parent = [0] * n
    weight = [(n + 1) ** v for v in range(n + 1)]

    def search(i: int, key: int) -> None:
        if i == n:
            # the last vertex's choices, counted in one loop: a chain from
            # p < n ends at a root (0) or at n, closing a cycle
            for p in range(n):
                v = p
                while 0 < v < n:
                    v = parent[v]
                if not v:
                    forest_key = key + weight[p]
                    by_key[forest_key] = by_key.get(forest_key, 0) + 1
            return
        for p in range(n + 1):
            # the chain from p through the parents assigned so far ends at a
            # root, at a vertex after i, or at i itself, closing a cycle
            v = p
            while 0 < v < i:
                v = parent[v]
            if v != i:
                parent[i] = p
                search(i + 1, key + weight[p])

    search(1, 0)
    del search  # the closure refers to itself: free it without gc
    by_child: dict = {}
    by_profile: dict = {}
    for key, count in by_key.items():
        digits = _digits(key, n + 1, n + 1)
        by_child[digits] = count
        profile: dict = {}
        for c in digits[1:]:
            profile[c] = profile.get(c, 0) + 1
        pkey = (digits[0], tuple(sorted(profile.items())))
        by_profile[pkey] = by_profile.get(pkey, 0) + count
    return by_child, by_profile


def count_labeled_forests(n: int, k: int, child_counts) -> int:
    """Number of k-root forests on [n] where vertex i has exactly
    child_counts[i-1] children, by exhaustive enumeration."""
    child_counts = tuple(child_counts)
    if len(child_counts) != n:
        raise ValueError("need one child count per vertex")
    if k < 1:
        raise ValueError("k must be positive")
    return _labeled_census(n)[0].get((k,) + child_counts, 0)


def labeled_forest_child_formula(n: int, k: int, child_counts) -> int:
    """multinomial(n-1; k-1, e_1, ..., e_n) when sum e_i = n - k; zero
    otherwise."""
    child_counts = tuple(child_counts)
    if len(child_counts) != n:
        raise ValueError("need one child count per vertex")
    if k < 1 or any(e < 0 for e in child_counts) or sum(child_counts) != n - k:
        return 0
    return multinomial(n - 1, (k - 1,) + child_counts)


def labeled_forest_profile_count(n: int, k: int, profile) -> int:
    """Number of k-root forests on [n] with n_i vertices having i
    children, by exhaustive enumeration."""
    prof = _normalize_profile(profile)
    if k < 1:
        raise ValueError("k must be positive")
    return _labeled_census(n)[1].get((k, tuple(sorted(prof.items()))), 0)


def labeled_forest_shape_formula(n: int, k: int, profile) -> int:
    """(n-1)! / ((k-1)! prod_i (i!)^(n_i)): forests where the n_i
    vertices with i children carry the fixed labels 1..n_i."""
    prof = _normalize_profile(profile)
    if n < 1 or k < 1:
        return 0
    if sum(prof.values()) != n or sum(i * c for i, c in prof.items()) != n - k:
        return 0
    den = factorial(k - 1)
    for i, c in prof.items():
        den *= factorial(i) ** c
    value = Fraction(factorial(n - 1), den)
    if value.denominator != 1:
        raise SelfCheckFailed("shape count came out non-integer")
    return int(value)


def labeled_forest_profile_formula(n: int, k: int, profile) -> int:
    """Shape count times the multinomial placing the child-count classes
    on [n]."""
    prof = _normalize_profile(profile)
    shape = labeled_forest_shape_formula(n, k, prof)
    if shape == 0:
        return 0
    return shape * multinomial(n, _profile_parts(n, prof))


def ordered_profiles(n: int, k: int) -> list:
    """All child-count profiles satisfying sum n_i = n and
    sum i n_i = n - k, as sorted (i, n_i) tuples of the nonzero n_i."""
    if n < 1 or k < 1 or n < k:
        return []
    out = []
    for tail in weighted_compositions(range(n - k, 0, -1), n - k):
        counts = (n - sum(tail), *reversed(tail))
        if counts[0] >= 0:
            out.append(tuple((i, c) for i, c in enumerate(counts) if c))
    return sorted(out)


# -- the oracle: census rows beside their closed formulas --------------------------

ORACLE_KINDS = (
    "ordered-forest",
    "labeled-forest",
    "prufer",
    "cycle-lemma",
    "degree-trees",
)


def oracle_rows(kind: str, *, n: int, k: int, m: int, alphabet, length: int):
    """Yield (case, census, formula) rows for one oracle kind.

    The forest kinds read n and k and compare each profile's census with
    its formula; prufer and degree-trees read m; cycle-lemma reads the
    alphabet and the longest length.  Every argument the kind reads is
    checked before the first census runs: a size out of range, past its
    enumeration limit, or leaving no case to check raises SizeLimit, and
    an alphabet entry below -1 raises BadSequence."""
    if kind in ("ordered-forest", "labeled-forest"):
        if n < 1 or k < 1:
            raise SizeLimit("n and k must be positive")
        ordered = kind == "ordered-forest"
        _within_limit("n", n, ORDERED_FOREST_LIMIT if ordered else LABELED_FOREST_LIMIT)
        if k > n:
            raise SizeLimit("no case to check: k = %d trees exceed n = %d vertices" % (k, n))
        # looked up when the rows run, so a patched census is the one read
        if ordered:
            census, formula = count_by_profile, ordered_forest_profile_formula
        else:
            census, formula = labeled_forest_profile_count, labeled_forest_profile_formula
        for profile in ordered_profiles(n, k):
            label = " ".join("n%d=%d" % item for item in profile)
            yield label, census(n, k, dict(profile)), formula(n, k, dict(profile))
    elif kind == "cycle-lemma":
        if not alphabet or any(not isinstance(e, int) or e < -1 for e in alphabet):
            raise BadSequence("alphabet entries must be integers >= -1")
        if length < 1:
            raise SizeLimit("len must be positive")
        # a one-entry alphabet still costs O(len^2) per sequence, so it is
        # counted as two entries; 2 ** cap already exceeds the limit, so
        # capping the exponent keeps the check cheap for any length
        base = max(len(alphabet), 2)
        if base ** min(length, CYCLE_LEMMA_LIMIT.bit_length()) > CYCLE_LEMMA_LIMIT:
            raise SizeLimit(
                "%d entries at length %d exceed the enumeration limit %d"
                % (len(alphabet), length, CYCLE_LEMMA_LIMIT)
            )
        if -1 not in alphabet:
            raise SizeLimit("no case to check: without -1 no sequence has a negative sum")
        for size in range(1, length + 1):
            cases = agree = 0
            for seq in product(alphabet, repeat=size):
                total = sum(seq)
                if total < 0:
                    cases += 1
                    agree += cycle_lemma_count(seq) == -total
            yield "length %d" % size, agree, cases
    elif kind in ("prufer", "degree-trees"):
        if m < 2:
            raise SizeLimit("m must be at least 2")
        _within_limit("m", m, LABELED_TREE_LIMIT)
        if kind == "prufer":
            forest = enumerate_labeled_trees(m)
            yield "trees on [%d]" % m, len(forest), m ** (m - 2)
            good = sum(prufer_decode(prufer_encode(edges, m)) == edges for edges in forest)
            yield "encode-decode round trips", good, len(forest)
            good = sum(
                prufer_encode(prufer_decode(code, m), m).entries == code
                for code in product(range(1, m + 1), repeat=m - 2)
            )
            yield "decode-encode round trips", good, m ** (m - 2)
            return
        total_census = total_formula = 0
        for degs in degree_sequences(m):
            census, formula = count_degree_trees(m, degs), degree_trees_formula(m, degs)
            total_census += census
            total_formula += formula
            yield "d=%s" % ",".join(map(str, degs)), census, formula
        yield "total (Cayley)", total_census, m ** (m - 2)
        yield "formula total", total_formula, m ** (m - 2)
    else:
        raise ValueError("unknown oracle kind %r" % kind)
