"""Exhaustive oracle checks: codes, trees, forests, and their counts."""

import ast
import collections
import functools
import gc
import inspect
import itertools
import math
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrange_kit import trees
from lagrange_kit.errors import (
    BadSequence,
    InvalidCode,
    NotATree,
    SizeLimit,
)

from forest_reference import (
    CodeSequence,
    decode_reduced,
    enumerate_labeled_forests,
    enumerate_ordered_forests,
    reduced_code,
    suffix_code,
)


class TestCodes:
    def test_worked_forest_example(self):
        forest = decode_reduced([-1, -1, 1, -1, 0], 2)
        assert forest.k == 2
        assert forest.n == 5
        assert suffix_code(forest).entries == (0, 0, 2, 0, 1)
        assert reduced_code(forest).entries == (-1, -1, 1, -1, 0)
        # first tree: root with two leaves; second: root with one leaf
        assert forest.trees == (((), ()), ((),))

    def test_single_vertex(self):
        forest = decode_reduced([-1], 1)
        assert forest.trees == ((),)
        assert suffix_code(forest).entries == (0,)

    def test_code_kind_conversion(self):
        code = CodeSequence((0, 0, 2, 0, 1), "suffix")
        assert code.to_reduced().entries == (-1, -1, 1, -1, 0)
        assert code.to_reduced().to_suffix().entries == code.entries

    def test_round_trip_exhaustive(self):
        for n in range(1, 8):
            for k in range(1, 4):
                for forest in enumerate_ordered_forests(n, k):
                    code = reduced_code(forest)
                    assert decode_reduced(code, k) == forest

    def test_codes_are_exactly_the_lemma_sequences(self):
        # every sequence passing the sum/partial-sum conditions decodes,
        # every other sequence raises
        n, k = 5, 2
        seen = 0
        for entries in itertools.product(range(-1, n), repeat=n):
            partials = list(itertools.accumulate(entries))
            valid = partials[-1] == -k and all(p < 0 for p in partials)
            if valid:
                decode_reduced(entries, k)
                seen += 1
            else:
                with pytest.raises(InvalidCode):
                    decode_reduced(entries, k)
        assert seen == len(enumerate_ordered_forests(n, k))

    def test_invalid_codes(self):
        with pytest.raises(InvalidCode):
            decode_reduced([-2], 1)
        with pytest.raises(InvalidCode):
            decode_reduced([0, -1], 1)  # first partial sum is 0
        with pytest.raises(InvalidCode):
            decode_reduced([-1, -1], 1)  # sums to -2
        with pytest.raises(ValueError):
            decode_reduced([-1], 0)


class TestOrderedForests:
    def test_catalan_totals(self):
        # k = 1 gives ordered trees, counted by Catalan numbers
        catalan = [1, 1, 2, 5, 14, 42, 132]
        for n in range(1, 8):
            assert len(enumerate_ordered_forests(n, 1)) == catalan[n - 1]

    def test_census_equals_formula(self):
        for n in range(1, 8):
            for k in range(1, 4):
                for profile in trees.ordered_profiles(n, k):
                    want = trees.ordered_forest_profile_formula(n, k, dict(profile))
                    assert trees.count_by_profile(n, k, dict(profile)) == want

    def test_profile_lists_are_complete(self):
        # profiles outside the generated list never occur
        for n in range(1, 7):
            for k in range(1, 4):
                allowed = set(trees.ordered_profiles(n, k))
                for forest in enumerate_ordered_forests(n, k):
                    key = tuple(sorted(forest.profile().items()))
                    assert key in allowed

    def test_three_vertex_tree_profile(self):
        assert trees.count_by_profile(3, 1, {0: 2, 2: 1}) == 1

    def test_condition_violation_gives_zero(self):
        assert trees.ordered_forest_profile_formula(4, 1, {0: 4}) == 0
        assert trees.count_by_profile(4, 1, {0: 4}) == 0

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            trees.count_by_profile(13, 1, {})


def _negative_sum(seq):
    # lower the greatest entry to -1 until the sum is negative
    seq = list(seq)
    while sum(seq) >= 0:
        seq[seq.index(max(seq))] = -1
    return seq


class TestCycleLemma:
    def test_trivial(self):
        assert trees.cycle_lemma_count([-1]) == 1

    def test_worked_sequence(self):
        assert trees.cycle_lemma_count([-1, -1, 1, -1, 0]) == 2

    def test_exhaustive(self):
        for length in range(1, 8):
            for seq in itertools.product((-1, 0, 1, 2), repeat=length):
                total = sum(seq)
                if total < 0:
                    assert trees.cycle_lemma_count(seq) == -total

    def test_bad_sequences(self):
        # the entries are checked before the sum
        for seq, message in [
            ([-1, 1.0, -1], "entries must be integers >= -1"),  # a float entry
            ([-2, 1], "entries must be integers >= -1"),  # entry below -1
            ([-2, 3, 3], "entries must be integers >= -1"),  # below -1, sum >= 0
            ([1, -1], "sum must be negative, got 0"),
            ([3, -1, -1], "sum must be negative, got 1"),
        ]:
            with pytest.raises(BadSequence, match="^%s$" % re.escape(message)):
                trees.cycle_lemma_count(seq)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.integers(-1, 3), min_size=1, max_size=12).map(_negative_sum))
    def test_count_equals_the_rotations_with_negative_partial_sums(self, seq):
        want = sum(
            all(p < 0 for p in itertools.accumulate(seq[i:] + seq[:i]))
            for i in range(len(seq))
        )
        assert trees.cycle_lemma_count(seq) == want


class TestPrufer:
    def test_path_example(self):
        assert trees.prufer_encode([(1, 2), (2, 3)]).entries == (2,)

    def test_star_example(self):
        assert trees.prufer_encode([(1, 4), (2, 4), (3, 4)]).entries == (4, 4)

    def test_round_trips_and_totals(self):
        for m in range(2, 7):
            all_trees = trees.enumerate_labeled_trees(m)
            assert len(all_trees) == m ** (m - 2)
            for edges in all_trees:
                code = trees.prufer_encode(edges, m)
                assert trees.prufer_decode(code) == edges
            for code in itertools.product(range(1, m + 1), repeat=m - 2):
                edges = trees.prufer_decode(code, m)
                assert trees.prufer_encode(edges, m).entries == tuple(code)

    def test_degree_property(self):
        for m in range(2, 7):
            for edges in trees.enumerate_labeled_trees(m):
                degree = {v: 0 for v in range(1, m + 1)}
                for u, v in edges:
                    degree[u] += 1
                    degree[v] += 1
                code = trees.prufer_encode(edges, m).entries
                for v in range(1, m + 1):
                    assert code.count(v) == degree[v] - 1

    def test_not_a_tree(self):
        with pytest.raises(NotATree):
            trees.prufer_encode([(1, 2), (1, 2)], 3)  # duplicate edge
        with pytest.raises(NotATree):
            trees.prufer_encode([(1, 2), (3, 4)], 4)  # disconnected
        with pytest.raises(NotATree):
            trees.prufer_encode([(1, 1), (2, 3)], 3)  # self loop
        with pytest.raises(NotATree):
            trees.prufer_encode([(1, 2), (2, 3), (1, 3)], 3)  # cycle
        # with m inferred, a label that is no number is bad, not a TypeError
        for edges in ([("a", "b")], [("a", 1), (1, 2)], [(None, 1)], [("x",)]):
            with pytest.raises(NotATree, match="edges must join vertices"):
                trees.prufer_encode(edges)

    def test_bad_codes(self):
        with pytest.raises(InvalidCode):
            trees.prufer_decode((0,), 3)
        with pytest.raises(InvalidCode):
            trees.prufer_decode((1, 2), 3)

    def test_decode_checks_a_hand_built_code(self):
        # a PruferCode is not checked when built: prufer_decode checks it
        with pytest.raises(InvalidCode, match="entries must lie in 1..4"):
            trees.prufer_decode(trees.PruferCode((1, 5), 4))
        with pytest.raises(InvalidCode, match="code length must be m - 2"):
            trees.prufer_decode(trees.PruferCode((1,), 4))


class TestDegreeTrees:
    def test_star(self):
        assert trees.count_degree_trees(4, (1, 1, 1, 3)) == 1
        assert trees.degree_trees_formula(4, (1, 1, 1, 3)) == 1

    def test_census_equals_formula(self):
        for m in range(2, 7):
            for degs in itertools.product(range(1, m), repeat=m):
                if sum(degs) == 2 * (m - 1):
                    want = trees.degree_trees_formula(m, degs)
                    assert trees.count_degree_trees(m, degs) == want

    def test_wrong_degree_sum_is_zero(self):
        assert trees.degree_trees_formula(4, (1, 1, 1, 1)) == 0
        assert trees.count_degree_trees(4, (1, 1, 1, 1)) == 0

    def test_cayley_consistency(self):
        for m in range(2, 8):
            total = 0
            for degs in itertools.product(range(1, m), repeat=m):
                if sum(degs) == 2 * (m - 1):
                    total += trees.degree_trees_formula(m, degs)
            assert total == m ** (m - 2)

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            trees.enumerate_labeled_trees(9)


class TestLabeledForests:
    def test_forest_totals(self):
        # rooted forests on [n] are counted by (n+1)^(n-1)
        for n in range(1, 7):
            total = sum(
                len(enumerate_labeled_forests(n, k)) for k in range(1, n + 1)
            )
            assert total == (n + 1) ** (n - 1)

    def test_two_vertex_example(self):
        assert trees.labeled_forest_profile_count(2, 1, {0: 1, 1: 1}) == 2
        assert trees.labeled_forest_profile_formula(2, 1, {0: 1, 1: 1}) == 2

    def test_child_count_example(self):
        assert trees.count_labeled_forests(3, 1, (2, 0, 0)) == 1
        assert trees.labeled_forest_child_formula(3, 1, (2, 0, 0)) == 1

    def test_all_roots_forest(self):
        for n in range(1, 6):
            assert trees.labeled_forest_profile_count(n, n, {0: n}) == 1
            assert trees.labeled_forest_profile_formula(n, n, {0: n}) == 1

    def test_child_census_equals_formula(self):
        for n in range(1, 6):
            for k in range(1, n + 1):
                for e in itertools.product(range(n), repeat=n):
                    if sum(e) == n - k:
                        want = trees.labeled_forest_child_formula(n, k, e)
                        assert trees.count_labeled_forests(n, k, e) == want

    def test_profile_census_equals_formula(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                for profile in trees.ordered_profiles(n, k):
                    want = trees.labeled_forest_profile_formula(n, k, dict(profile))
                    got = trees.labeled_forest_profile_count(n, k, dict(profile))
                    assert got == want

    def test_shape_quotient(self):
        # the full count factors through the class-placement multinomial
        from lagrange_kit.scalars import multinomial

        for n in range(1, 7):
            for k in range(1, n + 1):
                for profile in trees.ordered_profiles(n, k):
                    prof = dict(profile)
                    full = trees.labeled_forest_profile_formula(n, k, prof)
                    shape = trees.labeled_forest_shape_formula(n, k, prof)
                    parts = tuple(
                        prof.get(i, 0) for i in range(max(prof) + 1 if prof else 1)
                    )
                    assert full == shape * multinomial(n, parts)

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            trees.labeled_forest_profile_count(8, 1, {})


class TestCensusContract:
    """Every count query checks its arguments eagerly and reads 0 for
    keys no object has."""

    def test_size_limits(self):
        with pytest.raises(SizeLimit):
            trees.count_by_profile(13, 1, {0: 7, 2: 6})
        with pytest.raises(SizeLimit):
            trees.count_labeled_forests(8, 1, (7, 0, 0, 0, 0, 0, 0, 0))
        with pytest.raises(SizeLimit):
            trees.labeled_forest_profile_count(8, 1, {0: 7, 7: 1})
        with pytest.raises(SizeLimit):
            trees.count_degree_trees(9, (1,) * 8 + (8,))

    def test_nonpositive_k(self):
        for k in (0, -1):
            with pytest.raises(ValueError):
                trees.count_by_profile(3, k, {0: 3})
            with pytest.raises(ValueError):
                trees.count_labeled_forests(3, k, (0, 0, 0))
            with pytest.raises(ValueError):
                trees.labeled_forest_profile_count(3, k, {0: 3})

    def test_nonpositive_n_for_labeled_forests(self):
        with pytest.raises(ValueError):
            trees.count_labeled_forests(0, 1, ())
        with pytest.raises(ValueError):
            trees.labeled_forest_profile_count(0, 1, {})

    def test_wrong_length_vectors(self):
        with pytest.raises(ValueError):
            trees.count_labeled_forests(3, 1, (2, 0))
        with pytest.raises(ValueError):
            trees.count_degree_trees(4, (1, 1, 4))

    def test_more_roots_than_vertices(self):
        assert trees.count_by_profile(2, 3, {0: 2}) == 0
        assert trees.count_labeled_forests(2, 3, (0, 0)) == 0
        assert trees.labeled_forest_profile_count(2, 3, {0: 2}) == 0

    def test_profiles_with_wrong_totals(self):
        # five vertices listed for a 4-vertex forest; weight 2 for n - k = 3
        assert trees.count_by_profile(4, 1, {0: 4, 1: 1}) == 0
        assert trees.count_by_profile(4, 1, {0: 2, 1: 2}) == 0
        assert trees.labeled_forest_profile_count(4, 1, {0: 4, 1: 1}) == 0
        assert trees.labeled_forest_profile_count(4, 1, {0: 2, 1: 2}) == 0
        assert trees.count_labeled_forests(3, 1, (1, 0, 0)) == 0

    def test_zero_count_entries(self):
        # a zero count names no vertex, so it changes nothing
        assert trees.count_by_profile(3, 1, {0: 2, 1: 0, 2: 1}) == 1
        assert trees.count_by_profile(3, 1, {0: 0}) == 0
        assert trees.labeled_forest_profile_count(2, 1, {0: 1, 1: 1, 5: 0}) == 2
        assert trees.labeled_forest_profile_count(2, 1, {0: 0}) == 0

    def test_degree_sequences_with_wrong_sum(self):
        assert trees.count_degree_trees(4, (1, 1, 1, 1)) == 0
        assert trees.count_degree_trees(4, (2, 2, 2, 2)) == 0
        assert trees.count_degree_trees(3, (0, 2, 2)) == 0
        assert trees.count_degree_trees(1, (1,)) == 0

    def test_single_vertex_tree(self):
        assert trees.count_degree_trees(1, (0,)) == 1


def _min_leaf_encode(edges, m):
    # the textbook route: delete the least-labeled leaf, record its neighbor
    adj = {v: set() for v in range(1, m + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    code = []
    for _ in range(m - 2):
        leaf = min(v for v, nb in adj.items() if len(nb) == 1)
        (neighbor,) = adj.pop(leaf)
        adj[neighbor].discard(leaf)
        code.append(neighbor)
    return tuple(code)


def _min_leaf_decode(code, m):
    degree = {v: 1 + code.count(v) for v in range(1, m + 1)}
    edges = []
    for e in code:
        leaf = min(v for v, d in degree.items() if d == 1)
        edges.append(tuple(sorted((leaf, e))))
        del degree[leaf]
        degree[e] -= 1
    edges.append(tuple(sorted(degree)))
    return tuple(sorted(edges))


@functools.lru_cache(maxsize=None)
def _trees_by_union_find(m):
    # every (m-1)-subset of the edges of K_m that closes no cycle
    out = []
    for subset in itertools.combinations(itertools.combinations(range(1, m + 1), 2), m - 1):
        root = list(range(m + 1))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        acyclic = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            root[ru] = rv
        if acyclic:
            out.append(subset)
    return out


def _check_tree_reference(edges, m):
    # one pass per check, in the order the messages rank: labels, self
    # loops, edge count and repeats, then connectivity
    edges = [tuple(e) for e in edges]
    ends = [v for e in edges for v in e]
    if m is None:
        # m is the greatest end; an end that is not a number is a bad label
        numbers = [v for v in ends if isinstance(v, (int, float))]
        m = max(numbers) if numbers else 0
        if len(numbers) < len(ends):
            raise NotATree("edges must join vertices in 1..%d" % m)
    if m < 2:
        raise NotATree("need at least two vertices")
    if any(len(e) != 2 for e in edges) or any(
        not isinstance(v, int) or not 1 <= v <= m for v in ends
    ):
        raise NotATree("edges must join vertices in 1..%d" % m)
    if any(u == v for u, v in edges):
        raise NotATree("self loops are not allowed")
    if len(edges) != m - 1 or len({frozenset(e) for e in edges}) != m - 1:
        raise NotATree("a tree on %d vertices has exactly %d distinct edges" % (m, m - 1))
    reached = {1}
    grew = True
    while grew:
        grew = False
        for u, v in edges:
            if (u in reached) != (v in reached):
                reached |= {u, v}
                grew = True
    if len(reached) != m:
        raise NotATree("edge set is not connected")
    return edges, m


def _outcome(check, edges, m):
    try:
        return check(edges, m)
    except (NotATree, TypeError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _encode_outcome(edges, m):
    # the reference's (edges, m) for a tree stands for the encoded code
    got = _outcome(trees.prufer_encode, edges, m)
    if isinstance(got, trees.PruferCode):
        return [tuple(e) for e in edges], got.m
    return got


def _reaches_a_root(parent, v):
    # follow parents from v; more than n steps means a cycle
    for _ in range(len(parent) + 1):
        if v == 0:
            return True
        v = parent[v - 1]
    return False


class TestFastRoutesAgainstReferences:
    """The counting and codec routes in trees take short cuts; each is
    compared here with the direct route it replaces."""

    def test_ordered_census_equals_decoded_profiles(self):
        for n in range(1, 10):
            for k in range(1, n + 1):
                want = collections.Counter(
                    tuple(sorted(f.profile().items()))
                    for f in enumerate_ordered_forests(n, k)
                )
                assert trees._ordered_profile_census(n, k) == want

    def test_every_non_tree_edge_set_is_rejected(self):
        for m in range(2, 7):
            tree_set = set(trees.enumerate_labeled_trees(m))
            all_edges = list(itertools.combinations(range(1, m + 1), 2))
            rejected = 0
            for subset in itertools.combinations(all_edges, m - 1):
                if subset in tree_set:
                    continue
                with pytest.raises(NotATree):
                    trees.prufer_encode(subset, m)
                rejected += 1
            assert rejected + m ** (m - 2) == math.comb(len(all_edges), m - 1)

    def test_malformed_edges_are_rejected(self):
        for bad, m in [
            ([(1, 2, 3), (2, 3)], 3),  # an edge with three ends
            ([(0, 1), (1, 2)], 3),  # label 0
            ([(1, 2), (2, 4)], 3),  # label m + 1
            ([(1.0, 2), (2, 3)], 3),  # a float label
            ([(1, 2), (1.0, 3)], 3),  # a float equal to a label in use
            ([("1", 2), (2, 3)], 3),  # a string label
            ([], None),  # inferred m = 0
            ([(1, 1)], None),  # inferred m = 1
        ]:
            with pytest.raises(NotATree):
                trees.prufer_encode(bad, m)

    def test_codec_equals_min_leaf_reference(self):
        for m in range(2, 7):
            for edges in trees.enumerate_labeled_trees(m):
                assert trees.prufer_encode(edges, m).entries == _min_leaf_encode(edges, m)
            for code in itertools.product(range(1, m + 1), repeat=m - 2):
                assert trees.prufer_decode(code, m) == _min_leaf_decode(code, m)

    def test_one_pass_tree_check_ranks_faults_like_the_reference(self):
        # every list of up to three edges over the labels 0..4, for m = 3
        # and for m inferred, plus malformed edges mixed into valid ones
        pairs = list(itertools.product(range(5), repeat=2))
        cases = [
            list(edges)
            for size in range(4)
            for edges in itertools.product(pairs, repeat=size)
        ]
        odd = [(1, 2, 3), (1.0, 2), ("1", 2), (True, 2), (1,), (2, 3.0), (2, 2.5)]
        for bad in odd:
            cases += [[bad, (2, 3)], [(1, 1), bad], [(1, 2), bad]]
        for edges in cases:
            for m in (3, None):
                want = _outcome(_check_tree_reference, edges, m)
                assert _encode_outcome(edges, m) == want, (edges, m)

    def test_leaf_deletion_tells_cycles_from_repeated_edges(self):
        # every multiset of m - 1 pairs over [m], self loops included, in
        # both edge orders: m - 1 loop-free edges that are no tree either
        # repeat an edge or close a cycle beside an unreached vertex
        seen = collections.Counter()
        for m in (4, 5):
            pairs = list(itertools.combinations_with_replacement(range(1, m + 1), 2))
            for multiset in itertools.combinations_with_replacement(pairs, m - 1):
                flipped = [(v, u) for u, v in reversed(multiset)]
                for edges in (list(multiset), flipped):
                    for given in (m, None):
                        want = _outcome(_check_tree_reference, edges, given)
                        assert _encode_outcome(edges, given) == want, (edges, given)
                        seen[want if isinstance(want, str) else "ok"] += 1
        assert seen["NotATree: edge set is not connected"] > 0
        assert seen["ok"] == 4 * (4 ** 2 + 5 ** 3)

    def test_degree_census_equals_a_count_over_subsets(self):
        for m in range(2, 8):
            want = collections.Counter()
            for edges in _trees_by_union_find(m):
                degree = [0] * m
                for u, v in edges:
                    degree[u - 1] += 1
                    degree[v - 1] += 1
                want[tuple(degree)] += 1
            assert trees._degree_census(m) == want

    def test_labeled_census_equals_counts_over_forests(self):
        for n in range(1, 7):
            by_child = collections.Counter()
            by_profile = collections.Counter()
            for k in range(1, n + 1):
                for parent in enumerate_labeled_forests(n, k):
                    kids = [0] * n
                    for p in parent:
                        if p:
                            kids[p - 1] += 1
                    by_child[(k,) + tuple(kids)] += 1
                    profile = collections.Counter(kids)
                    by_profile[(k, tuple(sorted(profile.items())))] += 1
            assert trees._labeled_census(n) == (by_child, by_profile)

    def test_labeled_forests_are_the_acyclic_parent_maps(self):
        for n in range(1, 6):
            want = collections.defaultdict(set)
            for parent in itertools.product(range(n + 1), repeat=n):
                if all(_reaches_a_root(parent, v) for v in range(1, n + 1)):
                    want[parent.count(0)].add(parent)
            for k in range(1, n + 1):
                got = enumerate_labeled_forests(n, k)
                assert len(got) == len(set(got)) == len(want[k])
                assert set(got) == want[k]

    def test_packed_trees_equal_the_subset_route(self):
        for m in range(2, 8):
            want = _trees_by_union_find(m)
            got = trees.enumerate_labeled_trees(m)
            assert len(got) == len(want)
            assert list(got) == want
            assert [got[i] for i in range(len(got))] == want
            assert [got[-i] for i in range(1, len(got) + 1)] == want[::-1]
            for index in (len(got), -len(got) - 1):
                with pytest.raises(IndexError):
                    got[index]

    def test_one_vertex_has_the_empty_tree(self):
        assert trees.enumerate_labeled_trees(1) == ((),)


def _one_more_at_first_key(census: dict, wanted=lambda key: True) -> dict:
    wrong = dict(census)
    wrong[next(key for key in wrong if wanted(key))] += 1
    return wrong


def _planted(name, roots):
    # the census `name` in trees, wrong by one at one key the oracle reads
    # for `roots` trees
    real = getattr(trees, name)
    if name == "_ordered_profile_census":
        return lambda n, k: _one_more_at_first_key(real(n, k))
    if name == "_labeled_census":
        # the profile map is keyed by (k, profile) for every k at once
        return lambda n: (
            real(n)[0],
            _one_more_at_first_key(real(n)[1], lambda key: key[0] == roots),
        )
    if name == "_labeled_tree_census":
        return lambda m: (real(m)[0], _one_more_at_first_key(real(m)[1]))
    return lambda seq: real(seq) + (tuple(seq) == (0, -1, -1))


_PLANT_SIZES = dict(n=5, k=2, m=5, alphabet=(-1, 0, 1, 2), length=4)


def _mismatched_rows(kind):
    rows = trees.oracle_rows(kind, **_PLANT_SIZES)
    return [row for row in rows if row[1] != row[2]]


@pytest.mark.parametrize(
    "kind, name",
    [
        ("ordered-forest", "_ordered_profile_census"),
        ("labeled-forest", "_labeled_census"),
        ("degree-trees", "_labeled_tree_census"),
        ("cycle-lemma", "cycle_lemma_count"),
    ],
)
def test_each_planted_census_defect_fails_an_oracle_row(kind, name, monkeypatch):
    # a census wrong by one at one key must show as a row whose census
    # differs from its formula
    assert _mismatched_rows(kind) == []
    monkeypatch.setattr(trees, name, _planted(name, _PLANT_SIZES["k"]))
    assert _mismatched_rows(kind) != []


def test_trees_imports_no_other_layer():
    # trees is the independent side of every cross-check, so it must not
    # import the series engine, the lagrange routines or the identities
    forbidden = {"series", "lagrange", "identities"}
    tree = ast.parse(pathlib.Path(trees.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [
                "%s.%s" % (node.module or "", alias.name) for alias in node.names
            ]
        else:
            continue
        for name in names:
            assert not forbidden & set(name.split(".")), name


def test_lagrange_leaves_the_integer_form_to_series():
    # how rational data becomes integers over one denominator is known to
    # the series kernels alone; lagrange reads their results
    from lagrange_kit import lagrange

    imported = set()
    for node in ast.walk(ast.parse(pathlib.Path(lagrange.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.update("%s.%s" % (node.module, a.name) for a in node.names)
    assert "series._fraction_path" not in imported
    assert "series._to_integers" not in imported
    assert "series._over_lcm" not in imported
    assert "series._powers" in imported


def test_censuses_leave_no_reference_cycles():
    # the census searches are closures that call themselves, and the case
    # lists and closed sums walk weighted compositions; every walk must be
    # freed by reference counting, not left to the cyclic collector
    from lagrange_kit.lagrange import explicit_coefficient, explicit_from_inverse

    walks = [
        (trees._ordered_profile_census, (10, 3)),
        (trees._labeled_census, (6,)),
        (trees._labeled_tree_census, (6,)),
        (trees.ordered_profiles, (10, 3)),
        (trees.degree_sequences, (7,)),
        (explicit_coefficient, ([1, 2, 3, 4], 9, 2)),
        (explicit_from_inverse, ([1, 2, 3], 8, 2)),
    ]
    gc.collect()
    gc.disable()
    try:
        for walk, args in walks:
            if hasattr(walk, "cache_clear"):
                walk.cache_clear()
            result = walk(*args)
            if inspect.isgenerator(result):
                list(result)
        assert gc.collect() == 0
    finally:
        gc.enable()
