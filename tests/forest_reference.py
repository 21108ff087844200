"""Ordered and labeled forests as objects, for the census tests.

The censuses in ``lagrange_kit.trees`` count forests by key and keep none.
The objects here list the forests one by one, by searches of their own,
so the tests can check each census bijection against forests that were
built without its code: ordered forests decoded from their reduced codes,
and labeled forests as acyclic parent maps.
"""

from __future__ import annotations

from dataclasses import dataclass

from lagrange_kit.errors import InvalidCode


def _vertex_count(tree) -> int:
    return 1 + sum(_vertex_count(child) for child in tree)


@dataclass(frozen=True)
class OrderedForest:
    """A k-tuple of rooted ordered trees; each tree is a nested tuple of
    its child subtrees, so a leaf is ()."""

    k: int
    trees: tuple

    def __post_init__(self):
        if self.k != len(self.trees):
            raise ValueError("k must equal the number of trees")

    @property
    def n(self) -> int:
        return sum(_vertex_count(t) for t in self.trees)

    def profile(self) -> dict:
        """Map child-count -> number of vertices with that many children."""
        out: dict = {}
        stack = list(self.trees)
        while stack:
            node = stack.pop()
            out[len(node)] = out.get(len(node), 0) + 1
            stack.extend(node)
        return out


@dataclass(frozen=True)
class CodeSequence:
    """Suffix or reduced code of an ordered forest; reduced entries are
    the suffix entries minus one."""

    entries: tuple
    kind: str

    def __post_init__(self):
        if self.kind not in ("suffix", "reduced"):
            raise ValueError("kind must be 'suffix' or 'reduced'")
        low = 0 if self.kind == "suffix" else -1
        if any(not isinstance(e, int) or e < low for e in self.entries):
            raise InvalidCode("entries must be integers >= %d" % low)

    def to_reduced(self) -> "CodeSequence":
        if self.kind == "reduced":
            return self
        return CodeSequence(tuple(e - 1 for e in self.entries), "reduced")

    def to_suffix(self) -> "CodeSequence":
        if self.kind == "suffix":
            return self
        return CodeSequence(tuple(e + 1 for e in self.entries), "suffix")


def suffix_code(forest: OrderedForest) -> CodeSequence:
    """Postorder code: a vertex with j children contributes j after the
    codes of its subtrees; trees are concatenated left to right."""
    out = []

    def walk(tree):
        for child in tree:
            walk(child)
        out.append(len(tree))

    for tree in forest.trees:
        walk(tree)
    return CodeSequence(tuple(out), "suffix")


def reduced_code(forest: OrderedForest) -> CodeSequence:
    return suffix_code(forest).to_reduced()


def decode_reduced(code, k: int) -> OrderedForest:
    """Rebuild the forest whose reduced code is the given sequence.

    Valid codes have entries >= -1, total sum -k, and every partial sum
    negative; anything else raises InvalidCode."""
    if isinstance(code, CodeSequence):
        entries = code.to_reduced().entries
    else:
        entries = tuple(code)
    if k < 1:
        raise ValueError("k must be positive")
    if any(not isinstance(e, int) or e < -1 for e in entries):
        raise InvalidCode("reduced entries must be integers >= -1")
    partial = 0
    stack = []
    for i, e in enumerate(entries):
        partial += e
        if partial >= 0:
            raise InvalidCode("partial sum %d at position %d is not negative" % (partial, i))
        # the stack holds minus the previous partial sum, e - partial
        # subtrees, so a negative sum leaves the e + 1 that entry e takes
        stack[-partial - 1 :] = [tuple(stack[-partial - 1 :])]
    if partial != -k:
        raise InvalidCode("entries sum to %d, expected %d" % (partial, -k))
    return OrderedForest(k, tuple(stack))


def _reduced_codes(n: int, k: int, prefix: tuple = (), partial: int = 0):
    """Every sequence of n entries >= -1 with every partial sum negative
    and total -k, extending prefix, in lexicographic order.  A branch is
    dropped once its partial sum is nonnegative or too high for the
    entries left, at -1 each, to bring down to -k."""
    left = n - len(prefix)
    if left == 0:
        if partial == -k:
            yield prefix
        return
    for e in range(-1, left - k - partial):
        if partial + e >= 0:
            break
        yield from _reduced_codes(n, k, prefix + (e,), partial + e)


def enumerate_ordered_forests(n: int, k: int) -> list:
    """Every forest of k ordered trees with n vertices, decoded from the
    valid reduced codes of length n."""
    return [decode_reduced(code, k) for code in _reduced_codes(n, k)]


def _parent_maps(n: int, parent: tuple = ()):
    """Every acyclic parent map on [n] that extends parent: entry i - 1
    is the parent of vertex i, 0 marking a root.  Vertex i takes each
    parent whose chain through the vertices already placed does not come
    back to i."""
    i = len(parent) + 1
    if i > n:
        yield parent
        return
    for p in range(n + 1):
        v = p
        while 0 < v < i:
            v = parent[v - 1]
        if v != i:
            yield from _parent_maps(n, parent + (p,))


def enumerate_labeled_forests(n: int, k: int) -> list:
    """All forests of k rooted trees on [n], as parent tuples with 0 at
    the roots."""
    if k < 1:
        raise ValueError("k must be positive")
    return [parent for parent in _parent_maps(n) if parent.count(0) == k]
