"""Normalized leaf-labeled binary trees and their colored families.

A tree is either a leaf, stored as a bare int label, or an internal node,
stored as a pair ``(left, right)``.  A tree on [n] is *normalized* when the
smallest label of every subtree sits in its leftmost leaf; equivalently the
valency (minimum label) of each internal node equals the valency of its left
child.  There are (2n-3)!! normalized trees on [n] for n >= 2.

So a normalized tree is its leaf word split at each node; the one
construction, :func:`normalized_trees`, streams the trees word by word.

An internal node x is a *chain node* (historically: Lyndon node) when its
left child is a leaf, or when the valency of the right child of its left
child exceeds the valency of its own right child.  Colorings of internal
nodes subject to ``color(left) > color(node)`` at non-chain nodes (Lyn kind)
or ``color(node) > color(right)`` at nodes with internal right child (Comb
kind) give the colored families; content counts how many nodes carry each
color.  Gluing the two nodes of every constraint partitions the internal
nodes; each node is glued to at most one child and from at most one parent,
so the blocks are chains, and their sizes
(:func:`~stirlingsym.partitions.chain_type`) are the two tree types.

:func:`analyze` is the only walk over a tree: one pass records each
internal node in preorder with its children and chain flag, computing
valencies bottom-up, and raises ValueError on a tree that is not normalized.
The types and the colorings read its records.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import permutations
from math import factorial

from .limits import (  # the limits keep their names here
    COLORED_MAX_N,
    NORMALIZED_MAX_N,
    check_colored_limit,
    check_normalized_limit,
)
from .partitions import (
    Partition,
    WeakComposition,
    chain_type,
    sort_to_partition,
    trim,
    weak_compositions,
)
from .series import SymFuncRing, TruncatedSeries
from .symfunc import SymFunc, convert

Tree = object  # int leaf or (Tree, Tree) pair

KINDS = ("lyn", "comb")


def is_leaf(t) -> bool:
    return isinstance(t, int)


def enumerate_normalized(n: int) -> list[Tree]:
    """All normalized trees on [n] as a list, in the order of
    :func:`normalized_trees`; (2n-3)!! of them for n >= 2.  The package's
    own checks stream :func:`normalized_trees` instead."""
    return list(normalized_trees(n))


def normalized_trees(n: int) -> Iterator[Tree]:
    """The normalized trees on [n] in canonical order: by leaf word, then by
    shape read in preorder, leaves before nodes.

    Walks the words ``(1, *p)`` with ``p`` in lexicographic order and yields
    each word's trees (:func:`_word_trees`), so memory holds one word's trees,
    at most Catalan(n-1).  n is checked when called: n < 1 and n above
    ``NORMALIZED_MAX_N`` are refused before any tree is built.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_normalized_limit(n)
    words = permutations(range(2, n + 1))
    return (t for rest in words for t in _word_trees((1, *rest)))


def _word_trees(word: tuple[int, ...]) -> list[Tree]:
    """The normalized trees whose leaf word is ``word``, by preorder shape.

    Every subtree's leaf word starts with its least letter, so a node over
    ``word[i:j]`` splits it at each k with ``word[k] == min(word[k:j])``.
    Such spans are filled shortest first, each tree kept with its preorder
    shape (0 a leaf, 1 a node); shapes differ within a word, so the sort
    never compares trees.
    """
    n = len(word)
    spans = {(i, i + 1): [((0,), word[i])] for i in range(n)}
    for length in range(2, n + 1):
        for i in range(n - length + 1):
            j = i + length
            if word[i] == min(word[i:j]):
                spans[i, j] = [((1, *left_shape, *right_shape), (left, right))
                               for k in range(i + 1, j) if word[k] == min(word[k:j])
                               for left_shape, left in spans[i, k]
                               for right_shape, right in spans[k, j]]
    return [t for _, t in sorted(spans[0, n])]


class _NodeInfo:
    """One internal node: its preorder index, those of its internal children
    (None for a leaf child) and its chain flag."""

    __slots__ = ("index", "left_index", "right_index", "chain_node")

    def __init__(self, index: int, left_index: int | None, right_index: int | None,
                 chain_node: bool):
        self.index = index
        self.left_index = left_index
        self.right_index = right_index
        self.chain_node = chain_node


def analyze(t) -> list[_NodeInfo]:
    """Preorder records for the internal nodes of a normalized tree.

    One pass: each subtree returns its valency and the valency of its right
    child, which decides the chain flag of its parent.  Raises ValueError when
    some internal node's smallest label is not in its left subtree.
    """
    info: list[_NodeInfo] = []

    def visit(node) -> tuple[int | None, int, int | None]:
        # (internal index or None, valency, valency of the right child)
        if is_leaf(node):
            return None, node, None
        index = len(info)
        info.append(None)  # placeholder, filled after children are known
        left_index, vleft, v_rl = visit(node[0])
        right_index, vright, _ = visit(node[1])
        if vleft > vright:
            raise ValueError("tree is not normalized")
        chain = left_index is None or v_rl > vright
        info[index] = _NodeInfo(index, left_index, right_index, chain)
        return index, vleft, vright

    visit(t)
    return info


def tree_type(t, kind: str) -> Partition:
    """Chain sizes of the kind's coloring constraints, largest first."""
    info = analyze(t)
    succ = dict(_coloring_constraints(info, kind))
    return chain_type(succ, range(len(info)))


def lyndon_type(t) -> Partition:
    """Block sizes after gluing each non-chain node to its left child."""
    return tree_type(t, "lyn")


def comb_type(t) -> Partition:
    """Block sizes after gluing each node to its internal right child."""
    return tree_type(t, "comb")


# ---------------------------------------------------------------------------
# colored trees
# ---------------------------------------------------------------------------


class ColoredTree:
    """A normalized tree plus one color per internal node, in preorder."""

    __slots__ = ("tree", "colors")

    def __init__(self, tree: Tree, colors: tuple[int, ...]):
        self.tree = tree
        self.colors = colors

    def content(self) -> WeakComposition:
        counts: dict[int, int] = {}
        for c in self.colors:
            counts[c] = counts.get(c, 0) + 1
        width = max(counts, default=0)
        return trim(tuple(counts.get(i, 0) for i in range(1, width + 1)))


def _coloring_constraints(info, kind: str) -> list[tuple[int, int]]:
    """Pairs (a, b) of preorder node indices requiring color(b) > color(a)."""
    if kind == "lyn":
        # color(left child) > color(node) at every non-chain node
        return [
            (rec.index, rec.left_index) for rec in info if not rec.chain_node
        ]
    if kind == "comb":
        # color(node) > color(right child) at nodes with internal right child
        return [
            (rec.right_index, rec.index)
            for rec in info
            if rec.right_index is not None
        ]
    raise ValueError(f"kind must be one of {KINDS}")


def _colorings(info, kind: str, limits: list[int], leaf) -> None:
    """Pruned DFS over preorder color assignments honoring the kind's constraints.

    Color c in 1..len(limits)-1 is used at most ``limits[c]`` times, and
    ``leaf(colors, counts)`` is called for every valid coloring, with
    ``counts[c]`` the number of nodes of color c.  Constraints always compare
    a node against an ancestor-side node that appears earlier in preorder, so
    they are checked as soon as each node is colored and invalid branches are
    pruned at once.  Colorings come in lexicographic order.
    """
    size = len(info)
    need_gt = [-1] * size  # node -> earlier node it must exceed
    need_lt = [-1] * size
    for low, high in _coloring_constraints(info, kind):
        if low < high:
            need_gt[high] = low
        else:
            need_lt[low] = high
    colors = [0] * size
    counts = [0] * len(limits)
    top = len(limits) - 1

    def walk(i: int):
        if i == size:
            leaf(colors, counts)
            return
        lo = colors[need_gt[i]] + 1 if need_gt[i] >= 0 else 1
        hi = colors[need_lt[i]] - 1 if need_lt[i] >= 0 else top
        for c in range(lo, hi + 1):
            if counts[c] < limits[c]:
                colors[i] = c
                counts[c] += 1
                walk(i + 1)
                counts[c] -= 1

    walk(0)


def enumerate_colored(kind: str, mu) -> list[ColoredTree]:
    """All colored trees of the given kind with content exactly mu."""
    mu = trim(mu)
    out: list[ColoredTree] = []
    for t in normalized_trees(sum(mu) + 1):
        _colorings(analyze(t), kind, [0, *mu],
                   lambda colors, counts: out.append(ColoredTree(t, tuple(colors))))
    return out


def type_generating_function(kind: str, n: int) -> SymFunc:
    """Sum of e_(tree type) over all normalized trees on [n]."""
    tally: dict[Partition, int] = {}
    for t in normalized_trees(n):
        lam = tree_type(t, kind)
        tally[lam] = tally.get(lam, 0) + 1
    return SymFunc("e", {lam: Fraction(c) for lam, c in tally.items()})


def colored_generating_function(kind: str, n: int) -> SymFunc:
    """Content generating function of the kind's colored trees on [n].

    Colors are restricted to 1..n-1, which is faithful: a content vector has
    at most n-1 nonzero entries, so every monomial-basis coefficient of the
    (symmetric) result is already visible.  Returned in the monomial basis;
    must agree with :func:`type_generating_function`.  Refuses n above
    ``COLORED_MAX_N``.
    """
    check_colored_limit(n)
    if n == 1:
        return SymFunc.one("m")
    width = n - 1
    tally: dict[WeakComposition, int] = {}

    def count(colors, counts):
        mu = trim(counts[1:])
        tally[mu] = tally.get(mu, 0) + 1

    for t in normalized_trees(n):
        _colorings(analyze(t), kind, [width] * (width + 1), count)
    return SymFunc("m", _content_to_monomial(tally, width))


def _content_to_monomial(tally: dict, width: int) -> dict:
    """Coefficient of m_lam = tally at the sorted content, symmetry asserted."""
    by_shape: dict[Partition, list[int]] = {}
    for mu, count in tally.items():
        by_shape.setdefault(sort_to_partition(mu), []).append(count)
    out: dict[Partition, Fraction] = {}
    for lam, counts in by_shape.items():
        orbit = _rearrangement_count(lam, width)
        if len(counts) != orbit or len(set(counts)) != 1:
            raise AssertionError(f"content tally is not symmetric at {lam}")
        out[lam] = Fraction(counts[0])
    return out


def _rearrangement_count(lam: Partition, width: int) -> int:
    """Number of distinct rearrangements of lam within `width` positions."""
    mult: dict[int, int] = {0: width - len(lam)}
    for p in lam:
        mult[p] = mult.get(p, 0) + 1
    out = factorial(width)
    for m in mult.values():
        out //= factorial(m)
    return out


# ---------------------------------------------------------------------------
# forbidden chain trees
# ---------------------------------------------------------------------------


def forbidden_trees(kind: str, n: int) -> list[ColoredTree]:
    """The chain-shaped trees on [n] outside the colored family.

    For the Lyn kind these are increasing left chains ((1,2),3),...  with
    colors weakly increasing toward the root; for the Comb kind decreasing
    right chains (1,(2,...,(n-1,n))) with colors weakly increasing away from
    the root.  Either way one tree per multiset of n-1 colors; colors are
    truncated to 1..max(1, n-1) which captures every partition content.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return [ColoredTree(1, ())]
    if kind == "lyn":
        shape: Tree = (1, 2)
        for m in range(3, n + 1):
            shape = (shape, m)
    else:
        shape = (n - 1, n)
        for m in range(n - 2, 0, -1):
            shape = (m, shape)
    out = []
    # lexicographic multiplicity vectors of weakly increasing color sequences
    for mult in reversed(weak_compositions(n - 1, n - 1)):
        # mult[i] copies of color i+1, listed from the deepest node upward
        seq: list[int] = []
        for i, m in enumerate(mult):
            seq.extend([i + 1] * m)
        if kind == "lyn":
            # preorder = root first; colors weakly increase toward the root
            colors = tuple(reversed(seq))
        else:
            # preorder = root first; root carries the smallest color
            colors = tuple(seq)
        out.append(ColoredTree(shape, colors))
    return out


def forbidden_tree_egf(kind: str, order: int) -> TruncatedSeries:
    """Signed EGF of the forbidden chain trees, assembled by enumeration.

    The coefficient of y^n/n! is (-1)^(n-1) times the content generating
    function of the chains on [n]; it must equal the alternating complete
    homogeneous series sum (-1)^(n-1) h_(n-1) y^n / n!.  The coefficients are
    tallied in m and kept in p, where the series is inverted.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    ring = SymFuncRing(basis="p")
    coeffs = [SymFunc.zero("p")]
    for n in range(1, order + 1):
        tally: dict[WeakComposition, int] = {}
        for ct in forbidden_trees(kind, n):
            mu = ct.content()
            tally[mu] = tally.get(mu, 0) + 1
        terms = _content_to_monomial(tally, max(1, n - 1))
        coeffs.append(convert(SymFunc("m", terms), "p") * (-1) ** (n - 1))
    return TruncatedSeries.from_egf_coefficients(ring, order, coeffs)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def tree_to_json(t):
    """Nested JSON form {"leaf": 3} / {"node": {"left": .., "right": ..}}."""
    if is_leaf(t):
        return {"leaf": t}
    return {"node": {"left": tree_to_json(t[0]), "right": tree_to_json(t[1])}}


def render_tree(t, indent: int = 0) -> str:
    """Indented ASCII rendering, right subtree above left."""
    pad = "  " * indent
    if is_leaf(t):
        return f"{pad}{t}"
    return "\n".join(
        [f"{pad}*", render_tree(t[1], indent + 1), render_tree(t[0], indent + 1)]
    )
