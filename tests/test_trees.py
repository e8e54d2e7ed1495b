import hashlib
import itertools
import json
from math import comb, factorial

import pytest

import pinned_outputs
from stirlingsym import cli, limits
from stirlingsym.partitions import sort_to_partition, trim, weak_compositions
from stirlingsym.stirling import enumerate_stirling, type_of
from stirlingsym.symfunc import SymFunc, basis_element, convert
from stirlingsym.trees import (
    ColoredTree,
    analyze,
    colored_generating_function,
    comb_type,
    enumerate_colored,
    enumerate_normalized,
    forbidden_tree_egf,
    forbidden_trees,
    is_leaf,
    lyndon_type,
    normalized_trees,
    render_tree,
    tree_to_json,
    tree_type,
    type_generating_function,
)


def double_factorial(k):
    out = 1
    for odd in range(1, k + 1, 2):
        out *= odd
    return out


def valency(t):
    """Smallest leaf label of the subtree."""
    return t if is_leaf(t) else min(valency(t[0]), valency(t[1]))


def is_normalized(t):
    """Whether every subtree's smallest label sits in its leftmost leaf; one
    pass of :func:`analyze`."""
    try:
        analyze(t)
    except ValueError:
        return False
    return True


def is_lyndon_node(node):
    """Oracle: the chain-node predicate for an internal node given as a
    subtree, valencies recomputed.

    A node whose left child is a leaf qualifies by convention (the defining
    inequality has nothing to compare).
    """
    if is_leaf(node):
        raise ValueError("leaves are not internal nodes")
    left, right = node
    if is_leaf(left):
        return True
    return valency(left[1]) > valency(right)


def tree_from_json(data):
    if "leaf" in data:
        return int(data["leaf"])
    node = data["node"]
    return (tree_from_json(node["left"]), tree_from_json(node["right"]))


def colored_tree_to_json(ct):
    """The JSON form of :func:`tree_to_json` with each internal node's
    colour, the colours taken in preorder."""
    colors = iter(ct.colors)

    def build(node):
        if is_leaf(node):
            return {"leaf": node}
        color = next(colors)
        return {"node": {"left": build(node[0]), "right": build(node[1]), "color": color}}

    return build(ct.tree)


def leaves(t) -> list[int]:
    if is_leaf(t):
        return [t]
    return leaves(t[0]) + leaves(t[1])


def attach_oracle(n):
    """Oracle: every normalized tree on [n], in canonical order, by the
    attach-then-sort route.

    Each new largest leaf m is attached as the right sibling of every node of
    every tree on [m-1]; since m is the largest label the result stays
    normalized, and each tree arises exactly once.  Then all trees are sorted
    by leaf word, then by shape read in preorder (leaves before nodes).
    """
    trees = [1]
    for m in range(2, n + 1):
        trees = [grown for t in trees for grown in _attach(t, m)]
    trees.sort(key=_tree_sort_key)
    return trees


def _attach(t, m):
    yield (t, m)
    if not is_leaf(t):
        for left in _attach(t[0], m):
            yield (left, t[1])
        for right in _attach(t[1], m):
            yield (t[0], right)


def _tree_sort_key(t):
    shape = []

    def visit(node):
        if is_leaf(node):
            shape.append(0)
        else:
            shape.append(1)
            visit(node[0])
            visit(node[1])

    visit(t)
    return (leaves(t), shape)


def recursive_is_normalized(t):
    """Oracle: the defining recursion, valency recomputed at every node."""
    if is_leaf(t):
        return True
    return (
        valency(t[0]) == valency(t)
        and recursive_is_normalized(t[0])
        and recursive_is_normalized(t[1])
    )


def all_leaf_labelled_trees(labels):
    """Every binary tree whose leaves carry `labels` in some order."""
    for word in itertools.permutations(labels):
        yield from _shapes(word)


def _shapes(word):
    # every binary bracketing of a fixed leaf word
    if len(word) == 1:
        yield word[0]
        return
    for cut in range(1, len(word)):
        for left in _shapes(word[:cut]):
            for right in _shapes(word[cut:]):
                yield (left, right)


def union_find_blocks(size, unions):
    """Oracle: block sizes of the partition that the unions generate."""
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in unions:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    sizes = {}
    for x in range(size):
        root = find(x)
        sizes[root] = sizes.get(root, 0) + 1
    return tuple(sorted(sizes.values(), reverse=True))


def test_counts():
    assert len(enumerate_normalized(2)) == 1
    assert len(enumerate_normalized(4)) == 15
    assert len(enumerate_normalized(6)) == 945
    for n in range(2, 8):
        assert len(enumerate_normalized(n)) == double_factorial(2 * n - 3)


def test_word_walk_matches_the_attach_oracle():
    for n in range(1, 8):
        assert enumerate_normalized(n) == attach_oracle(n)


def test_word_walk_refuses_when_called():
    # n is checked at the call, not at the first next()
    for n in (0, -1, limits.NORMALIZED_MAX_N + 1):
        with pytest.raises(ValueError):
            normalized_trees(n)


def test_enumeration_yields_distinct_normalized_trees():
    for n in range(1, 6):
        trees = enumerate_normalized(n)
        assert len(set(map(str, trees))) == len(trees)
        for t in trees:
            assert is_normalized(t)
            assert sorted(leaves(t)) == list(range(1, n + 1))


def test_one_pass_decides_normalization_on_every_tree():
    for n in range(1, 6):
        found = list(all_leaf_labelled_trees(tuple(range(1, n + 1))))
        assert len(found) == factorial(n) * comb(2 * n - 2, n - 1) // n
        normalized = 0
        for t in found:
            want = recursive_is_normalized(t)
            assert is_normalized(t) == want
            if want:
                normalized += 1
                continue
            for fn in (analyze, lyndon_type, comb_type):
                with pytest.raises(ValueError, match="tree is not normalized"):
                    fn(t)
        assert normalized == double_factorial(2 * n - 3)
    assert len(found) == 1680


def test_tree_types_are_the_union_find_blocks():
    unions = {
        "lyn": lambda info: [(rec.index, rec.left_index)
                             for rec in info if not rec.chain_node],
        "comb": lambda info: [(rec.index, rec.right_index)
                              for rec in info if rec.right_index is not None],
    }
    for n in range(1, 8):
        for t in enumerate_normalized(n):
            info = analyze(t)
            for kind, pairs in unions.items():
                assert tree_type(t, kind) == union_find_blocks(len(info), pairs(info))
    with pytest.raises(ValueError, match="kind must be one of"):
        tree_type((1, 2), "nope")


def test_tree_listings_are_pinned(capsys):
    # the n = 7 listing is also the benchmark's oracle (perfbench/digests.json)
    for entry_id in ("trees-7-json", "trees-5"):
        entry = pinned_outputs.entries()[entry_id]
        code = cli.main(list(entry["argv"]))
        assert pinned_outputs.mismatch(entry, code, capsys.readouterr().out.encode()) is None


def test_forbidden_tree_order_is_pinned():
    def listing(kind, n):
        return [(ct.tree, ct.colors) for ct in forbidden_trees(kind, n)]

    assert listing("lyn", 3) == [
        (((1, 2), 3), (2, 2)), (((1, 2), 3), (2, 1)), (((1, 2), 3), (1, 1))]
    assert listing("comb", 3) == [
        ((1, (2, 3)), (2, 2)), ((1, (2, 3)), (1, 2)), ((1, (2, 3)), (1, 1))]
    digests = {
        "lyn": "1d388375765aa886d5a878388b8cc89018e1c6ad350c21948fd61cb2a8189e8e",
        "comb": "74bb10f532a60f7ac30d3b8ed72ebcc2655c588ecdbb96145ca576cfa6a956e8",
    }
    for kind, digest in digests.items():
        text = repr([listing(kind, n) for n in range(1, 6)])
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_valency_and_lyndon_nodes():
    t = (1, 2)
    assert valency(t) == 1
    assert is_lyndon_node(t)
    # inner pair (1,2) hangs below the root next to leaf 3: at the root the
    # right child of the left child has valency 2, the right child 3
    assert not is_lyndon_node(((1, 2), 3))
    assert is_lyndon_node(((1, 3), 2))
    for t, lyndon in [(((1, 3), 2), True), (((1, 2), 3), False)]:
        assert is_normalized(t)
        assert all(rec.chain_node for rec in analyze(t)) == lyndon


def test_reconstructed_four_block_fixture():
    # a nine-leaf tree reconstructed to have chain blocks of sizes 3, 2, 2, 1:
    # an increasing left comb on 3,4,5,6 (one 3-block), a 2-chain over 1,8,9,
    # the root gluing to its left child, and (2,7) alone
    fixture = ((((1, 8), 9), (2, 7)), (((3, 4), 5), 6))
    assert is_normalized(fixture)
    assert lyndon_type(fixture) == (3, 2, 2, 1)
    # one admissible coloring: colors decrease toward the root inside blocks
    colors = (1, 2, 1, 2, 5, 1, 2, 3)
    ct = ColoredTree(fixture, colors)
    assert ct.content() == (3, 3, 1, 0, 1)
    for rec in analyze(fixture):
        if not rec.chain_node:
            assert ct.colors[rec.left_index] > ct.colors[rec.index]


def test_types_on_three_leaves():
    types = sorted(lyndon_type(t) for t in enumerate_normalized(3))
    assert types == [(1, 1), (1, 1), (2,)]
    assert lyndon_type((1, 2)) == (1,)
    assert comb_type((1, 2)) == (1,)
    assert comb_type((1, (2, 3))) == (2,)
    assert comb_type(((1, 2), 3)) == (1, 1)


def test_type_sums_match_permutation_sums():
    # the tree sums on [n] agree with the doubled-letter sums on [n-1]
    for n in range(2, 7):
        lyn = type_generating_function("lyn", n)
        combs = type_generating_function("comb", n)
        perm_aa = {}
        perm_tn = {}
        for sp in enumerate_stirling(n - 1, 2):
            lam = type_of(sp, "AA")
            perm_aa[lam] = perm_aa.get(lam, 0) + 1
            lam = type_of(sp, "TN", 1)
            perm_tn[lam] = perm_tn.get(lam, 0) + 1
        assert lyn == SymFunc("e", perm_aa)
        assert combs == SymFunc("e", perm_tn)


def test_monochromatic_combs_are_left_combs():
    for n in range(2, 6):
        colored = enumerate_colored("comb", (n - 1,))
        assert len(colored) == factorial(n - 1)
        for ct in colored:
            # every right child is a leaf
            for rec in analyze(ct.tree):
                assert rec.right_index is None


def test_single_node_content():
    for kind in ("lyn", "comb"):
        found = enumerate_colored(kind, (1,))
        assert len(found) == 1
        assert found[0].tree == (1, 2)
        assert found[0].colors == (1,)
        assert found[0].content() == (1,)


def test_colored_counts_agree_between_kinds():
    mus = [(2,), (1, 1), (0, 2), (2, 1), (1, 1, 1), (2, 2), (1, 2, 1)]
    for mu in mus:
        assert len(enumerate_colored("lyn", mu)) == len(enumerate_colored("comb", mu))


def test_colored_tree_counts_are_generating_function_coefficients():
    # the two entry points of the coloring walk: the trees of content exactly
    # mu, and the content tally over the palette 1..n-1 (symmetric, so mu
    # wider than the palette is read off at its sorted shape)
    for kind in ("lyn", "comb"):
        for weight in range(5):
            gf = colored_generating_function(kind, weight + 1)
            mus = {trim(mu) for mu in weak_compositions(weight, weight + 1)}
            for mu in sorted(mus):
                count = len(enumerate_colored(kind, mu))
                assert count == gf.coefficient(sort_to_partition(mu)), (kind, mu)


def test_colorings_satisfy_their_constraints():
    for kind in ("lyn", "comb"):
        for ct in enumerate_colored(kind, (2, 1)):
            info = analyze(ct.tree)
            for rec in info:
                if kind == "lyn" and not rec.chain_node:
                    assert ct.colors[rec.left_index] > ct.colors[rec.index]
                if kind == "comb" and rec.right_index is not None:
                    assert ct.colors[rec.index] > ct.colors[rec.right_index]
            assert trim(ct.content()) == (2, 1)


def test_coloring_uniqueness_per_block_color_sets():
    # for each tree and each choice of pairwise-distinct color sets per
    # block, exactly one coloring satisfies the chain condition
    for n in range(2, 6):
        for t in enumerate_normalized(n):
            info = analyze(t)
            # recover the blocks of the lyn partition
            parent = list(range(len(info)))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for rec in info:
                if not rec.chain_node:
                    parent[find(rec.index)] = find(rec.left_index)
            blocks = {}
            for rec in info:
                blocks.setdefault(find(rec.index), []).append(rec.index)
            blocklist = list(blocks.values())
            palette = range(1, n)
            choices = [
                list(itertools.combinations(palette, len(b))) for b in blocklist
            ]
            for sets in itertools.product(*choices):
                valid = 0
                for assignment in itertools.product(
                    *[itertools.permutations(s) for s in sets]
                ):
                    colors = [0] * len(info)
                    for block, perm in zip(blocklist, assignment):
                        for node, c in zip(block, perm):
                            colors[node] = c
                    ok = all(
                        colors[rec.left_index] > colors[rec.index]
                        for rec in info
                        if not rec.chain_node
                    )
                    valid += ok
                assert valid == 1


def test_colored_generating_function_matches_type_route():
    for kind in ("lyn", "comb"):
        for n in range(1, 6):
            assert colored_generating_function(kind, n) == type_generating_function(
                kind, n
            )


def test_kind_generating_functions_agree():
    for n in range(2, 7):
        assert type_generating_function("lyn", n) == type_generating_function(
            "comb", n
        )


def test_forbidden_trees_structure():
    for n in range(2, 6):
        for kind in ("lyn", "comb"):
            found = forbidden_trees(kind, n)
            # one tree per multiset of n-1 colors drawn from n-1 values
            assert len(found) == comb(2 * n - 3, n - 2)
            for ct in found:
                assert is_normalized(ct.tree)
                assert sorted(leaves(ct.tree)) == list(range(1, n + 1))
                info = analyze(ct.tree)
                if kind == "lyn":
                    # a left chain, nowhere a chain node once deep enough
                    for rec in info:
                        assert rec.right_index is None
                        if rec.left_index is not None:
                            assert not rec.chain_node
                            assert ct.colors[rec.left_index] <= ct.colors[rec.index]
                else:
                    for rec in info:
                        assert rec.left_index is None
                        if rec.right_index is not None:
                            assert ct.colors[rec.index] <= ct.colors[rec.right_index]


def test_forbidden_tree_egf_is_the_alternating_h_series():
    for kind in ("lyn", "comb"):
        egf = forbidden_tree_egf(kind, 5)
        assert egf.egf_coefficient(1) == SymFunc.one("m")
        assert egf.egf_coefficient(3) == convert(basis_element("h", (2,)), "m")
        for n in range(1, 6):
            want = (-1) ** (n - 1) * basis_element("h", (n - 1,) if n > 1 else ())
            assert egf.egf_coefficient(n) == convert(want, "m")


def test_inverse_of_forbidden_egf_counts_colored_trees():
    for kind in ("lyn", "comb"):
        inv = forbidden_tree_egf(kind, 5).comp_inverse()
        for n in range(1, 6):
            assert inv.egf_coefficient(n) == colored_generating_function(kind, n)


def test_tree_json_roundtrip():
    t = ((1, (2, 4)), 3)
    data = tree_to_json(t)
    assert tree_from_json(data) == t
    payload = json.dumps(data)
    assert json.loads(payload) == data
    ct = ColoredTree((1, (2, 3)), (2, 1))
    encoded = colored_tree_to_json(ct)
    assert encoded["node"]["color"] == 2
    assert encoded["node"]["right"]["node"]["color"] == 1


def test_render_tree():
    text = render_tree(((1, 2), 3))
    lines = text.splitlines()
    assert lines[0] == "*"
    assert "3" in lines[1]
    assert is_leaf(1)
