"""Slow reference for the model bundle's printer, forest checks and older tree layouts.

:func:`indented_json` is an earlier bundle printer: sorted keys, two-space
indents, and only lists of numbers on one line, so every object spans
lines.  :func:`split_trees` cuts a forest's flat level-order lists into one
dict of lists per tree with a per-node loop, and :func:`check_trees` checks
each tree as its own lists, finding each internal node's children by their
position, where :func:`fingerbci.ecoc._check_trees` derives every tree's
size from the flat ``attribute`` list at once; both raise the same
``ValueError`` naming the field and the column, and both return the forest.
The per-tree dicts are also the layout of bundle format 4, and
:func:`pre_order` rewrites one in pre-order, the layout of bundle format 3.
"""

import json

import numpy as np

from fingerbci.ecoc import _require
from fingerbci.extratrees import EtForest, EtParams
from fingerbci.trialstore import is_finite_number


def indented_json(value, indent: str = "") -> str:
    inner = indent + "  "
    if type(value) is dict and value:
        items = [f"{json.dumps(key)}: {indented_json(v, inner)}" for key, v in sorted(value.items())]
        brackets = "{}"
    elif type(value) is list and not all(isinstance(v, (int, float)) for v in value):
        items, brackets = [indented_json(v, inner) for v in value], "[]"
    else:
        return json.dumps(value)
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


def _is_list_of(values, kind: type) -> bool:
    return type(values) is list and all(type(v) is kind for v in values)


def split_trees(forest: dict, j: int, feature_dim: int) -> list[dict]:
    """Column ``j``'s ``forest`` lists as one ``{"attribute", "cut", "counts"}`` dict per tree.

    Node by node, a tree ends after the node that leaves it owing no child;
    each tree takes the next cut of each internal node and the next two
    counts of each leaf, and the last tree takes every cut and count left
    over.  Refuses attributes that are not integers in ``[-1, feature_dim)``
    or that end inside a tree.
    """
    attribute, cut, counts = forest["attribute"], forest["cut"], forest["counts"]
    _require(type(attribute) is list, "attribute", f"column {j} has attributes that are not a list")
    trees, owed = [], 0
    for a in attribute:
        _require(type(a) is int and -1 <= a < feature_dim, "attribute",
                 f"column {j} has an attribute {a!r} that is not an integer in [-1, {feature_dim})")
        if owed == 0:
            trees.append([])
            owed = 1
        trees[-1].append(a)
        owed += 1 if a >= 0 else -1
    _require(owed == 0, "attribute", f"column {j} has attributes that end inside a tree")
    out, next_cut, next_count = [], 0, 0
    for t, nodes in enumerate(trees):
        last = t == len(trees) - 1
        n_cuts = sum(a >= 0 for a in nodes)
        n_counts = 2 * (len(nodes) - n_cuts)
        tree = {"attribute": nodes}
        for name, values, start, n in (("cut", cut, next_cut, n_cuts), ("counts", counts, next_count, n_counts)):
            tree[name] = values if type(values) is not list else values[start:] if last else values[start : start + n]
        out.append(tree)
        next_cut, next_count = next_cut + n_cuts, next_count + n_counts
    return out


def check_tree(tree: dict, j: int, feature_dim: int) -> None:
    """Refuse level-order lists that are not a binary tree reading ``feature_dim`` features."""
    attribute, cut, counts = tree["attribute"], tree["cut"], tree["counts"]
    _require(_is_list_of(attribute, int) and attribute and min(attribute) >= -1 and max(attribute) < feature_dim,
             "attribute", f"column {j} has a tree whose attributes are not integers in [-1, {feature_dim})")
    internal = [i for i, a in enumerate(attribute) if a >= 0]
    # The k-th internal node's children are nodes 2k + 1 and 2k + 2: each must follow its parent, and
    # every node but the root must be a child.
    _require(len(attribute) == 2 * len(internal) + 1 and all(i <= 2 * k for k, i in enumerate(internal)),
             "attribute", f"column {j} has a tree whose attributes are not a binary tree in level order")
    _require(type(cut) is list and len(cut) == len(internal) and all(map(is_finite_number, cut)), "cut",
             f"column {j} has a tree without {len(internal)} finite numeric cuts")
    _require(_is_list_of(counts, int) and len(counts) == 2 * (len(attribute) - len(internal))
             and all(0 <= c < 2**63 for c in counts),
             "counts", f"column {j} has a tree without two int64 counts of at least 0 per leaf")


def check_trees(forest: dict, j: int, params: EtParams, feature_dim: int) -> EtForest:
    trees = split_trees(forest, j, feature_dim)
    _require(len(trees) == params.n_estimators >= 1, "n_estimators",
             f"column {j} has {len(trees)} trees for n_estimators {params.n_estimators}")
    for tree in trees:
        check_tree(tree, j, feature_dim)
    return EtForest(
        np.array([a for tree in trees for a in tree["attribute"]], dtype=np.int64),
        np.array([c for tree in trees for c in tree["cut"]], dtype=np.float64),
        np.array([c for tree in trees for c in tree["counts"]], dtype=np.int64).reshape(-1, 2),
        params,
        feature_dim,
    )


def pre_order(tree: dict) -> dict:
    """A tree's level-order lists in pre-order: the node, then its left and its right subtree."""
    attribute = tree["attribute"]
    rank = {}  # position -> rank among internal nodes, and among leaves
    for kind in (True, False):
        rank.update({i: r for r, i in enumerate(i for i, a in enumerate(attribute) if (a >= 0) == kind)})
    out = {"attribute": [], "cut": [], "counts": []}
    stack = [0]
    while stack:
        i = stack.pop()
        out["attribute"].append(attribute[i])
        if attribute[i] >= 0:
            out["cut"].append(tree["cut"][rank[i]])
            stack += [2 * rank[i] + 2, 2 * rank[i] + 1]
        else:
            out["counts"] += tree["counts"][2 * rank[i] : 2 * rank[i] + 2]
    return out
