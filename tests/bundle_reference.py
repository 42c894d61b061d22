"""Slow reference for the model bundle's printer, tree checks and tree layout.

:func:`indented_json` is the earlier bundle printer: sorted keys, two-space
indents, and only lists of numbers on one line, so each tree spans five
lines.  :func:`check_trees` checks a column's level-order tree lists one tree
at a time, finding each internal node's children by their position, where
:func:`fingerbci.ecoc._check_trees` counts the children owed over the
column's lists chained; both raise the same ``ValueError`` naming the field
and the column, and both return the forest's arrays.  :func:`pre_order`
rewrites a tree's lists in pre-order, the layout of bundle format 3.
"""

import json

import numpy as np

from fingerbci.ecoc import _is_number, _require


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
    _require(type(cut) is list and len(cut) == len(internal) and all(map(_is_number, cut)), "cut",
             f"column {j} has a tree without {len(internal)} finite numeric cuts")
    _require(_is_list_of(counts, int) and len(counts) == 2 * (len(attribute) - len(internal))
             and all(0 <= c < 2**63 for c in counts),
             "counts", f"column {j} has a tree without two int64 counts of at least 0 per leaf")


def check_trees(trees: list[dict], j: int, feature_dim: int):
    for tree in trees:
        check_tree(tree, j, feature_dim)
    return (
        np.array([a for tree in trees for a in tree["attribute"]], dtype=np.int64),
        np.array([c for tree in trees for c in tree["cut"]], dtype=np.float64),
        np.array([c for tree in trees for c in tree["counts"]], dtype=np.int64).reshape(-1, 2),
        np.array([len(tree["attribute"]) for tree in trees]),
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
