"""Slow reference for the model bundle's printer and tree checks.

:func:`indented_json` is the earlier bundle printer: sorted keys, two-space
indents, and only lists of numbers on one line, so each tree spans five
lines.  :func:`check_trees` checks a column's pre-order tree lists one tree
at a time, as :func:`fingerbci.ecoc._check_trees` did before it checked a
column's lists chained; both raise the same ``ValueError`` naming the field
and the column.
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
    """Refuse pre-order lists that are not a binary tree reading ``feature_dim`` features."""
    attribute, cut, counts = tree["attribute"], tree["cut"], tree["counts"]
    _require(_is_list_of(attribute, int) and attribute and min(attribute) >= -1 and max(attribute) < feature_dim,
             "attribute", f"column {j} has a tree whose attributes are not integers in [-1, {feature_dim})")
    splits = np.array(attribute) >= 0
    # Children still owed after each node: a pre-order binary tree owes none only after its last node.
    owed = 1 + np.cumsum(np.where(splits, 1, -1))
    _require((owed[:-1] > 0).all() and owed[-1] == 0, "attribute",
             f"column {j} has a tree whose attributes are not a binary tree in pre-order")
    internal = int(splits.sum())
    _require(type(cut) is list and len(cut) == internal and all(map(_is_number, cut)), "cut",
             f"column {j} has a tree without {internal} finite numeric cuts")
    _require(_is_list_of(counts, int) and len(counts) == 2 * (len(attribute) - internal) and min(counts) >= 0,
             "counts", f"column {j} has a tree without two non-negative integer counts per leaf")


def check_trees(trees: list[dict], j: int, feature_dim: int) -> None:
    for tree in trees:
        check_tree(tree, j, feature_dim)
