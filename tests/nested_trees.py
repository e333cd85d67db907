"""The nested-dict trees of ml-model format 1, rebuilt from a flat node table.

Format 1 saved a leaf as {"leaf": value} and a split node as {"feature": j,
"threshold": t, "left": ..., "right": ...}; a decision tree's params held
{"tree", "n_classes"} and a forest's {"trees", "n_classes", "regression"}.
"""

import numpy as np


def nested_tree(core, node):
    if core["feature"][node] < 0:
        value = core["value"][node]
        return {"leaf": float(value) if np.issubdtype(value.dtype, np.floating) else int(value)}
    return {
        "feature": int(core["feature"][node]),
        "threshold": float(core["threshold"][node]),
        "left": nested_tree(core, core["left"][node]),
        "right": nested_tree(core, core["right"][node]),
    }


def v1_params(algorithm, core):
    """The format 1 params of a tree learner's flat core."""
    trees = [nested_tree(core, root) for root in core["roots"]]
    if algorithm == "decision_tree":
        (tree,) = trees
        return {"tree": tree, "n_classes": core["n_classes"]}
    return {"trees": trees, "n_classes": core["n_classes"],
            "regression": algorithm == "random_forest_reg"}


def v1_payload(model_payload):
    """A format 2 ml-model payload written as format 1."""
    core = {name: np.array(v) if isinstance(v, list) else v
            for name, v in model_payload["params"].items()}
    return {**model_payload, "format_version": 1,
            "params": v1_params(model_payload["algorithm"], core)}
