"""Earlier ml-model layouts, rebuilt from a format 4 payload or node table.

Format 1 saved a leaf as {"leaf": value} and a split node as {"feature": j,
"threshold": t, "left": ..., "right": ...}; a decision tree's params held
{"tree", "n_classes"} and a forest's {"trees", "n_classes", "regression"}.
Format 2 saved the node table of format 3 plus a `right` child per node (-1
at a leaf) and `n_classes`; knn params also held `n_classes`, and every
payload held `kind`.  Format 3 was format 4 with the mlp's `loss_history`
in its params; a payload of any other learner, given its envelope, is the
same in both.  model_to_payload gives a payload without the envelope, which
each of these adds.
"""

import numpy as np

from traitlex.mlcore.base import ML_MODEL_FORMAT


def nested_tree(core, node):
    if core["feature"][node] < 0:
        value = core["value"][node]
        return {"leaf": float(value) if np.issubdtype(value.dtype, np.floating) else int(value)}
    left = core["left"][node]
    return {
        "feature": int(core["feature"][node]),
        "threshold": float(core["threshold"][node]),
        "left": nested_tree(core, left),
        "right": nested_tree(core, left + 1),
    }


def v1_params(algorithm, core, n_classes):
    """The format 1 params of a tree learner's flat core; n_classes is 0 for
    regression."""
    trees = [nested_tree(core, root) for root in core["roots"]]
    if algorithm == "decision_tree":
        (tree,) = trees
        return {"tree": tree, "n_classes": n_classes}
    return {"trees": trees, "n_classes": n_classes,
            "regression": algorithm == "random_forest_reg"}


def _n_classes(payload):
    return 0 if payload["classes"] is None else len(payload["classes"])


def v3_payload(payload):
    """A format 4 ml-model payload of a learner other than mlp written as
    format 3."""
    return {**payload, "format": ML_MODEL_FORMAT, "format_version": 3}


def v2_payload(payload):
    """A format 4 ml-model payload written as format 2."""
    params = dict(payload["params"])
    if "left" in params:  # a node table
        params["right"] = [-1 if left < 0 else left + 1 for left in params["left"]]
    if "left" in params or "k" in params:
        params["n_classes"] = _n_classes(payload)
    kind = "regressor" if payload["classes"] is None else "classifier"
    return {**v3_payload(payload), "format_version": 2, "kind": kind, "params": params}


def v1_payload(payload):
    """A format 4 ml-model payload of a tree learner written as format 1."""
    core = {name: np.array(payload["params"][name])
            for name in ("feature", "threshold", "left", "value", "roots")}
    return {**v2_payload(payload), "format_version": 1,
            "params": v1_params(payload["algorithm"], core, _n_classes(payload))}
