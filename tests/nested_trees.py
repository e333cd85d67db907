"""Earlier ml-model layouts, rebuilt from a format 6 payload or node table,
and the writer that saved them.

Format 1 saved a leaf as {"leaf": value} and a split node as {"feature": j,
"threshold": t, "left": ..., "right": ...}; a decision tree's params held
{"tree", "n_classes"} and a forest's {"trees", "n_classes", "regression"}.
Format 2 saved the node table of format 3 plus a `right` child per node (-1
at a leaf) and `n_classes`; knn params also held `n_classes`, and every
payload held `kind`.  Format 3 was format 4 with the mlp's `loss_history`
in its params.  Format 4 was format 5 with each tree's first node in a
`roots` params array and knn's `k` in its params as well as its
hyperparams.  Format 5 held the fields of format 6; only its file layout
differed (v5_checked_json).  model_to_payload gives a payload without
the envelope, which each of these adds.
"""

import json

import numpy as np

from traitlex._util import canonical_json, checksum
from traitlex.mlcore.base import ML_MODEL_FORMAT
from traitlex.mlcore.trees import tree_roots


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
    trees = [nested_tree(core, root) for root in tree_roots(core)]
    if algorithm == "decision_tree":
        (tree,) = trees
        return {"tree": tree, "n_classes": n_classes}
    return {"trees": trees, "n_classes": n_classes,
            "regression": algorithm == "random_forest_reg"}


def _n_classes(payload):
    return 0 if payload["classes"] is None else len(payload["classes"])


def v5_checked_json(payload):
    """The text of payload as every checked file was written up to ml-model
    format 5, bank format 6 and pdf-model format 2: one line with ", " and
    ": " between fields, keys sorted, non-ASCII escaped, and a `checksum`
    field holding the SHA-256 of the payload's canonical JSON."""
    return json.dumps(dict(payload, checksum=checksum(canonical_json(payload))),
                      sort_keys=True) + "\n"


def v5_payload(payload):
    """A format 6 ml-model payload written as format 5."""
    return {**payload, "format": ML_MODEL_FORMAT, "format_version": 5}


def v4_payload(payload):
    """A format 6 ml-model payload written as format 4."""
    params = dict(payload["params"])
    if "left" in params:  # a node table
        core = {name: np.array(params[name]) for name in ("feature", "left")}
        params["roots"] = tree_roots(core).tolist()
    if payload["algorithm"] == "knn":
        params["k"] = payload["hyperparams"]["k"]
    return {**v5_payload(payload), "format_version": 4, "params": params}


def v3_payload(payload):
    """A format 6 ml-model payload of a learner other than mlp written as
    format 3."""
    return {**v4_payload(payload), "format_version": 3}


def v2_payload(payload):
    """A format 6 ml-model payload written as format 2."""
    v3 = v3_payload(payload)
    params = dict(v3["params"])
    if "left" in params:  # a node table
        params["right"] = [-1 if left < 0 else left + 1 for left in params["left"]]
    if "left" in params or "k" in params:
        params["n_classes"] = _n_classes(payload)
    kind = "regressor" if payload["classes"] is None else "classifier"
    return {**v3, "format_version": 2, "kind": kind, "params": params}


def v1_payload(payload):
    """A format 6 ml-model payload of a tree learner written as format 1."""
    core = {name: np.array(payload["params"][name])
            for name in ("feature", "threshold", "left", "value")}
    return {**v2_payload(payload), "format_version": 1,
            "params": v1_params(payload["algorithm"], core, _n_classes(payload))}
