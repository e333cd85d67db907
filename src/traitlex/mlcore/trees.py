"""Decision trees and random forests, grown from scratch.

A model holds its trees back to back in one flat node table: per node a
`feature`, `threshold`, `left` child and `value`.  A leaf has feature -1
and, in `value`, its class index or, for regression (n_classes 0), its mean
target.  A split node sends x[feature] <= threshold left and the rest right,
to the node after its left child: siblings stay adjacent.  A tree numbers its
nodes in creation order, so children follow their parent and the roots are
the nodes that are no node's child (tree_roots).

Splits minimize Gini impurity (classification) or summed squared error
(regression); thresholds are midpoints between consecutive distinct values,
or the lower value where the midpoint of two adjacent floats rounds onto the
upper one.  Tied splits resolve to the lowest feature index, then the lowest
threshold, so growth is fully deterministic given the row order and the
per-tree random generator.

Growth order.  One grower serves the decision tree and both forests.  It
grows a chunk of trees in lockstep: each round takes the next pending node
of every tree in the chunk and searches all their splits with one set of
array operations.  Each tree still visits its nodes in depth-first preorder,
left subtree before right, and draws from its own generator in that order:
the bootstrap sample first, then one candidate-feature draw per node that
tries to split.  So a tree, and its node numbers, do not depend on the
other trees of its chunk.  A grower holds a whole X and roots each tree at
its own row sequence, so the trees of several fits on rows of that X (the
folds of a cross-validation) share a grower and its chunks, and each fit's
node table is cut out of the grower's nodes afterwards.

Split search.  Every (node, candidate feature) pair is one segment: the
node's rows sorted by that feature, ties kept in the node's row order.  One
sort of packed integer keys (segment, value rank, position) orders all
segments of a round at once.  Regression costs come from cumulative sums
taken along each segment, in the order a per-feature scan adds them.  For
classification an exact integer score ranks every threshold; the thresholds
whose score lies within _NEAR of the best are scored again with the float
Gini formula, and that value alone chooses the split.
"""

import numpy as np

from ..errors import TrainingError

# Trees grown in lockstep; the chunk bounds the size of one round's arrays.
# On a 2-core x86 machine, chunks of 32 to 128 trees trained a 500 x 20
# forest equally fast.
_CHUNK = 64

# Impurity margin for scoring a threshold again with the float formula.  The
# integer score and that formula each lie within about (n_classes + 6) * 2**-53
# of the true impurity, so the threshold the formula ranks first is inside it.
_NEAR = 1e-9

# (row, tree) pairs per prediction block; bounds its memory to tens of megabytes.
_PAIRS = 1 << 20


def _candidate_features(rng, n_features, mtry):
    if mtry >= n_features:
        return np.arange(n_features)
    return np.sort(rng.choice(n_features, size=mtry, replace=False))


def _run_reduce(ufunc, values, ids):
    """`ufunc` reduced over each run of equal sorted `ids`, repeated per element."""
    head = np.r_[True, ids[1:] != ids[:-1]]
    return ufunc.reduceat(values, np.flatnonzero(head))[np.cumsum(head) - 1]


def _first_min_per_run(values, ids):
    """Index of the first minimum of `values` in each run of equal sorted `ids`."""
    hit = np.flatnonzero(values == _run_reduce(np.minimum, values, ids))
    return hit[np.r_[True, ids[hit][1:] != ids[hit][:-1]]]


class _Grower:
    """Grows trees on rows of one X, a chunk of trees at a time, and cuts the
    node table of any set of them."""

    def __init__(self, X, y, mtry, max_depth, min_samples_split, n_classes):
        self.Xt = np.ascontiguousarray(X.T)
        # Dense rank of each value within its column: equal values share a rank.
        self.rank = np.concatenate([np.unique(c, return_inverse=True)[1] for c in self.Xt])
        self.bits = max(1, (X.shape[0] - 1).bit_length())  # holds a rank or a position
        self.y = y
        self.mtry = mtry
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.n_classes = n_classes
        self.regression = n_classes == 0
        # Per node in creation order: [its tree's root, feature, threshold, left, value].
        self.nodes = []

    def grow(self, roots, rngs):
        """One tree per root row sequence, each drawing from its own generator;
        returns the trees' root node ids."""
        if len(roots) * self.mtry >= 1 << (63 - 2 * self.bits):
            raise TrainingError("training set too large for 64-bit sort keys")
        stacks = [[] for _ in roots]
        counts = None if self.regression else np.array(
            [np.bincount(self.y[r], minlength=self.n_classes) for r in roots])
        first = len(self.nodes)
        self.nodes += [[first + t, -1, 0.0, -1, 0] for t in range(len(roots))]
        self._place(roots, counts, np.zeros(len(roots), dtype=int),
                    range(first, len(self.nodes)), range(len(roots)), stacks)
        while True:
            owners = [t for t, stack in enumerate(stacks) if stack]
            if not owners:
                return list(range(first, first + len(roots)))
            pending = [stacks[t].pop() for t in owners]
            feats = np.array([_candidate_features(rngs[t], self.Xt.shape[0], self.mtry)
                              for t in owners])
            self._split(pending, feats, owners, stacks)

    def tables(self, forests):
        """One node table per list of root ids: its trees' nodes, tree by tree
        in root order, renumbered from 0.  The grower then starts a new node
        list, so root ids restart at 0."""
        tree, feature, threshold, left, value = map(np.array, zip(*self.nodes))
        out = []
        for roots in forests:
            order = np.flatnonzero(np.isin(tree, roots))
            order = order[np.argsort(tree[order], kind="stable")]
            # New id of each old one; the last entry, -1, maps a leaf's "no child" to itself.
            new_id = np.full(tree.size + 1, -1)
            new_id[order] = np.arange(order.size)
            out.append({"feature": feature[order], "threshold": threshold[order],
                        "left": new_id[left[order]], "value": value[order]})
        self.nodes = []
        return out

    def _leaf(self, node, rows, counts):
        # argmax picks the first maximum, i.e. the smallest class on ties
        self.nodes[node][4] = (float(self.y[rows].mean()) if self.regression
                               else int(np.argmax(counts)))

    def _place(self, rows, counts, depth, nodes, owners, stacks):
        """Make leaves of the new nodes that cannot split and queue the others.

        Within a tree, left children come before their right siblings; going
        backwards queues the right one first, so the left one is popped first.
        """
        size = np.array([r.size for r in rows])
        stop = size < self.min_samples_split
        if self.max_depth is not None:
            stop |= depth >= self.max_depth
        if not self.regression:
            stop |= counts.max(axis=1) == size
        for i in range(len(rows) - 1, -1, -1):
            c = None if counts is None else counts[i]
            if self.regression and not stop[i]:
                values = self.y[rows[i]]
                stop[i] = np.all(values == values[0])
            if stop[i]:
                self._leaf(nodes[i], rows[i], c)
            else:
                stacks[owners[i]].append((rows[i], c, depth[i], nodes[i]))

    def _split(self, pending, feats, owners, stacks):
        """Split each pending node, or make it a leaf if no threshold exists."""
        rows_of, counts, depth, nodes = zip(*pending)
        m = np.array([r.size for r in rows_of])
        counts = None if self.regression else np.array(counts)
        split, feature, threshold = self._best_splits(
            np.concatenate(rows_of), m, feats, counts
        )
        for i in sorted(set(range(len(pending))) - set(split.tolist())):
            self._leaf(nodes[i], rows_of[i], None if counts is None else counts[i])
        if split.size == 0:
            return
        # Route the rows; each side keeps them in the node's order.
        size = m[split]
        rows = np.concatenate([rows_of[i] for i in split])
        go_left = (
            self.Xt.ravel()[np.repeat(feature * self.Xt.shape[1], size) + rows]
            <= np.repeat(threshold, size)
        )
        owner = np.repeat(np.arange(split.size), size)
        n_left = np.bincount(owner[go_left], minlength=split.size)
        left, right = rows[go_left], rows[~go_left]
        left_at = np.r_[0, np.cumsum(n_left)].tolist()
        right_at = np.r_[0, np.cumsum(size - n_left)].tolist()
        kid_counts = None
        if not self.regression:
            C = self.n_classes
            left_counts = np.bincount(
                owner[go_left] * C + self.y[left], minlength=split.size * C
            ).reshape(-1, C)
            kid_counts = np.stack(
                [left_counts, counts[split] - left_counts], axis=1
            ).reshape(-1, C)
        first, kid_rows, kid_owners = len(self.nodes), [], []
        for i, k in enumerate(split.tolist()):
            node = self.nodes[nodes[k]]
            node[1:4] = int(feature[i]), float(threshold[i]), len(self.nodes)
            self.nodes += [[node[0], -1, 0.0, -1, 0] for _ in "lr"]  # the children
            kid_rows += (left[left_at[i]:left_at[i + 1]],
                         right[right_at[i]:right_at[i + 1]])
            kid_owners += (owners[k], owners[k])
        kid_depth = np.repeat(np.array(depth)[split] + 1, 2)
        self._place(kid_rows, kid_counts, kid_depth, range(first, len(self.nodes)),
                    kid_owners, stacks)

    def _best_splits(self, rows, m, feats, counts):
        """(node, feature, threshold) arrays for the nodes that have a threshold.

        `rows` holds the nodes' row sequences back to back, `m` their sizes and
        `feats` one row of candidate features per node.
        """
        n, bits = self.Xt.shape[1], self.bits
        F = feats.shape[1]
        seg_len = np.repeat(m, F)
        seg_start = np.cumsum(seg_len) - seg_len
        seg = np.repeat(np.arange(seg_len.size), seg_len)
        slot = np.arange(seg.size) - np.repeat(seg_start, seg_len)
        at = np.repeat(np.repeat(np.cumsum(m) - m, F), seg_len)  # start of the node in rows
        column = np.repeat(feats.ravel() * n, seg_len)
        key = (seg << bits) + self.rank[column + rows[at + slot]]
        key = (key << bits) + slot
        key.sort()
        sorted_rows = rows[at + (key & ((1 << bits) - 1))]
        # A threshold follows each slot whose value differs from the next one
        # in the same segment.
        value = key >> bits
        cut = value[1:] != value[:-1]
        cut[seg_start[1:] - 1] = False
        e = np.flatnonzero(cut)
        if e.size == 0:
            return np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0)
        node_e = seg[e] // F
        nl = (slot[e] + 1).astype(float)
        m_e = m[node_e]
        nr = m_e - nl
        y_sorted = self.y[sorted_rows]
        if self.regression:
            cost, cand = self._sse(y_sorted, seg, slot, e, nl, nr, m_e)
        else:
            cost, cand = self._gini(y_sorted, seg, slot, seg_start, e, nl, nr, m_e,
                                    node_e, F, counts)
        best = e[cand[_first_min_per_run(cost, node_e[cand])]]
        feature = feats.ravel()[seg[best]]
        x = self.Xt.ravel()
        lo = x[feature * n + sorted_rows[best]]
        hi = x[feature * n + sorted_rows[best + 1]]
        threshold = 0.5 * (lo + hi)
        # The midpoint of two adjacent floats can round onto the upper one,
        # which would send every row left; the lower value separates them.
        return seg[best] // F, feature, np.where(threshold < hi, threshold, lo)

    @staticmethod
    def _sse(y_sorted, seg, slot, e, nl, nr, m_e):
        """Summed squared error of every threshold, and their indices into e."""
        # One row per segment; zero padding after it leaves its cumulative sums unchanged.
        width = slot.max() + 1
        ys = np.zeros((seg[-1] + 1, width))
        ys.ravel()[seg * width + slot] = y_sorted
        s = ys.cumsum(axis=1).ravel()
        s2 = (ys * ys).cumsum(axis=1).ravel()
        row = seg[e] * width
        sl, sl2 = s[row + slot[e]], s2[row + slot[e]]
        total, total2 = s[row + m_e - 1], s2[row + m_e - 1]
        sse_l = sl2 - sl * sl / nl
        sse_r = (total2 - sl2) - (total - sl) ** 2 / nr
        return sse_l + sse_r, np.arange(e.size)

    def _gini(self, y_sorted, seg, slot, seg_start, e, nl, nr, m_e, node_e, F, counts):
        """Gini impurity of the thresholds near the best, and their indices into e."""
        bits, C = self.bits, self.n_classes
        # Sorting by (segment, class, slot) ranks each slot within its class.
        by_class = ((seg * C + y_sorted) << bits) + slot
        by_class.sort()
        seg_counts = np.repeat(counts, F, axis=0).ravel()
        group_start = np.cumsum(seg_counts) - seg_counts
        within = np.empty(seg.size, dtype=np.int64)
        within[seg_start[seg] + (by_class & ((1 << bits) - 1))] = (
            np.arange(seg.size) - group_start[by_class >> bits]
        )
        # Prefix sums along each segment of sum(left_c^2) and sum(left_c * node_c).
        sq = np.zeros(seg.size + 1, dtype=np.int64)
        np.cumsum(2 * within + 1, out=sq[1:])
        dot = np.zeros(seg.size + 1, dtype=np.int64)
        np.cumsum(counts.ravel()[seg // F * C + y_sorted], out=dot[1:])
        start = seg_start[seg[e]]
        sq_l = sq[e + 1] - sq[start]
        sq_r = (counts * counts).sum(axis=1)[node_e] - 2 * (dot[e + 1] - dot[start]) + sq_l
        # m * impurity = m - score, so the highest score has the lowest impurity.
        score = sq_l / nl + sq_r / nr
        cand = np.flatnonzero(score >= _run_reduce(np.maximum, score, node_e) - m_e * _NEAR)
        # Left class counts of those thresholds, then the float formula.
        cseg = seg[e[cand]]
        query = (((cseg * C)[:, None] + np.arange(C)) << bits) + slot[e[cand]][:, None]
        lc = (np.searchsorted(by_class, query, side="right")
              - group_start.reshape(-1, C)[cseg]).astype(float)
        rc = counts[node_e[cand]] - lc
        nl, nr = nl[cand], nr[cand]
        gini_l = 1.0 - ((lc / nl[:, None]) ** 2).sum(axis=1)
        gini_r = 1.0 - ((rc / nr[:, None]) ** 2).sum(axis=1)
        return (nl * gini_l + nr * gini_r) / m_e[cand], cand


def tree_roots(core):
    """Each tree's first node, ascending: the nodes that no split node has as
    its left child or as the node after it.  Node 0 is always one."""
    left = core["left"][core["feature"] >= 0]
    return np.flatnonzero(np.bincount(np.append(left, left + 1), minlength=core["left"].size) == 0)


def predict_many(core, X, hp, n_classes):
    """All (row, tree) pairs walk down one level per step; then the trees are
    combined in table order, by class votes or, when n_classes is 0, by the
    mean of their leaves."""
    feature, roots, out = core["feature"], tree_roots(core), []
    step = max(1, _PAIRS // roots.size)
    for block in np.split(X, np.arange(step, X.shape[0], step)):
        n = block.shape[0]
        node, row = np.repeat(roots, n), np.tile(np.arange(n), roots.size)
        live = np.flatnonzero(feature[node] >= 0)
        while live.size:
            at = node[live]
            go_left = block[row[live], feature[at]] <= core["threshold"][at]
            node[live] = at = core["left"][at] + ~go_left  # the right child follows the left
            live = live[feature[at] >= 0]
        leaf = core["value"][node].reshape(roots.size, n)
        if n_classes == 0:  # summed tree by tree, the order that fixes the mean's rounding
            total = np.zeros(n)
            for values in leaf:
                total += values
            out.append(total / roots.size)
        else:  # the first maximum: vote ties pick the smaller class
            votes = np.bincount(row * n_classes + leaf.ravel(),
                                minlength=n * n_classes).reshape(n, n_classes)
            out.append(votes.argmax(axis=1))
    return np.concatenate(out)


def train_decision_tree(X, y, row_sets, hp, seed, n_classes):
    """One tree per row set, all grown in lockstep."""
    grower = _Grower(X, y, X.shape[1], hp["max_depth"], hp["min_samples_split"],
                     n_classes)
    roots = grower.grow(row_sets, [np.random.Generator(np.random.PCG64(seed)) for _ in row_sets])
    return grower.tables([[root] for root in roots])


def _forest_rngs(seed, n_trees):
    # One child seed per tree keeps streams independent and reproducible.
    return [np.random.Generator(np.random.PCG64(child))
            for child in np.random.SeedSequence(seed).spawn(n_trees)]


def train_forest(X, y, row_sets, hp, seed, n_classes):
    """A forest of bootstrapped trees per row set; n_classes 0 grows regression
    forests.  As many sets as one chunk holds whole forests of are grown
    together, each tree with the generator it has in its own set's forest;
    larger forests are grown one set at a time, which bounds the node list."""
    mtry = X.shape[1] if n_classes == 0 else max(1, int(np.floor(np.sqrt(X.shape[1]))))
    grower = _Grower(X, y, mtry, hp["max_depth"], hp["min_samples_split"], n_classes)
    n_trees = hp["n_trees"]
    step = max(1, _CHUNK // n_trees)
    tables = []
    for start in range(0, len(row_sets), step):
        trees = [(rows, rng) for rows in row_sets[start:start + step]
                 for rng in _forest_rngs(seed, n_trees)]
        roots = []
        for i in range(0, len(trees), _CHUNK):
            chunk = trees[i:i + _CHUNK]
            roots += grower.grow([rows[rng.integers(0, rows.size, size=rows.size)]
                                  for rows, rng in chunk], [rng for _, rng in chunk])
        tables += grower.tables([roots[i:i + n_trees] for i in range(0, len(roots), n_trees)])
    return tables
