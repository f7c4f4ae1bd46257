"""A C4.5-style decision tree (Quinlan), as used in Sec. V-B.

The paper runs C4.5 on (RTT reduction, loss reduction) features to
find the combined thresholds past which an overlay path is very likely
to improve throughput (10.5% and 12.1% in their data).  This module
implements the parts of C4.5 that analysis needs:

* binary splits on continuous attributes at candidate midpoints,
* split selection by **gain ratio** (information gain normalized by
  split entropy),
* **pessimistic error pruning** with the standard CF=25% upper
  confidence bound, and
* extraction of decision rules (root-to-leaf threshold conjunctions).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import AnalysisError, check

#: z for the CF=25% one-sided confidence bound C4.5 uses when pruning.
PRUNING_Z = 0.6745


def _entropy(positive: int, total: int) -> float:
    if total == 0 or positive in (0, total):
        return 0.0
    p = positive / total
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def _pessimistic_error(errors: int, total: int) -> float:
    """Upper confidence bound on the error rate (C4.5's estimate)."""
    if total == 0:
        return 0.0
    f = errors / total
    z = PRUNING_Z
    numerator = (
        f
        + z * z / (2 * total)
        + z * math.sqrt(max(f / total - f * f / total + z * z / (4 * total * total), 0.0))
    )
    return numerator / (1 + z * z / total)


@dataclass(frozen=True, slots=True)
class Condition:
    """One threshold test on the path from root to a leaf."""

    feature: str
    op: str  # "<=" or ">"
    threshold: float

    def __str__(self) -> str:  # pragma: no cover - display convenience
        return f"{self.feature} {self.op} {self.threshold:.4g}"


@dataclass(frozen=True, slots=True)
class DecisionRule:
    """A conjunction of conditions implying a class at some confidence."""

    conditions: tuple[Condition, ...]
    label: bool
    support: int
    confidence: float

    def lower_bounds(self) -> dict[str, float]:
        """Per-feature greatest '>' threshold in this rule.

        For the paper's question — "decrease RTT by at least X% and
        loss by at least Y%" — these are exactly the X and Y.
        """
        bounds: dict[str, float] = {}
        for condition in self.conditions:
            if condition.op == ">":
                bounds[condition.feature] = max(
                    bounds.get(condition.feature, -math.inf), condition.threshold
                )
        return bounds


class _Node:
    """Internal tree node (leaf when ``feature_index`` is None)."""

    __slots__ = (
        "feature_index",
        "threshold",
        "left",
        "right",
        "positive",
        "total",
    )

    def __init__(self, positive: int, total: int) -> None:
        self.feature_index: int | None = None
        self.threshold = 0.0
        self.left: "_Node | None" = None
        self.right: "_Node | None" = None
        self.positive = positive
        self.total = total

    @property
    def is_leaf(self) -> bool:
        return self.feature_index is None

    @property
    def label(self) -> bool:
        return self.positive * 2 >= self.total

    @property
    def errors_as_leaf(self) -> int:
        return min(self.positive, self.total - self.positive)


class C45Tree:
    """A binary C4.5 classifier over continuous features."""

    def __init__(
        self,
        feature_names: Sequence[str],
        min_samples_leaf: int = 5,
        max_depth: int = 8,
        prune: bool = True,
    ) -> None:
        if not feature_names:
            raise AnalysisError("need at least one feature")
        self.feature_names = list(feature_names)
        self.min_samples_leaf = check(
            min_samples_leaf, "min_samples_leaf", ge=1, error=AnalysisError
        )
        self.max_depth = check(max_depth, "max_depth", ge=1, error=AnalysisError)
        self.prune = prune
        self._root: _Node | None = None

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, features: Sequence[Sequence[float]], labels: Sequence[bool]) -> "C45Tree":
        """Grow (and optionally prune) the tree."""
        if len(features) != len(labels):
            raise AnalysisError(
                f"features/labels length mismatch: {len(features)} vs {len(labels)}"
            )
        if not features:
            raise AnalysisError("cannot fit on an empty training set")
        width = len(self.feature_names)
        for row in features:
            if len(row) != width:
                raise AnalysisError(f"feature row has {len(row)} values, expected {width}")
        rows = [tuple(float(v) for v in row) for row in features]
        self._root = self._grow(rows, list(labels), depth=0)
        if self.prune:
            self._prune(self._root)
        return self

    def _grow(self, rows: list[tuple[float, ...]], labels: list[bool], depth: int) -> _Node:
        positive = sum(labels)
        node = _Node(positive=positive, total=len(labels))
        if (
            depth >= self.max_depth
            or len(labels) < 2 * self.min_samples_leaf
            or positive in (0, len(labels))
        ):
            return node
        split = self._best_split(rows, labels)
        if split is None:
            return node
        feature_index, threshold = split
        left_rows, left_labels, right_rows, right_labels = [], [], [], []
        for row, label in zip(rows, labels):
            if row[feature_index] <= threshold:
                left_rows.append(row)
                left_labels.append(label)
            else:
                right_rows.append(row)
                right_labels.append(label)
        node.feature_index = feature_index
        node.threshold = threshold
        node.left = self._grow(left_rows, left_labels, depth + 1)
        node.right = self._grow(right_rows, right_labels, depth + 1)
        return node

    def _best_split(
        self, rows: list[tuple[float, ...]], labels: list[bool]
    ) -> tuple[int, float] | None:
        """Highest-gain-ratio (feature, threshold) with positive gain."""
        total = len(labels)
        base_entropy = _entropy(sum(labels), total)
        best: tuple[float, int, float] | None = None  # (ratio, feature, threshold)
        for feature_index in range(len(self.feature_names)):
            ordered = sorted(zip((r[feature_index] for r in rows), labels))
            left_pos = 0
            left_n = 0
            total_pos = sum(labels)
            for i in range(total - 1):
                value, label = ordered[i]
                left_pos += label
                left_n += 1
                next_value = ordered[i + 1][0]
                if value == next_value:
                    continue
                right_n = total - left_n
                if left_n < self.min_samples_leaf or right_n < self.min_samples_leaf:
                    continue
                right_pos = total_pos - left_pos
                remainder = (
                    left_n / total * _entropy(left_pos, left_n)
                    + right_n / total * _entropy(right_pos, right_n)
                )
                gain = base_entropy - remainder
                if gain <= 1e-12:
                    continue
                split_info = _entropy(left_n, total)
                if split_info <= 1e-12:
                    continue
                ratio = gain / split_info
                threshold = (value + next_value) / 2.0
                candidate = (ratio, feature_index, threshold)
                if best is None or candidate[0] > best[0]:
                    best = candidate
        if best is None:
            return None
        return best[1], best[2]

    def _prune(self, node: _Node) -> float:
        """Bottom-up pessimistic pruning; returns estimated error count."""
        if node.is_leaf:
            return _pessimistic_error(node.errors_as_leaf, node.total) * node.total
        assert node.left is not None and node.right is not None
        subtree_errors = self._prune(node.left) + self._prune(node.right)
        leaf_errors = _pessimistic_error(node.errors_as_leaf, node.total) * node.total
        if leaf_errors <= subtree_errors:
            node.feature_index = None
            node.left = None
            node.right = None
            return leaf_errors
        return subtree_errors

    # ------------------------------------------------------------------
    # inference & introspection
    # ------------------------------------------------------------------
    def _require_fitted(self) -> _Node:
        if self._root is None:
            raise AnalysisError("tree is not fitted")
        return self._root

    def predict(self, row: Sequence[float]) -> bool:
        """Classify one feature vector."""
        node = self._require_fitted()
        while not node.is_leaf:
            assert node.left is not None and node.right is not None
            node = node.left if row[node.feature_index] <= node.threshold else node.right
        return node.label

    def accuracy(self, features: Sequence[Sequence[float]], labels: Sequence[bool]) -> float:
        """Fraction of rows classified correctly."""
        if not features:
            raise AnalysisError("cannot score an empty set")
        hits = sum(self.predict(row) == label for row, label in zip(features, labels))
        return hits / len(labels)

    def depth(self) -> int:
        """Depth of the (possibly pruned) tree; 0 for a single leaf."""

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 0
            assert node.left is not None and node.right is not None
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._require_fitted())

    def rules(self, label: bool | None = None) -> list[DecisionRule]:
        """Root-to-leaf rules, optionally filtered by leaf label."""
        root = self._require_fitted()
        out: list[DecisionRule] = []

        def walk(node: _Node, conditions: tuple[Condition, ...]) -> None:
            if node.is_leaf:
                if node.total == 0:
                    return
                majority = max(node.positive, node.total - node.positive)
                rule = DecisionRule(
                    conditions=conditions,
                    label=node.label,
                    support=node.total,
                    confidence=majority / node.total,
                )
                if label is None or rule.label == label:
                    out.append(rule)
                return
            assert node.left is not None and node.right is not None
            name = self.feature_names[node.feature_index]
            walk(node.left, conditions + (Condition(name, "<=", node.threshold),))
            walk(node.right, conditions + (Condition(name, ">", node.threshold),))

        walk(root, ())
        return out
