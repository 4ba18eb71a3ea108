"""Clustering agreement metrics (NMI, AMI, ARI) and detection scoring.

All three clustering indices are computed from the ground-truth/prediction
contingency table. NMI uses the geometric mean of the two entropies, AMI the
arithmetic mean with the exact hypergeometric expected mutual information.
Detection scoring matches segments greedily by IOU with true positives at
IOU > 0.5 and averages results per scene.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import gammaln


@dataclass(frozen=True)
class Contingency:
    """Joint label counts: counts[i, j] = |gt cluster i  intersect  pred cluster j|."""

    counts: np.ndarray      # (R, C) int64
    row_sums: np.ndarray    # (R,)  gt cluster sizes
    col_sums: np.ndarray    # (C,)  pred cluster sizes
    n: int
    gt_ids: np.ndarray
    pred_ids: np.ndarray


def build_contingency(gt, pred) -> Contingency:
    gt = np.asarray(gt)
    pred = np.asarray(pred)
    if gt.shape != pred.shape or gt.ndim != 1:
        raise ValueError(f"label vectors must match: {gt.shape} vs {pred.shape}")
    gt_ids, gi = np.unique(gt, return_inverse=True)
    pred_ids, pi = np.unique(pred, return_inverse=True)
    counts = np.zeros((len(gt_ids), len(pred_ids)), dtype=np.int64)
    np.add.at(counts, (gi, pi), 1)
    return Contingency(counts, counts.sum(axis=1), counts.sum(axis=0), int(gt.size),
                       gt_ids, pred_ids)


def _same_partition(c: Contingency) -> bool:
    """True when the two labelings induce identical partitions."""
    nz = c.counts > 0
    return (
        c.counts.shape[0] == c.counts.shape[1]
        and (nz.sum(axis=0) == 1).all()
        and (nz.sum(axis=1) == 1).all()
        and (c.counts.max(axis=1) == c.row_sums).all()
    )


def _check_n(c: Contingency) -> None:
    if c.n < 2:
        raise ValueError("clustering metrics undefined for n < 2")


def _entropy(sizes: np.ndarray, n: int) -> float:
    p = sizes[sizes > 0] / n
    return float(-(p * np.log(p)).sum())


def _mutual_information(c: Contingency) -> float:
    nz = c.counts > 0
    nij = c.counts[nz].astype(np.float64)
    outer = (c.row_sums[:, None] * c.col_sums[None, :])[nz].astype(np.float64)
    return float((nij / c.n * (np.log(nij * c.n) - np.log(outer))).sum())


def nmi(c: Contingency) -> float:
    """Normalized mutual information, MI / sqrt(H_gt * H_pred)."""
    _check_n(c)
    if _same_partition(c):
        return 1.0
    h_gt = _entropy(c.row_sums, c.n)
    h_pred = _entropy(c.col_sums, c.n)
    if h_gt <= 0.0 or h_pred <= 0.0:
        return 0.0
    return _mutual_information(c) / math.sqrt(h_gt * h_pred)


def expected_mutual_information(c: Contingency) -> float:
    """Exact E[MI] under the hypergeometric (fixed-margins) model: one sum
    over every (a_i, b_j, k) with max(1, a_i + b_j - n) <= k <= min(a_i, b_j).
    Every log-factorial is looked up in one table of log m!, m = 0..n."""
    n = c.n
    log_fact = gammaln(np.arange(n + 1) + 1.0)
    a = np.repeat(c.row_sums, len(c.col_sums))
    b = np.tile(c.col_sums, len(c.row_sums))
    lo = np.maximum(1, a + b - n)
    count = np.minimum(a, b) - lo + 1  # >= 1, as a_i, b_j <= n
    # per (a_i, b_j) pair, repeated for each of its k: log a_i!, log (n - a_i)!,
    # log C(n, b_j) and log(a_i b_j)
    pair = (log_fact[a], log_fact[n - a], log_fact[n] - log_fact[b] - log_fact[n - b],
            np.log(a * b), a, b)
    g_a, g_na, log_comb_b, log_ab, ai, bj = (np.repeat(x, count) for x in pair)
    ends = np.cumsum(count)
    k = np.arange(ends[-1]) - np.repeat(ends - count - lo, count)
    log_pmf = (
        g_a - log_fact[k] - log_fact[ai - k]
        + g_na - log_fact[bj - k] - log_fact[n - ai - bj + k]
        - log_comb_b
    )
    terms = (k / n) * (np.log(n * k) - log_ab) * np.exp(log_pmf)
    return float(terms.sum())


def ami(c: Contingency) -> float:
    """Adjusted mutual information with arithmetic-mean normalization."""
    _check_n(c)
    if _same_partition(c):
        return 1.0
    mi = _mutual_information(c)
    emi = expected_mutual_information(c)
    h_gt = _entropy(c.row_sums, c.n)
    h_pred = _entropy(c.col_sums, c.n)
    denom = 0.5 * (h_gt + h_pred) - emi
    if abs(denom) < 1e-12:
        return 0.0
    return (mi - emi) / denom


def ari(c: Contingency) -> float:
    """Adjusted Rand index via pair counting over the contingency table."""
    _check_n(c)
    same_both = int((c.counts * (c.counts - 1) // 2).sum())
    same_gt = int((c.row_sums * (c.row_sums - 1) // 2).sum())
    same_pred = int((c.col_sums * (c.col_sums - 1) // 2).sum())
    if same_gt == same_both and same_pred == same_both:
        return 1.0  # no disagreeing pairs
    total_pairs = c.n * (c.n - 1) // 2
    expected = same_gt * same_pred / total_pairs
    maximum = 0.5 * (same_gt + same_pred)
    return (same_both - expected) / (maximum - expected)


def match_and_score(c: Contingency, iou_threshold: float = 0.5) -> dict:
    """Greedy IOU matching of predicted to ground-truth segments in `c`.

    Candidate (gt, pred) pairs are sorted by IOU descending and matched
    one-to-one; matches above the threshold count as true positives.
    Returns precision, recall and mean IOU over ground-truth segments
    (unmatched segments contribute 0).
    """
    inter = c.counts.astype(np.float64)
    union = c.row_sums[:, None] + c.col_sums[None, :] - c.counts
    iou = inter / union
    gi, pj = np.nonzero(c.counts)
    order = sorted(zip(gi, pj), key=lambda t: (-iou[t[0], t[1]], t[0], t[1]))
    gt_matched = {}
    pred_used = set()
    for i, j in order:
        if i in gt_matched or j in pred_used:
            continue
        gt_matched[i] = j
        pred_used.add(j)
    tp = sum(1 for i, j in gt_matched.items() if iou[i, j] > iou_threshold)
    n_gt = len(c.gt_ids)
    n_pred = len(c.pred_ids)
    miou = sum(iou[i, j] for i, j in gt_matched.items()) / n_gt
    return {
        "precision": tp / n_pred,
        "recall": tp / n_gt,
        "miou": float(miou),
    }


def score_scene(gt, pred, iou_threshold: float = 0.5) -> dict:
    """All six metrics for one scene."""
    c = build_contingency(gt, pred)
    out = {"nmi": nmi(c), "ami": ami(c), "ari": ari(c)}
    out.update(match_and_score(c, iou_threshold))
    return out


def per_room_average(records: list[dict]) -> tuple[dict, dict]:
    """Unweighted mean and population standard deviation per metric key."""
    if not records:
        raise ValueError("need at least one scene record")
    keys = records[0].keys()
    means = {}
    stds = {}
    for k in keys:
        vals = np.array([float(r[k]) for r in records], dtype=np.float64)
        means[k] = float(vals.mean())
        stds[k] = float(vals.std())
    return means, stds


METRIC_COLUMNS = ("nmi", "ami", "ari", "precision", "recall", "miou", "steps")


def write_metrics_csv(path, names: list[str], records: list[dict]) -> None:
    """One row per scene plus aggregate mean and std rows."""
    means, stds = per_room_average(records)
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("scene",) + METRIC_COLUMNS)
        for name, rec in zip(names, records):
            writer.writerow([name] + [f"{float(rec.get(k, 0.0)):.6f}" for k in METRIC_COLUMNS])
        writer.writerow(["mean"] + [f"{means.get(k, 0.0):.6f}" for k in METRIC_COLUMNS])
        writer.writerow(["std"] + [f"{stds.get(k, 0.0):.6f}" for k in METRIC_COLUMNS])
