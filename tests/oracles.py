"""Independent brute-force reference implementations used by the tests.

These deliberately avoid the library's code paths: pair enumeration instead
of contingency algebra, probability dictionaries instead of vectorized sums,
and scipy's hypergeometric pmf for the expected mutual information.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def ari_oracle(gt, pred):
    """Adjusted Rand index by literal enumeration of all point pairs."""
    gt = list(gt)
    pred = list(pred)
    n = len(gt)
    both = same_gt = same_pred = 0
    disagree = 0
    for i, j in itertools.combinations(range(n), 2):
        a = gt[i] == gt[j]
        b = pred[i] == pred[j]
        same_gt += a
        same_pred += b
        both += a and b
        disagree += a != b
    if disagree == 0:
        return 1.0
    total = n * (n - 1) / 2
    expected = same_gt * same_pred / total
    maximum = (same_gt + same_pred) / 2
    return (both - expected) / (maximum - expected)


def _counts(labels):
    out = {}
    for v in labels:
        out[v] = out.get(v, 0) + 1
    return out


def _joint_counts(gt, pred):
    out = {}
    for a, b in zip(gt, pred):
        out[(a, b)] = out.get((a, b), 0) + 1
    return out


def _entropy_oracle(labels):
    n = len(labels)
    return -sum((c / n) * math.log(c / n) for c in _counts(labels).values())


def mi_oracle(gt, pred):
    n = len(gt)
    pa = {k: v / n for k, v in _counts(gt).items()}
    pb = {k: v / n for k, v in _counts(pred).items()}
    mi = 0.0
    for (a, b), c in _joint_counts(gt, pred).items():
        pab = c / n
        mi += pab * math.log(pab / (pa[a] * pb[b]))
    return mi


def _identical_partitions(gt, pred):
    seen = {}
    for a, b in zip(gt, pred):
        if seen.setdefault(a, b) != b:
            return False
    return len(set(gt)) == len(set(pred))


def nmi_oracle(gt, pred):
    gt = list(gt)
    pred = list(pred)
    if _identical_partitions(gt, pred):
        return 1.0
    h1 = _entropy_oracle(gt)
    h2 = _entropy_oracle(pred)
    if h1 <= 0 or h2 <= 0:
        return 0.0
    return mi_oracle(gt, pred) / math.sqrt(h1 * h2)


def emi_oracle(gt, pred):
    """Expected MI with exact rational hypergeometric probabilities.

    P(k) = C(ai, k) C(n - ai, bj - k) / C(n, bj), evaluated with integer
    combinatorics so the probability weights carry no rounding at all.
    """
    n = len(gt)
    emi = 0.0
    for ai in _counts(gt).values():
        for bj in _counts(pred).values():
            denom = math.comb(n, bj)
            for k in range(max(1, ai + bj - n), min(ai, bj) + 1):
                p = Fraction(math.comb(ai, k) * math.comb(n - ai, bj - k), denom)
                emi += float(p) * (k / n) * math.log(n * k / (ai * bj))
    return emi


def ami_oracle(gt, pred):
    gt = list(gt)
    pred = list(pred)
    if _identical_partitions(gt, pred):
        return 1.0
    mi = mi_oracle(gt, pred)
    emi = emi_oracle(gt, pred)
    denom = 0.5 * (_entropy_oracle(gt) + _entropy_oracle(pred)) - emi
    if abs(denom) < 1e-12:
        return 0.0
    return (mi - emi) / denom


def delta_components_oracle(positions, mask, seed, delta):
    """Points of `mask` reachable from seed by strict-< delta hops (brute force)."""
    positions = np.asarray(positions)
    idx = np.flatnonzero(mask)
    sub = positions[idx]
    dmat = np.linalg.norm(sub[:, None, :] - sub[None, :, :], axis=2)
    adj = dmat < delta
    local = {int(g): l for l, g in enumerate(idx)}
    seen = {local[int(seed)]}
    stack = [local[int(seed)]]
    while stack:
        i = stack.pop()
        for j in np.flatnonzero(adj[i]):
            if j not in seen:
                seen.add(int(j))
                stack.append(int(j))
    return {int(idx[i]) for i in seen}


def radius_adjacency_oracle(positions, delta):
    """Sorted neighbor rows by testing every ordered pair: j is a neighbor of
    i when j != i and the x, y, z squared differences sum strictly below
    delta**2 (the library's exact test, with no spatial structure at all)."""
    pts = np.asarray(positions, dtype=np.float64)
    n = len(pts)
    rows = []
    for i in range(n):
        d2 = ((pts[i] - pts) ** 2).sum(axis=1)
        rows.append(np.array([j for j in range(n) if j != i and d2[j] < delta * delta],
                             dtype=np.int64))
    return rows


def frontier_oracle(positions, members, delta, eligible=None):
    """Sorted non-members within delta of some member, limited to `eligible`."""
    rows = radius_adjacency_oracle(positions, delta)
    members = {int(m) for m in members}
    near = {int(j) for m in members for j in rows[m]} - members
    if eligible is not None:
        near = {j for j in near if eligible[j]}
    return np.array(sorted(near), dtype=np.int64)
