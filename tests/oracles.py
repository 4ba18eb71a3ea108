"""Independent brute-force reference implementations used by the tests.

These deliberately avoid the library's code paths: pair enumeration instead
of contingency algebra, probability dictionaries instead of vectorized sums,
scipy's hypergeometric pmf for the expected mutual information, a
record-by-record `struct` reader for the dataset file, per-edge seeded flood
fills for the classical baselines, the (N, k, 3) einsum PCA that the
column-wise covariance kernel replaced, a line-by-line scene parser,
one-f-string-per-row scene and PLY writers, a per-element labels writer and
an `int()`-per-token labels reader, the training step that keeps every
pre-activation, accumulates gradients into zeroed arrays and runs Adam
tensor by tensor through temporaries, the noiseless growth step that the
simulator's noisy one corrupts, and the segmentation loop that kept each
rollout, step and search result in records of their own.
"""

import itertools
import math
import struct
from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from scipy.spatial import cKDTree
from scipy.special import gammaln

from regrow.baselines import SmoothnessConfig, ThresholdConfig
from regrow.features import InputSpec, region_inputs
from regrow.grow import reassign_small_segments, select_seed
from regrow.pointcloud import PALETTE, PointCloud, SceneFormatError


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


def emi_gammaln_oracle(c):
    """`metrics.expected_mutual_information` as it computed the sum before its
    log-factorial table: five `gammaln` calls over float arguments, the same
    terms in the same order, so the two must return the same float."""
    from scipy.special import gammaln

    n = c.n
    a = np.repeat(c.row_sums, len(c.col_sums)).astype(np.float64)
    b = np.tile(c.col_sums, len(c.row_sums)).astype(np.float64)
    lo = np.maximum(1.0, a + b - n)
    count = (np.minimum(a, b) - lo + 1).astype(np.int64)
    pair = (gammaln(a + 1), gammaln(n - a + 1),
            gammaln(n + 1) - gammaln(b + 1) - gammaln(n - b + 1), np.log(a * b), a, b)
    g_a, g_na, log_comb_b, log_ab, ai, bj = (np.repeat(x, count) for x in pair)
    ends = np.cumsum(count)
    k = np.arange(ends[-1]) - np.repeat(ends - count - lo, count)
    log_pmf = (
        g_a - gammaln(k + 1) - gammaln(ai - k + 1)
        + g_na - gammaln(bj - k + 1) - gammaln(n - ai - bj + k + 1)
        - log_comb_b
    )
    terms = (k / n) * (np.log(n * k) - log_ab) * np.exp(log_pmf)
    return float(terms.sum())


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


def normals_oracle(positions, k):
    """PCA normals and curvature as `features.compute_normals_curvature`
    computed them before its column-wise kernel: the covariances of the
    (N, k, 3) neighborhood gather in one einsum, then the same eigen
    post-processing, so the two must agree to the byte."""
    pts = np.asarray(positions, dtype=np.float64)
    _, idx = cKDTree(pts).query(pts, k=k)
    nbrs = pts[idx]
    centered = nbrs - nbrs.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k
    evals, evecs = np.linalg.eigh(cov)
    lam = np.clip(evals, 0.0, None)
    total = lam.sum(axis=1)
    normals = evecs[:, :, 0].copy()
    safe_total = np.where(total > 0, total, 1.0)
    curvature = np.where(total > 0, lam[:, 0] / safe_total, 0.0)
    degenerate = (total <= 0) | (lam[:, 1] <= 1e-9 * lam[:, 2])
    normals[degenerate] = (0.0, 0.0, 1.0)
    curvature[degenerate] = 0.0
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    normals /= np.where(norms > 0, norms, 1.0)
    nx, ny, nz = normals[:, 0], normals[:, 1], normals[:, 2]
    flip = (nz < 0) | ((nz == 0) & (nx < 0)) | ((nz == 0) & (nx == 0) & (ny < 0))
    normals[flip] *= -1.0
    return normals, np.clip(curvature, 0.0, None)


def frontier_oracle(positions, members, delta, eligible=None):
    """Sorted non-members within delta of some member, limited to `eligible`."""
    rows = radius_adjacency_oracle(positions, delta)
    members = {int(m) for m in members}
    near = {int(j) for m in members for j in rows[m]} - members
    if eligible is not None:
        near = {j for j in near if eligible[j]}
    return np.array(sorted(near), dtype=np.int64)


def _sigmoid(z):
    """Logistic function, split by sign so that exp never overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def concat_decoder_oracle(params, xi, xn):
    """The network's forward pass with the global vector tiled onto every
    point and concatenated to the skip features before decoder layer 1 (the
    PointNet segmentation-head layout), in float64. xi: (B, I, F),
    xn: (B, J, F) -> (remove_prob (B, I), add_prob (B, J)), clamped."""
    eps = 1e-7

    def pointwise(h, w, b):
        batch, n, din = h.shape
        out = h.reshape(batch * n, din) @ w.astype(np.float64)
        out += b.astype(np.float64)
        return out.reshape(batch, n, w.shape[1])

    def encode(bp, x):
        acts = [x]
        for w, b in zip(bp.enc_w, bp.enc_b):
            acts.append(np.maximum(pointwise(acts[-1], w, b), 0))
        return acts

    def decode(bp, skip, global_vec):
        n = skip.shape[1]
        tiled = np.broadcast_to(global_vec[:, None, :],
                                (skip.shape[0], n, global_vec.shape[1]))
        h = np.concatenate([skip, tiled], axis=2)
        last = len(bp.dec_w) - 1
        for l, (w, b) in enumerate(zip(bp.dec_w, bp.dec_b)):
            z = pointwise(h, w, b)
            h = np.maximum(z, 0) if l < last else z
        return h[..., 0]

    ai = encode(params.inlier, np.asarray(xi, dtype=np.float64))
    an = encode(params.neighbor, np.asarray(xn, dtype=np.float64))
    global_vec = np.concatenate([ai[-1].max(axis=1), an[-1].max(axis=1)], axis=1)
    logit_i = decode(params.inlier, ai[params.skip_layer], global_vec)
    logit_n = decode(params.neighbor, an[params.skip_layer], global_vec)
    return (np.clip(_sigmoid(logit_i), eps, 1.0 - eps),
            np.clip(_sigmoid(logit_n), eps, 1.0 - eps))


def param_tensors(params):
    """(name, tensor) pairs in checkpoint order, walked branch by branch and
    layer by layer through the `BranchParams` views."""
    out = []
    for branch_name, bp in (("inlier", params.inlier), ("neighbor", params.neighbor)):
        for l, (w, b) in enumerate(zip(bp.enc_w, bp.enc_b), start=1):
            out.append((f"{branch_name}.enc{l}.w", w))
            out.append((f"{branch_name}.enc{l}.b", b))
        for l, (w, b) in enumerate(zip(bp.dec_w, bp.dec_b), start=1):
            out.append((f"{branch_name}.dec{l}.w", w))
            out.append((f"{branch_name}.dec{l}.b", b))
    return out


def zeros_like_params(params):
    """A NetworkParams shaped like `params`, over a zero vector."""
    return replace(params, flat=np.zeros_like(params.flat))


_PROB_EPS = 1e-7


def _step_pointwise(h, w, b):
    batch, n, din = h.shape
    out = h.reshape(batch * n, din) @ w
    out += b
    return out.reshape(batch, n, w.shape[1])


def forward_oracle(params, xi, xn):
    """The training forward pass that caches every pre-activation next to a
    fresh rectified copy and takes the pool winners with a strided
    `argmax(axis=1)`. Its matmuls are the network's own, operand for operand,
    so the network must match it byte for byte. Returns
    (remove_prob, add_prob, cache)."""
    dtype = params.dtype
    xi = np.asarray(xi, dtype=dtype)
    xn = np.asarray(xn, dtype=dtype)

    def encode(bp, x):
        zs, acts = [], [x]
        h = x
        for w, b in zip(bp.enc_w, bp.enc_b):
            z = _step_pointwise(h, w, b)
            h = np.maximum(z, 0)
            zs.append(z)
            acts.append(h)
        return zs, acts

    def decode(bp, skip, global_vec):
        batch, n, s = skip.shape
        w0 = bp.dec_w[0]
        z = (skip.reshape(batch * n, s) @ w0[:s]).reshape(batch, n, w0.shape[1])
        z += (global_vec @ w0[s:] + bp.dec_b[0])[:, None, :]
        zs, acts = [z], [skip]
        for w, b in zip(bp.dec_w[1:], bp.dec_b[1:]):
            acts.append(np.maximum(z, 0))
            z = _step_pointwise(acts[-1], w, b)
            zs.append(z)
        return zs, acts, z[..., 0]

    zi, ai = encode(params.inlier, xi)
    zn, an = encode(params.neighbor, xn)
    global_vec = np.concatenate([ai[-1].max(axis=1), an[-1].max(axis=1)], axis=1)
    ui, di, logit_i = decode(params.inlier, ai[params.skip_layer], global_vec)
    un, dn, logit_n = decode(params.neighbor, an[params.skip_layer], global_vec)
    raw_i = _sigmoid(logit_i)
    raw_n = _sigmoid(logit_n)
    p_remove = np.clip(raw_i, _PROB_EPS, 1.0 - _PROB_EPS)
    p_add = np.clip(raw_n, _PROB_EPS, 1.0 - _PROB_EPS)
    cache = {
        "zi": zi, "ai": ai, "zn": zn, "an": an,
        "argi": ai[-1].argmax(axis=1), "argn": an[-1].argmax(axis=1),
        "global": global_vec,
        "ui": ui, "di": di, "un": un, "dn": dn,
        "p_remove": p_remove, "p_add": p_add,
        "raw_i": raw_i, "raw_n": raw_n,
    }
    return p_remove, p_add, cache


def backward_oracle(params, cache, remove_t, add_t):
    """Gradients from a `forward_oracle` cache: rectifier masks from the
    pre-activations, a dense scatter of the pooled gradient, and every
    parameter gradient added into a zeroed tensor."""
    grads = zeros_like_params(params)
    dtype = params.dtype
    batch = cache["p_remove"].shape[0]
    g_width = params.global_width

    def head_grad(p_clamped, p_raw, target, n):
        d = (p_clamped.astype(np.float64) - target.astype(np.float64)) / (n * batch)
        clamped = (p_raw < _PROB_EPS) | (p_raw > 1.0 - _PROB_EPS)
        d[clamped] = 0.0
        return d.astype(dtype)[..., None]

    dlogit_i = head_grad(cache["p_remove"], cache["raw_i"], np.asarray(remove_t),
                         cache["p_remove"].shape[1])
    dlogit_n = head_grad(cache["p_add"], cache["raw_n"], np.asarray(add_t),
                         cache["p_add"].shape[1])

    def layer_grads(inp, dz):
        flat_in = inp.reshape(-1, inp.shape[2])
        flat_dz = dz.reshape(-1, dz.shape[2])
        return flat_in.T @ flat_dz, flat_dz.sum(axis=0)

    def input_grad(dz, w):
        return (dz.reshape(-1, dz.shape[2]) @ w.T).reshape(*dz.shape[:2], w.shape[0])

    global_vec = cache["global"]

    def decoder_backward(bp, gbp, us, ds, dlogit):
        dz = dlogit
        for l in range(len(bp.dec_w) - 1, 0, -1):
            dw, db = layer_grads(ds[l], dz)
            gbp.dec_w[l] += dw
            gbp.dec_b[l] += db
            dz = input_grad(dz, bp.dec_w[l])
            dz *= us[l - 1] > 0
        s = ds[0].shape[2]
        w0 = bp.dec_w[0]
        dw, db = layer_grads(ds[0], dz)
        dz_sum = dz.sum(axis=1)
        gbp.dec_w[0][:s] += dw
        gbp.dec_w[0][s:] += global_vec.T @ dz_sum
        gbp.dec_b[0] += db
        return input_grad(dz, w0[:s]), dz_sum @ w0[s:].T

    d_skip_i, d_glob_i = decoder_backward(params.inlier, grads.inlier,
                                          cache["ui"], cache["di"], dlogit_i)
    d_skip_n, d_glob_n = decoder_backward(params.neighbor, grads.neighbor,
                                          cache["un"], cache["dn"], dlogit_n)
    d_global = d_glob_i + d_glob_n
    dgi = d_global[:, :g_width]
    dgn = d_global[:, g_width:]

    def encoder_backward(bp, gbp, zs, acts, arg, dg, d_skip):
        dtop = np.zeros_like(acts[-1])
        np.put_along_axis(dtop, arg[:, None, :], dg[:, None, :], axis=1)
        dh = dtop
        for l in range(len(bp.enc_w) - 1, -1, -1):
            if l + 1 == params.skip_layer:
                dh += d_skip
            dz = np.multiply(dh, zs[l] > 0, out=dh)
            dw, db = layer_grads(acts[l], dz)
            gbp.enc_w[l] += dw
            gbp.enc_b[l] += db
            if l:
                dh = input_grad(dz, bp.enc_w[l])

    encoder_backward(params.inlier, grads.inlier, cache["zi"], cache["ai"],
                     cache["argi"], dgi, d_skip_i)
    encoder_backward(params.neighbor, grads.neighbor, cache["zn"], cache["an"],
                     cache["argn"], dgn, d_skip_n)
    return grads


def adam_oracle(state, params, grads):
    """The bias-corrected Adam update written with temporaries, tensor by
    tensor, in place on the parameter arrays and on `state`, whose moment
    vectors it reads through per-tensor views laid out like `params`."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    moments = zip(param_tensors(replace(params, flat=state.m)),
                  param_tensors(replace(params, flat=state.v)))
    for (_, p), (_, g), ((_, m), (_, v)) in zip(param_tensors(params), param_tensors(grads),
                                                moments):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= (state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)).astype(p.dtype)


def instance_closure_oracle(positions, gt, seed, delta):
    """Mask of the seed's instance points reachable from the seed by hops
    between same-instance neighbors (brute-force adjacency, explicit stack)."""
    rows = radius_adjacency_oracle(positions, delta)
    gt = np.asarray(gt)
    seen = np.zeros(len(gt), dtype=bool)
    seen[seed] = True
    stack = [int(seed)]
    while stack:
        i = stack.pop()
        for j in rows[i]:
            if not seen[j] and gt[j] == gt[seed]:
                seen[j] = True
                stack.append(int(j))
    return seen


def oracle_next_region(ctx, state):
    """Noiseless growth step: absorb in-radius points of the seed's instance."""
    gt = ctx.cloud.gt_instance
    if gt is None:
        raise ValueError("simulation requires ground-truth instance labels")
    frontier = state.tracker.frontier()
    state.tracker.add(frontier[gt[frontier] == gt[state.seed]])
    state.step += 1


# -- the growth loop that kept each rollout in records of its own -------------
# Inference-time growth and search as they were before one `RegionState`
# became the record of every growing region: a per-seed `_OracleState`, a
# `_Rollout` holding it with the step statistics, a `_GrowStep` per step and a
# `_GrowResult` per search. It shares only the region engine, the network
# input prep, seed selection and the small-segment merge with the library.
# Like the library, it reads the network's input spec from `predictor.params`.


class Sized:
    """A stub predictor with the `params` that growth reads the network's
    input spec from: I inliers and J neighbors of every feature column,
    median-normalized, as a full-feature checkpoint would give."""

    def __init__(self, predictor, i_size: int, j_size: int):
        self.predictor = predictor
        self.params = InputSpec(i_size, j_size)

    def __call__(self, xi, xn):
        return self.predictor(xi, xn)


@dataclass
class _OracleState:
    tracker: object
    seed: int
    step: int = 0
    stagnant_steps: int = 0
    loglik: float = 0.0


@dataclass
class _GrowStep:
    added: np.ndarray
    removed: np.ndarray
    step_loglik: float


@dataclass
class _GrowResult:
    members: np.ndarray
    loglik: float
    steps: int
    inferences: int
    capped: bool = False
    add_fraction: float = 0.0
    remove_fraction: float = 0.0


def _vote_oracle(ids, bits, majority):
    uniq, inverse = np.unique(ids, return_inverse=True)
    yes = np.bincount(inverse, weights=bits.astype(np.float64))
    if majority:
        total = np.bincount(inverse)
        return uniq[2 * yes >= total]
    return uniq[yes >= 1]


def _grow_step_oracle(ctx, predictor, state, frontier, cfg, rng, sampled):
    tracker = state.tracker
    inl, nbr, xi, xn = region_inputs(ctx, np.flatnonzero(tracker.member), frontier,
                                     predictor.params, rng)
    p_remove, p_add = predictor(xi, xn)
    if not sampled:
        remove_bits = p_remove > 0.5
        add_bits = p_add > 0.5
        loglik = 0.0
    else:
        remove_bits = rng.random(p_remove.size) < p_remove
        add_bits = rng.random(p_add.size) < p_add
        chosen = np.concatenate([
            np.where(remove_bits, p_remove, 1.0 - p_remove),
            np.where(add_bits, p_add, 1.0 - p_add),
        ])
        loglik = float(np.log(chosen).sum())
    if not cfg.use_remove_mask:
        remove_bits = np.zeros_like(remove_bits)
    added = _vote_oracle(nbr, add_bits, majority=False)
    if added.size == 0:
        return _GrowStep(added, np.empty(0, dtype=np.int64), loglik)
    removed = _vote_oracle(inl, remove_bits, majority=True)
    removed = removed[removed != state.seed]
    size = tracker.size
    tracker.remove(removed)
    tracker.add(added)
    state.step += 1
    state.stagnant_steps = 0 if tracker.size > size else min(state.stagnant_steps + 1, 2)
    state.loglik += loglik
    return _GrowStep(added, removed, loglik)


@dataclass
class _Rollout:
    state: _OracleState
    inferences: int = 0
    capped: bool = False
    add_fractions: list = field(default_factory=list)
    remove_fractions: list = field(default_factory=list)

    @classmethod
    def start(cls, ctx, seed):
        return cls(_OracleState(ctx.new_tracker([int(seed)]), int(seed)))

    def copy(self):
        return _Rollout(replace(self.state, tracker=self.state.tracker.copy()),
                        self.inferences, self.capped, list(self.add_fractions),
                        list(self.remove_fractions))

    def advance(self, ctx, predictor, eligible, cfg, rng, sampled):
        state = self.state
        if state.step >= cfg.max_steps:
            self.capped = True
            return False
        frontier = state.tracker.frontier(eligible)
        if frontier.size == 0:
            return False
        size = state.tracker.size
        step = _grow_step_oracle(ctx, predictor, state, frontier, cfg, rng, sampled)
        self.inferences += 1
        if step.added.size == 0:
            return False
        spec = predictor.params
        self.add_fractions.append(step.added.size / min(spec.j_size, frontier.size))
        self.remove_fractions.append(step.removed.size / min(spec.i_size, size))
        return state.stagnant_steps < 2

    def result(self):
        return _GrowResult(
            self.state.tracker.member, self.state.loglik, self.state.step,
            self.inferences, self.capped,
            float(np.mean(self.add_fractions)) if self.add_fractions else 0.0,
            float(np.mean(self.remove_fractions)) if self.remove_fractions else 0.0)


def _grow_region_oracle(ctx, predictor, seed, labels, cfg, rng, sampled):
    eligible = np.asarray(labels) == 0
    rollout = _Rollout.start(ctx, seed)
    while rollout.advance(ctx, predictor, eligible, cfg, rng, sampled):
        pass
    return rollout.result()


def _criterion_oracle(size, loglik, kind):
    return loglik if kind == "ml" else float(size)


def _run_search_oracle(ctx, predictor, seed, labels, grow_cfg, search_cfg, rng):
    if search_cfg.strategy == "greedy":
        return _grow_region_oracle(ctx, predictor, seed, labels, grow_cfg, rng, False)
    kind = search_cfg.strategy[-2:]
    if search_cfg.strategy.startswith("rr"):
        results = [_grow_region_oracle(ctx, predictor, seed, labels, grow_cfg, child, True)
                   for child in rng.spawn(search_cfg.restarts)]
        best = max(results, key=lambda r: _criterion_oracle(np.count_nonzero(r.members),
                                                            r.loglik, kind))
        return replace(best, inferences=sum(r.inferences for r in results))
    eligible = np.asarray(labels) == 0
    live = [_Rollout.start(ctx, seed)]
    finished = []
    inferences = 0

    def criterion(r):
        return _criterion_oracle(r.state.tracker.size, r.state.loglik, kind)

    while live:
        children = []
        for parent in live:
            for child_rng in rng.spawn(search_cfg.expansions):
                child = parent.copy()
                alive = child.advance(ctx, predictor, eligible, grow_cfg, child_rng, True)
                inferences += child.inferences - parent.inferences
                (children if alive else finished).append(child)
        unique = {}
        for child in children:
            unique.setdefault(child.state.tracker.member.tobytes(), child)
        live = sorted(unique.values(), key=lambda r: -criterion(r))[:search_cfg.beam_width]
    best = max(finished, key=criterion)
    return replace(best.result(), inferences=inferences)


def segment_oracle(ctx, predictor, grow_cfg, search_cfg, rng):
    """(labels, stats) of `grow.segment_scene` from the growth loop above."""
    curvature = ctx.features[:, 12]
    labels = np.zeros(ctx.n_points, dtype=np.int32)
    next_id = 1
    total_inferences = 0
    regions = 0
    capped_regions = 0
    add_fracs = []
    remove_fracs = []
    while True:
        unlabeled = np.flatnonzero(labels == 0)
        if unlabeled.size == 0:
            break
        if grow_cfg.seed_selection == "random":
            seed = int(rng.choice(unlabeled))
        else:
            seed = select_seed(curvature, labels)
        result = _run_search_oracle(ctx, predictor, seed, labels, grow_cfg, search_cfg, rng)
        labels[result.members] = next_id
        next_id += 1
        regions += 1
        total_inferences += result.inferences
        capped_regions += int(result.capped)
        add_fracs.append(result.add_fraction)
        remove_fracs.append(result.remove_fraction)
    final = reassign_small_segments(ctx.cloud, labels, grow_cfg.min_segment)
    stats = {
        "regions_grown": regions,
        "instances": int(final.max()),
        "inferences": total_inferences,
        "steps_per_region": total_inferences / max(regions, 1),
        "capped_regions": capped_regions,
        "mean_add_fraction": float(np.mean(add_fracs)) if add_fracs else 0.0,
        "mean_remove_fraction": float(np.mean(remove_fracs)) if remove_fracs else 0.0,
    }
    return final, stats


def dataset_oracle(path):
    """Read a dataset file record by record with `struct`.

    Returns (inlier_features (S, I, F) float32, neighbor_features (S, J, F)
    float32, remove_target (S, I) uint8, add_target (S, J) uint8,
    meta (S, 3) int32).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 20 or raw[:4] != b"RGDS":
        raise ValueError("not a training dataset file")
    version, i_size, j_size, spec = struct.unpack("<IIII", raw[4:20])
    if version != 2:
        raise ValueError(f"unsupported dataset version {version}")
    # bits 0..12 of the spec word are the feature columns, bit 31 normalization
    n_feat = bin(spec & 0x1FFF).count("1")
    record = 4 * (i_size + j_size) * n_feat + i_size + j_size + 12
    xi_list, xn_list, rm_list, ad_list, meta_list = [], [], [], [], []
    off = 20
    while off < len(raw):
        if off + 4 > len(raw):
            raise ValueError("truncated record header")
        (length,) = struct.unpack_from("<I", raw, off)
        off += 4
        if length != record or off + length > len(raw):
            raise ValueError("truncated or inconsistent record")
        buf = raw[off:off + length]
        off += length
        p = 0
        xi_list.append(np.frombuffer(buf, "<f4", i_size * n_feat, p).reshape(i_size, n_feat))
        p += 4 * i_size * n_feat
        xn_list.append(np.frombuffer(buf, "<f4", j_size * n_feat, p).reshape(j_size, n_feat))
        p += 4 * j_size * n_feat
        rm_list.append(np.frombuffer(buf, np.uint8, i_size, p))
        p += i_size
        ad_list.append(np.frombuffer(buf, np.uint8, j_size, p))
        p += j_size
        meta_list.append(np.frombuffer(buf, "<i4", 3, p))
    if not xi_list:
        raise ValueError("dataset contains no samples")
    return (np.stack(xi_list), np.stack(xn_list), np.stack(rm_list), np.stack(ad_list),
            np.stack(meta_list).astype(np.int32))


def _flood_oracle(ctx, join, enqueue):
    """Seeded flood fill over the radius adjacency, one edge at a time.

    Seeds are the unlabeled points of minimum curvature (ties: lowest index);
    `join(q, p)` decides whether unlabeled neighbor p joins front point q's
    region and `enqueue(p)` whether p extends the front (the seed always does).
    """
    curvature = ctx.features[:, 12]
    labels = np.zeros(ctx.n_points, dtype=np.int32)
    next_id = 1
    while (labels == 0).any():
        seed = select_seed(curvature, labels)
        labels[seed] = next_id
        queue = deque([seed])
        while queue:
            q = queue.popleft()
            for p in ctx.adj_indices[ctx.adj_indptr[q]:ctx.adj_indptr[q + 1]]:
                p = int(p)
                if labels[p] == 0 and join(q, p):
                    labels[p] = next_id
                    if enqueue(p):
                        queue.append(p)
        next_id += 1
    return labels


def threshold_oracle(ctx, cfg=None):
    """Threshold baseline: join on normal angle and color distance, every
    joined point extends the front."""
    cfg = cfg or ThresholdConfig()
    normals = ctx.features[:, 9:12]
    rgb = ctx.features[:, 6:9]
    cos_th = math.cos(math.radians(cfg.normal_angle_max))
    max_col2 = cfg.color_dist_max ** 2

    def join(q, p):
        if abs(float(normals[q] @ normals[p])) < cos_th:
            return False
        d = rgb[q] - rgb[p]
        return float(d @ d) <= max_col2

    labels = _flood_oracle(ctx, join, lambda p: True)
    return reassign_small_segments(ctx.cloud, labels, cfg.min_segment)


def smoothness_oracle(ctx, cfg=None):
    """Smoothness baseline: join on normal angle, only points of curvature at
    most `curvature_th` extend the front."""
    cfg = cfg or SmoothnessConfig()
    normals = ctx.features[:, 9:12]
    curvature = ctx.features[:, 12]
    cos_th = math.cos(math.radians(cfg.theta_th))

    def join(q, p):
        return abs(float(normals[q] @ normals[p])) >= cos_th

    labels = _flood_oracle(ctx, join, lambda p: curvature[p] <= cfg.curvature_th)
    return reassign_small_segments(ctx.cloud, labels, cfg.min_segment)


def scene_oracle(path):
    """Parse a scene file line by line with Python's float() and int()."""
    path = Path(path)
    positions, colors, labels = [], [], []
    ncols = None
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if ncols is None:
                if len(parts) not in (6, 7):
                    raise SceneFormatError(
                        f"{path}: line {lineno}: expected 6 or 7 fields, got {len(parts)}"
                    )
                ncols = len(parts)
            elif len(parts) != ncols:
                raise SceneFormatError(
                    f"{path}: line {lineno}: expected {ncols} fields, got {len(parts)}"
                )
            try:
                x, y, z = float(parts[0]), float(parts[1]), float(parts[2])
                rgb = [float(parts[i]) for i in (3, 4, 5)]
                if ncols == 7:
                    inst = int(parts[6])
            except ValueError as exc:
                raise SceneFormatError(f"{path}: line {lineno}: {exc}") from None
            if not all(np.isfinite((x, y, z))):
                raise SceneFormatError(f"{path}: line {lineno}: non-finite coordinate")
            if any(c < 0 or c > 255 for c in rgb):
                raise SceneFormatError(f"{path}: line {lineno}: color outside [0, 255]")
            if ncols == 7 and inst < 1:
                raise SceneFormatError(f"{path}: line {lineno}: instance id must be >= 1")
            positions.append((x, y, z))
            colors.append(tuple(int(round(c)) for c in rgb))
            if ncols == 7:
                labels.append(inst)
    if not positions:
        raise SceneFormatError(f"{path}: empty scene (no data records)")
    gt = np.array(labels, dtype=np.int32) if ncols == 7 else None
    return PointCloud(np.array(positions), np.array(colors, dtype=np.uint8), gt)


def write_labels_oracle(labels, path):
    """Write labels one `int()` at a time, a line each."""
    Path(path).write_text("\n".join(str(int(v)) for v in labels) + "\n")


def read_labels_oracle(path):
    """Read labels with one `int()` per whitespace-separated token."""
    values = [int(line) for line in Path(path).read_text().split()]
    return np.array(values, dtype=np.int32)


def save_scene_oracle(cloud, path):
    """Write a scene one f-string row at a time."""
    lines = []
    pos, col = cloud.positions, cloud.colors
    gt = cloud.gt_instance
    for i in range(cloud.n_points):
        row = f"{pos[i, 0]:.6f} {pos[i, 1]:.6f} {pos[i, 2]:.6f} {col[i, 0]:d} {col[i, 1]:d} {col[i, 2]:d}"
        if gt is not None:
            row += f" {gt[i]:d}"
        lines.append(row)
    Path(path).write_text("\n".join(lines) + "\n")


def ply_oracle(cloud, labels, path):
    """Write the palette-colored ASCII PLY one f-string row at a time."""
    rgb = PALETTE[(np.asarray(labels, dtype=np.int64) - 1) % len(PALETTE)]
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {cloud.n_points}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "end_header",
    ]
    pos = cloud.positions
    body = [
        f"{pos[i, 0]:.6f} {pos[i, 1]:.6f} {pos[i, 2]:.6f} {rgb[i, 0]:d} {rgb[i, 1]:d} {rgb[i, 2]:d}"
        for i in range(cloud.n_points)
    ]
    Path(path).write_text("\n".join(header + body) + "\n")
