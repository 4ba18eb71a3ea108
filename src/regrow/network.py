"""Dual-branch point-wise mask network: forward, loss, hand-derived gradients.

Two input sets (region inliers and neighbor candidates) are encoded by
separate point-wise MLP branches, max-pooled into one global vector, and two
decoder branches score every point: the inlier branch emits removal
probabilities, the neighbor branch admission probabilities. Gradients are
derived by hand for this fixed graph; there is no autodiff involved.

`NetworkParams` is the `features.InputSpec` of the dataset header it was
trained on; the checkpoint records it, and growth reads it from there.
"""

from __future__ import annotations

import time
from concurrent.futures import wait
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .features import N_FEATURES, InputSpec
from .pointcloud import atomic_open
from .simulate import DatasetReader
from .worker import worker

PROB_EPS = 1e-7

FULL_ENC_WIDTHS = (64, 64, 64, 128, 512)
FULL_DEC_WIDTHS = (256, 128, 1)

# Per-branch forward multiply-adds from which a call runs its two branches on
# two threads (see `_both`). Set from the measured crossover on 2 cores with
# BLAS on 1 thread: below it the hand-off costs more than the overlap saves.
SPLIT_MIN_MACS = 8_000_000


class CheckpointError(ValueError):
    """A parameter file is malformed or does not match expectations."""


@dataclass
class BranchParams:
    enc_w: list[np.ndarray]
    enc_b: list[np.ndarray]
    dec_w: list[np.ndarray]
    dec_b: list[np.ndarray]


@dataclass(kw_only=True)
class NetworkParams(InputSpec):
    inlier: BranchParams
    neighbor: BranchParams
    enc_widths: tuple[int, ...]
    dec_widths: tuple[int, ...]
    skip_layer: int          # 1-based encoder layer whose output feeds the decoder

    @property
    def global_width(self) -> int:
        return self.enc_widths[-1]

    @property
    def dtype(self):
        return self.inlier.enc_w[0].dtype


def param_tensors(params: NetworkParams):
    """(name, array) pairs in fixed declaration order."""
    out = []
    for branch_name, bp in (("inlier", params.inlier), ("neighbor", params.neighbor)):
        for l, (w, b) in enumerate(zip(bp.enc_w, bp.enc_b), start=1):
            out.append((f"{branch_name}.enc{l}.w", w))
            out.append((f"{branch_name}.enc{l}.b", b))
        for l, (w, b) in enumerate(zip(bp.dec_w, bp.dec_b), start=1):
            out.append((f"{branch_name}.dec{l}.w", w))
            out.append((f"{branch_name}.dec{l}.b", b))
    return out


def _glorot(rng, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


def _architecture(enc_widths, dec_widths, skip_layer: int, n_features: int):
    """Checked widths, plus one branch's encoder and decoder layers as
    (fan_in, width) pairs."""
    enc_widths = tuple(int(w) for w in enc_widths)
    dec_widths = tuple(int(w) for w in dec_widths)
    if not enc_widths or not dec_widths:
        raise ValueError("encoder and decoder need at least one layer each")
    if dec_widths[-1] != 1:
        raise ValueError("last decoder width must be 1 (per-point logit)")
    if not 1 <= skip_layer <= len(enc_widths):
        raise ValueError(f"skip_layer must be in 1..{len(enc_widths)}")
    dec_in = enc_widths[skip_layer - 1] + 2 * enc_widths[-1]
    enc_layers = list(zip((n_features, *enc_widths[:-1]), enc_widths))
    dec_layers = list(zip((dec_in, *dec_widths[:-1]), dec_widths))
    return enc_widths, dec_widths, enc_layers, dec_layers


def init_params(enc_widths=FULL_ENC_WIDTHS, dec_widths=FULL_DEC_WIDTHS,
                skip_layer: int = 2, i_size: int = 512, j_size: int = 512,
                feature_columns=tuple(range(N_FEATURES)), normalize: bool = True,
                seed: int = 0, dtype=np.float32) -> NetworkParams:
    """Seeded uniform (Glorot-range) weights, zero biases."""
    enc_widths, dec_widths, enc_layers, dec_layers = _architecture(
        enc_widths, dec_widths, skip_layer, len(feature_columns))
    rng = np.random.default_rng(seed)

    def make_branch() -> BranchParams:
        return BranchParams([_glorot(rng, fan, w, dtype) for fan, w in enc_layers],
                            [np.zeros(w, dtype=dtype) for _, w in enc_layers],
                            [_glorot(rng, fan, w, dtype) for fan, w in dec_layers],
                            [np.zeros(w, dtype=dtype) for _, w in dec_layers])

    return NetworkParams(i_size, j_size, feature_columns, normalize, inlier=make_branch(),
                         neighbor=make_branch(), enc_widths=enc_widths,
                         dec_widths=dec_widths, skip_layer=skip_layer)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _pointwise(h: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Shared linear layer over all points: one flat matmul instead of a
    batched one (substantially faster through BLAS)."""
    batch, n, din = h.shape
    out = h.reshape(batch * n, din) @ w
    out += b
    return out.reshape(batch, n, w.shape[1])


def _encode(bp: BranchParams, x: np.ndarray):
    """One branch's point-wise MLP with rectifier activations, and its top
    layer max-pooled over the points. x: (B, n, F) -> ([x, h1, ...], (B, G)).

    Each layer is rectified in place: backward only needs its sign, and
    h > 0 exactly where the pre-activation is."""
    acts = [x]
    for w, b in zip(bp.enc_w, bp.enc_b):
        h = _pointwise(acts[-1], w, b)
        acts.append(np.maximum(h, 0, out=h))
    return acts, acts[-1].max(axis=1)


def _decode(bp: BranchParams, acts, pooled, skip_layer: int, global_vec: np.ndarray,
            want_cache: bool):
    """One branch's per-point decoder over the skip features concatenated with
    the global vector. Layer 1 splits over that concatenation, [s, g] @ W =
    s @ W[:s] + g @ W[s:], so the global half is applied once per sample as a
    (B, out) bias broadcast over the points instead of being tiled onto every
    point.

    Returns every layer's output (the hidden ones rectified in place, then the
    (B, n, 1) logits), the raw and the clipped probabilities, and, with
    `want_cache`, the pool winners of the encoder's top layer."""
    skip = acts[skip_layer]
    batch, n, s = skip.shape
    w0 = bp.dec_w[0]
    z = (skip.reshape(batch * n, s) @ w0[:s]).reshape(batch, n, w0.shape[1])
    z += (global_vec @ w0[s:] + bp.dec_b[0])[:, None, :]
    outs = [z]
    for w, b in zip(bp.dec_w[1:], bp.dec_b[1:]):
        h = np.maximum(outs[-1], 0, out=outs[-1])  # every layer but the last is rectified
        outs.append(_pointwise(h, w, b))
    raw = _sigmoid(outs[-1][..., 0])
    prob = np.clip(raw, PROB_EPS, 1.0 - PROB_EPS)
    return outs, raw, prob, _pool_argmax(acts[-1], pooled) if want_cache else None


def _pool_argmax(top: np.ndarray, pooled: np.ndarray) -> np.ndarray:
    """`top.argmax(axis=1)` given `pooled = top.max(axis=1)`: the first point
    equal to each pooled feature, found without argmax's strided pass.

    A hit at point k scores n - k, so the column maximum picks the first hit.
    A column with no hit holds a NaN; argmax answers for it."""
    n = top.shape[1]
    weights = np.arange(n, 0, -1, dtype=np.min_scalar_type(n))[:, None]
    hits = top == pooled[:, None, :]
    if weights.dtype == np.uint8:
        scores = hits.view(np.uint8)
        scores *= weights
    else:
        scores = hits * weights
    best = scores.max(axis=1)
    arg = n - best.astype(np.intp)
    b, g = np.nonzero(best == 0)
    if b.size:
        arg[b, g] = top[b, :, g].argmax(axis=1)
    return arg


def _split(params: NetworkParams, batch: int, n_points: int) -> bool:
    """Whether a call over `batch` samples of at least `n_points` points per
    branch is large enough to run its branches concurrently."""
    skip = params.enc_widths[params.skip_layer - 1]  # decoder layer 1's per-point rows
    fans = (params.n_features, *params.enc_widths[:-1], skip, *params.dec_widths[:-1])
    per_point = sum(f * w for f, w in zip(fans, (*params.enc_widths, *params.dec_widths)))
    return batch * n_points * per_point >= SPLIT_MIN_MACS


def _both(split: bool, half, inlier_args: tuple, neighbor_args: tuple):
    """(half(*inlier_args), half(*neighbor_args)). With `split`, the neighbor
    half runs on this process's worker thread (`worker.worker`) while the
    calling thread runs the inlier half. The halves share only read-only
    inputs, and NumPy and BLAS release the GIL for their arrays, so the
    results are the bytes of the sequential calls. The halves call no public
    function of this module, whose tracing wrappers (perfbench) keep one span
    stack for all threads.
    """
    if not split:
        return half(*inlier_args), half(*neighbor_args)
    future = worker().submit(half, *neighbor_args)
    try:
        first = half(*inlier_args)
    finally:
        wait([future])  # the neighbor half never outlives the call
    return first, future.result()


def forward_batch(params: NetworkParams, xi: np.ndarray, xn: np.ndarray,
                  want_cache: bool = False):
    """Forward pass over a batch. xi: (B, I, F), xn: (B, J, F).

    Returns (remove_prob (B, I), add_prob (B, J)[, cache]).
    """
    dtype = params.dtype
    xi = np.asarray(xi, dtype=dtype)
    xn = np.asarray(xn, dtype=dtype)
    if xi.ndim != 3 or xn.ndim != 3 or xi.shape[2] != params.n_features \
            or xn.shape[2] != params.n_features or xi.shape[0] != xn.shape[0]:
        raise ValueError(
            f"expected (B, n, {params.n_features}) inputs, got {xi.shape} and {xn.shape}")
    split = _split(params, xi.shape[0], min(xi.shape[1], xn.shape[1]))
    (ai, pool_i), (an, pool_n) = _both(split, _encode, (params.inlier, xi),
                                       (params.neighbor, xn))
    global_vec = np.concatenate([pool_i, pool_n], axis=1)
    (ui, raw_i, p_remove, argi), (un, raw_n, p_add, argn) = _both(
        split, _decode, (params.inlier, ai, pool_i, params.skip_layer, global_vec, want_cache),
        (params.neighbor, an, pool_n, params.skip_layer, global_vec, want_cache))
    if not want_cache:
        return p_remove, p_add
    # "zi"/"zn" and the hidden entries of "ui"/"un" hold rectified outputs,
    # whose signs are the pre-activations' signs
    cache = {
        "ai": ai, "an": an, "zi": ai[1:], "zn": an[1:], "argi": argi, "argn": argn,
        "global": global_vec, "ui": ui, "un": un,
        "p_remove": p_remove, "p_add": p_add,
        "raw_i": raw_i, "raw_n": raw_n,
    }
    return p_remove, p_add, cache


def _bce_batch(p: np.ndarray, target: np.ndarray) -> float:
    """Mean-over-points cross entropy, averaged over the batch (float64)."""
    p = p.astype(np.float64)
    t = target.astype(np.float64)
    per_point = -(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))
    return float(per_point.mean(axis=1).mean())


def batch_loss(p_remove: np.ndarray, p_add: np.ndarray, remove_t: np.ndarray,
               add_t: np.ndarray) -> float:
    return _bce_batch(p_remove, remove_t) + _bce_batch(p_add, add_t)


def _layer_grads(inp, dz):
    """(dW, db) for one shared linear layer via flat matmuls."""
    flat_in = inp.reshape(-1, inp.shape[2])
    flat_dz = dz.reshape(-1, dz.shape[2])
    return flat_in.T @ flat_dz, flat_dz.sum(axis=0)


def _input_grad(dz, w):
    """Gradient wrt a shared linear layer's input, as one flat matmul."""
    return (dz.reshape(-1, dz.shape[2]) @ w.T).reshape(*dz.shape[:2], w.shape[0])


def _decoder_backward(bp: BranchParams, outs, skip, global_vec, p_clamped, p_raw, target):
    """One branch's loss head and decoder: returns (decoder grads (dec_w,
    dec_b), d_skip, d_global contribution (B, 2G)). Clamped output
    probabilities receive zero gradient."""
    batch, n = p_clamped.shape
    d = (p_clamped.astype(np.float64) - np.asarray(target).astype(np.float64)) / (n * batch)
    d[(p_raw < PROB_EPS) | (p_raw > 1.0 - PROB_EPS)] = 0.0
    dz = d.astype(bp.dec_w[0].dtype)[..., None]  # (B, n, 1)
    layers = len(bp.dec_w)
    dec_w, dec_b = [None] * layers, [None] * layers
    for l in range(layers - 1, 0, -1):
        dec_w[l], dec_b[l] = _layer_grads(outs[l - 1], dz)
        dz = _input_grad(dz, bp.dec_w[l])
        dz *= outs[l - 1] > 0
    # layer 1: the skip rows act per point, the global rows per sample
    s = skip.shape[2]
    w0 = bp.dec_w[0]
    dw, dec_b[0] = _layer_grads(skip, dz)
    dz_sum = dz.sum(axis=1)  # (B, out)
    dec_w[0] = np.concatenate([dw, global_vec.T @ dz_sum])
    return (dec_w, dec_b), _input_grad(dz, w0[:s]), dz_sum @ w0[s:].T


def _encoder_backward(bp: BranchParams, acts, arg, dg, d_skip, skip_layer: int):
    """One branch's encoder grads (enc_w, enc_b). Max-pool routes each global
    feature's gradient to its argmax point."""
    layers = len(bp.enc_w)
    enc_w, enc_b = [None] * layers, [None] * layers
    dh = np.zeros_like(acts[-1])
    np.put_along_axis(dh, arg[:, None, :], dg[:, None, :], axis=1)
    for l in range(layers - 1, -1, -1):
        if l + 1 == skip_layer:
            dh += d_skip
        dz = np.multiply(dh, acts[l + 1] > 0, out=dh)  # dh is a fresh array here
        enc_w[l], enc_b[l] = _layer_grads(acts[l], dz)
        if l:  # nothing consumes the gradient wrt the network input
            dh = _input_grad(dz, bp.enc_w[l])
    return enc_w, enc_b


def backward(params: NetworkParams, cache: dict, remove_t: np.ndarray,
             add_t: np.ndarray) -> NetworkParams:
    """Gradients of the batch loss for every parameter.

    Max-pool routes each global feature's gradient to the argmax point (first
    index on ties); clamped output probabilities receive zero gradient.
    Rectifier masks come from the cached outputs' signs, and each gradient is
    the array its matmul or sum returns.
    """
    batch, i_size = cache["p_remove"].shape
    split = _split(params, batch, min(i_size, cache["p_add"].shape[1]))
    skip = params.skip_layer
    (dec_i, d_skip_i, d_glob_i), (dec_n, d_skip_n, d_glob_n) = _both(
        split, _decoder_backward,
        (params.inlier, cache["ui"], cache["ai"][skip], cache["global"],
         cache["p_remove"], cache["raw_i"], remove_t),
        (params.neighbor, cache["un"], cache["an"][skip], cache["global"],
         cache["p_add"], cache["raw_n"], add_t))
    d_global = d_glob_i + d_glob_n
    g_width = params.global_width
    enc_i, enc_n = _both(
        split, _encoder_backward,
        (params.inlier, cache["ai"], cache["argi"], d_global[:, :g_width], d_skip_i, skip),
        (params.neighbor, cache["an"], cache["argn"], d_global[:, g_width:], d_skip_n, skip))
    return replace(params, inlier=BranchParams(*enc_i, *dec_i),
                   neighbor=BranchParams(*enc_n, *dec_n))


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, params: NetworkParams, lr: float = 0.001) -> "AdamState":
        tensors = [t for _, t in param_tensors(params)]
        return cls([np.zeros_like(t) for t in tensors],
                   [np.zeros_like(t) for t in tensors], 0, lr)


def adam_step(state: AdamState, params: NetworkParams, grads: NetworkParams) -> None:
    """Standard bias-corrected update, in place on the parameter arrays.

    Two scratch arrays per tensor hold the intermediates; the operations and
    their order are those of p -= lr * (m / c1) / (sqrt(v / c2) + eps)."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for k, ((_, p), (_, g)) in enumerate(zip(param_tensors(params), param_tensors(grads))):
        m = state.m[k]
        v = state.v[k]
        step = np.multiply(g, 1.0 - b1)
        denom = np.multiply(g, 1.0 - b2)
        m *= b1
        m += step
        denom *= g
        v *= b2
        v += denom
        np.divide(v, c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += state.eps
        np.divide(m, c1, out=step)
        step *= state.lr
        step /= denom
        p -= step


@dataclass
class TrainConfig:
    enc_widths: tuple[int, ...] = FULL_ENC_WIDTHS
    dec_widths: tuple[int, ...] = FULL_DEC_WIDTHS
    skip_layer: int = 2
    lr: float = 0.001
    batch_size: int = 100
    epochs: int = 40
    seed: int = 0
    checkpoint: str | None = None

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def train(dataset_path, cfg: TrainConfig, report=None):
    """Train on a simulated dataset, read a batch at a time, for the input
    spec its header records; returns (params, per-epoch mean losses).

    After each epoch, `report(epoch, loss, seconds, samples)` is called if
    given, with the epoch's 1-based number, mean loss, wall time of its
    batches and sample count."""
    with DatasetReader(dataset_path) as ds:
        params = init_params(cfg.enc_widths, cfg.dec_widths, cfg.skip_layer, **vars(ds.spec),
                             seed=cfg.seed)
        adam = AdamState.init(params, lr=cfg.lr)
        rng = np.random.default_rng(cfg.seed)
        n = len(ds)
        losses = []
        for epoch in range(1, cfg.epochs + 1):
            started = time.perf_counter()
            order = rng.permutation(n)
            total = 0.0
            for start in range(0, n, cfg.batch_size):
                sel = order[start:start + cfg.batch_size]
                xi, xn, rt, at, _meta = ds.read(sel)
                p_remove, p_add, cache = forward_batch(params, xi, xn, want_cache=True)
                loss = batch_loss(p_remove, p_add, rt, at)
                grads = backward(params, cache, rt, at)
                adam_step(adam, params, grads)
                total += loss * len(sel)
            seconds = time.perf_counter() - started
            losses.append(total / n)
            if cfg.checkpoint:
                save_params(params, cfg.checkpoint)
            if report is not None:
                report(epoch, losses[-1], seconds, n)
    return params, losses


class Predictor:
    """Callable mask scorer backed by trained parameters."""

    def __init__(self, params: NetworkParams):
        self.params = params

    def __call__(self, inlier_feats: np.ndarray, neighbor_feats: np.ndarray):
        p_remove, p_add = forward_batch(self.params, inlier_feats[None],
                                        neighbor_feats[None])
        return p_remove[0].astype(np.float64), p_add[0].astype(np.float64)


CHECKPOINT_MAGIC = b"RGNW"
CHECKPOINT_VERSION = 1


def save_params(params: NetworkParams, path) -> None:
    """Self-describing checkpoint: magic, uint32 header, float32 tensors in
    declaration order. It replaces `path` only once complete (`atomic_open`)."""
    header = [CHECKPOINT_VERSION, params.n_features, params.i_size, params.j_size,
              len(params.enc_widths), *params.enc_widths,
              len(params.dec_widths), *params.dec_widths,
              params.skip_layer,
              len(params.feature_columns), *params.feature_columns,
              1 if params.normalize else 0]
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(np.array(header, dtype="<u4").tobytes())
        for _, tensor in param_tensors(params):
            fh.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())


def load_params(path) -> NetworkParams:
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a network checkpoint")
    words = np.frombuffer(raw, "<u4", len(raw) // 4 - 1, offset=4)
    pos = 0

    def take(count: int) -> np.ndarray:
        nonlocal pos
        if pos + count > words.size:
            raise CheckpointError(f"{path}: truncated checkpoint")
        pos += count
        return words[pos - count:pos]

    version, n_features, i_size, j_size, n_enc = take(5).tolist()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    enc_widths = take(n_enc)
    (n_dec,) = take(1).tolist()
    dec_widths = take(n_dec)
    skip_layer, n_cols = take(2).tolist()
    cols = tuple(take(n_cols).tolist())
    (normalize,) = take(1).tolist()
    if n_features != n_cols:
        raise CheckpointError(f"{path}: feature_columns length must equal n_features")
    try:
        spec = InputSpec(i_size, j_size, cols, bool(normalize))
        enc_widths, dec_widths, enc_layers, dec_layers = _architecture(
            enc_widths, dec_widths, skip_layer, n_features)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc

    def read(layers):
        """(weights, biases) of consecutive layers, stored as w1, b1, w2, ..."""
        weights, biases = [], []
        for fan, width in layers:
            weights.append(take(fan * width).view("<f4").reshape(fan, width).astype(np.float32))
            biases.append(take(width).view("<f4").astype(np.float32))
        return weights, biases

    inlier = BranchParams(*read(enc_layers), *read(dec_layers))
    neighbor = BranchParams(*read(enc_layers), *read(dec_layers))
    if 4 * (pos + 1) != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after tensor data")
    return NetworkParams(**vars(spec), inlier=inlier, neighbor=neighbor, enc_widths=enc_widths,
                         dec_widths=dec_widths, skip_layer=skip_layer)
