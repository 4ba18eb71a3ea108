"""Deterministic synthetic room generator with exact instance ground truth.

Rooms are a floor plus four walls (five instances) and a number of primitive
objects (boxes, cylinders, spheres) resting on the floor, each surface-sampled
on a regular grid. Instances never share a point and every instance is
connected at the default neighbor radius.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .pointcloud import PointCloud, atomic_open, save_scene

# object shapes, drawn uniformly, and the ranges their sizes are drawn from (m)
SHAPES = ("box", "cylinder", "sphere")
BOX_SIDE = (0.15, 0.5)
BOX_HEIGHT = (0.03, 0.45)
CYLINDER_RADIUS = (0.08, 0.22)
CYLINDER_HEIGHT = (0.1, 0.5)
SPHERE_RADIUS = (0.08, 0.22)


@dataclass
class RoomConfig:
    extent: tuple[float, float, float] = (4.0, 4.0, 2.5)
    spacing: float = 0.03
    n_objects: tuple[int, int] = (5, 15)
    color_noise: float = 8.0

    def __post_init__(self):
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError(f"spacing must be finite and > 0, got {self.spacing}")
        if not all(math.isfinite(e) and e > 0 for e in self.extent):
            raise ValueError(f"extent must be finite and > 0, got {tuple(self.extent)}")


def _grid1d(length: float, spacing: float) -> np.ndarray:
    """Evenly spaced samples covering [0, length], centered within it."""
    if length < 0:
        return np.zeros(1)
    n = int(math.floor(length / spacing + 1e-9)) + 1
    start = (length - (n - 1) * spacing) / 2.0
    return start + np.arange(n) * spacing


def _plane(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    return np.stack([uu.ravel(), vv.ravel()], axis=1)


def _sample_box(w, d, h, yaw, spacing, z0) -> np.ndarray:
    pts = []
    top = _plane(_grid1d(w, spacing) - w / 2, _grid1d(d, spacing) - d / 2)
    pts.append(np.column_stack([top, np.full(len(top), z0 + h)]))
    if h >= spacing:
        zs = z0 + _grid1d(h - spacing / 2, spacing)
        xs = _grid1d(w, spacing) - w / 2
        ys = _grid1d(d - spacing, spacing) - (d - spacing) / 2
        for y in (-d / 2, d / 2):
            face = _plane(xs, zs)
            pts.append(np.column_stack([face[:, 0], np.full(len(face), y), face[:, 1]]))
        for x in (-w / 2, w / 2):
            face = _plane(ys, zs)
            pts.append(np.column_stack([np.full(len(face), x), face[:, 0], face[:, 1]]))
    out = np.concatenate(pts)
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return out @ rot.T


def _sample_cylinder(r, h, spacing, z0) -> np.ndarray:
    pts = []
    n_theta = max(6, int(round(2 * math.pi * r / spacing)))
    theta = np.arange(n_theta) * (2 * math.pi / n_theta)
    zs = z0 + _grid1d(h - spacing / 2, spacing)
    ring = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    for z in zs:
        pts.append(np.column_stack([ring, np.full(n_theta, z)]))
    # top cap: concentric rings plus center
    radius = r - spacing
    while radius > spacing / 2:
        m = max(4, int(round(2 * math.pi * radius / spacing)))
        ang = np.arange(m) * (2 * math.pi / m)
        pts.append(np.column_stack([radius * np.cos(ang), radius * np.sin(ang),
                                    np.full(m, z0 + h)]))
        radius -= spacing
    pts.append(np.array([[0.0, 0.0, z0 + h]]))
    return np.concatenate(pts)


def _sample_sphere(r, spacing, z0) -> np.ndarray:
    cz = z0 + r
    n_lat = max(3, int(round(math.pi * r / spacing)))
    pts = []
    for i in range(n_lat):
        phi = (i + 0.5) * math.pi / n_lat
        ring_r = r * math.sin(phi)
        z = cz + r * math.cos(phi)
        m = max(1, int(round(2 * math.pi * ring_r / spacing)))
        ang = np.arange(m) * (2 * math.pi / m)
        pts.append(np.column_stack([ring_r * np.cos(ang), ring_r * np.sin(ang),
                                    np.full(m, z)]))
    return np.concatenate(pts)


def generate_room(cfg: RoomConfig, seed: int) -> PointCloud:
    """Fully deterministic labeled room for one seed."""
    rng = np.random.default_rng(seed)
    ex, ey, ez = cfg.extent
    sp = cfg.spacing

    chunks: list[np.ndarray] = []
    instance_of: list[int] = []

    def emit(points: np.ndarray, inst: int) -> None:
        chunks.append(points)
        instance_of.extend([inst] * len(points))

    # floor (instance 1)
    floor = _plane(_grid1d(ex, sp), _grid1d(ey, sp))
    emit(np.column_stack([floor, np.zeros(len(floor))]), 1)

    # walls (instances 2..5); z starts one spacing above the floor and the
    # x-walls are trimmed in y so adjacent walls never share a point
    zs = sp + _grid1d(ez - sp, sp)
    xs_full = _grid1d(ex, sp)
    ys_trim = sp + _grid1d(ey - 2 * sp, sp)
    for inst, y in ((2, 0.0), (3, ey)):
        face = _plane(xs_full, zs)
        emit(np.column_stack([face[:, 0], np.full(len(face), y), face[:, 1]]), inst)
    for inst, x in ((4, 0.0), (5, ex)):
        face = _plane(ys_trim, zs)
        emit(np.column_stack([np.full(len(face), x), face[:, 0], face[:, 1]]), inst)

    # objects resting on the floor, never interpenetrating each other
    n_objects = int(rng.integers(cfg.n_objects[0], cfg.n_objects[1] + 1))
    placed: list[tuple[float, float, float]] = []  # (cx, cy, footprint radius)
    inst = 6
    z0 = sp / 2
    for _ in range(n_objects):
        shape = SHAPES[int(rng.integers(len(SHAPES)))]
        if shape == "box":
            w = rng.uniform(*BOX_SIDE)
            d = rng.uniform(*BOX_SIDE)
            h = rng.uniform(*BOX_HEIGHT)
            yaw = rng.uniform(0, 2 * math.pi)
            footprint = math.hypot(w, d) / 2
        elif shape == "cylinder":
            r = rng.uniform(*CYLINDER_RADIUS)
            h = rng.uniform(*CYLINDER_HEIGHT)
            footprint = r
        else:
            r = rng.uniform(*SPHERE_RADIUS)
            footprint = r
        margin = footprint + sp
        if ex - 2 * margin <= 0 or ey - 2 * margin <= 0:
            continue
        pos = None
        for _attempt in range(100):
            cx = rng.uniform(margin, ex - margin)
            cy = rng.uniform(margin, ey - margin)
            if all(math.hypot(cx - px, cy - py) >= footprint + pr + sp
                   for px, py, pr in placed):
                pos = (cx, cy)
                break
        if pos is None:
            continue
        if shape == "box":
            pts = _sample_box(w, d, h, yaw, sp, z0)
        elif shape == "cylinder":
            pts = _sample_cylinder(r, h, sp, z0)
        else:
            pts = _sample_sphere(r, sp, z0)
        pts = pts + np.array([pos[0], pos[1], 0.0])
        emit(pts, inst)
        placed.append((pos[0], pos[1], footprint))
        inst += 1

    positions = np.concatenate(chunks)
    labels = np.array(instance_of, dtype=np.int32)

    colors = np.empty((len(positions), 3), dtype=np.float64)
    for i in np.unique(labels):
        mask = labels == i
        base = rng.uniform(40.0, 215.0, size=3)
        colors[mask] = base + rng.normal(0.0, cfg.color_noise, size=(int(mask.sum()), 3))
    colors = np.clip(np.round(colors), 0, 255).astype(np.uint8)
    return PointCloud(positions, colors, labels)


def generate_split(cfg: RoomConfig, n_train: int, n_test: int, out_dir,
                   base_seed: int = 0, report=None) -> tuple[list[Path], list[Path]]:
    """Write train/ and test/ scene files with disjoint seed ranges plus a manifest.

    After each room, `report(points, generate_s, write_s)` is called if given,
    with the room's point count and the seconds spent generating and writing it."""
    out_dir = Path(out_dir)
    manifest = {"config": asdict(cfg), "base_seed": base_seed, "train": [], "test": []}
    paths = {"train": [], "test": []}
    for split, count, first_seed in (("train", n_train, base_seed),
                                     ("test", n_test, base_seed + 1_000_000)):
        (out_dir / split).mkdir(parents=True, exist_ok=True)
        for i in range(count):
            path = out_dir / split / f"scene_{i:04d}.txt"
            started = time.perf_counter()
            cloud = generate_room(cfg, first_seed + i)
            generated = time.perf_counter()
            save_scene(cloud, path)
            if report is not None:
                report(cloud.n_points, generated - started, time.perf_counter() - generated)
            manifest[split].append({"file": str(path.relative_to(out_dir)),
                                    "seed": first_seed + i})
            paths[split].append(path)
    with atomic_open(out_dir / "manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")
    return paths["train"], paths["test"]
