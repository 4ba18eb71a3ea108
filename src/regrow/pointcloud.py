"""Point cloud scene container plus text-format and PLY file I/O.

The native scene format is plain text, one point per line:

    x y z r g b [instance_id]

``#`` starts a comment line, coordinates are decimal floats in meters,
colors are integers in [0, 255] and the optional instance id is an
integer >= 1. Instance id 0 is reserved everywhere for "unassigned".
"""

from __future__ import annotations

import colorsys
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class SceneFormatError(ValueError):
    """A scene file could not be parsed."""


class IncompleteLabelsError(ValueError):
    """A labeling still contains unassigned (zero) entries."""


@dataclass(frozen=True)
class PointCloud:
    """One scene: positions in meters, RGB colors, optional instance labels.

    positions: (N, 3) float64, colors: (N, 3) uint8,
    gt_instance: (N,) int32 with ids >= 1, or None when unlabeled.
    """

    positions: np.ndarray
    colors: np.ndarray
    gt_instance: np.ndarray | None = None

    def __post_init__(self):
        pos = np.ascontiguousarray(np.asarray(self.positions, dtype=np.float64))
        col = np.ascontiguousarray(np.asarray(self.colors, dtype=np.uint8))
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "colors", col)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {pos.shape}")
        if pos.shape[0] < 1:
            raise ValueError("a point cloud needs at least one point")
        if not np.isfinite(pos).all():
            raise ValueError("positions contain non-finite values")
        if col.shape != pos.shape:
            raise ValueError(f"colors must match positions shape, got {col.shape}")
        if self.gt_instance is not None:
            gt = np.ascontiguousarray(np.asarray(self.gt_instance, dtype=np.int32))
            object.__setattr__(self, "gt_instance", gt)
            if gt.shape != (pos.shape[0],):
                raise ValueError(f"gt_instance must be (N,), got {gt.shape}")
            if gt.min() < 1:
                raise ValueError("instance ids must be >= 1")

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned (min_corner, max_corner) of all positions."""
        return self.positions.min(axis=0), self.positions.max(axis=0)

    def with_positions(self, positions: np.ndarray) -> "PointCloud":
        """Copy of this cloud with replaced positions (colors/labels shared)."""
        return PointCloud(positions, self.colors, self.gt_instance)


_XYZ_RGB = [("xyz", "f8", (3,)), ("rgb", "f8", (3,))]
_RECORD = {6: np.dtype(_XYZ_RGB), 7: np.dtype(_XYZ_RGB + [("id", "i8")])}
_ID_MAX = int(np.iinfo(np.int32).max)


def load_scene(path) -> PointCloud:
    """Parse a scene file, raising SceneFormatError with the offending line number.

    One `np.loadtxt` pass reads the whole file into records; a file that pass
    does not take (comment lines, Python-only spellings such as ``1_0``) or
    whose values fail a check is re-scanned line by line, which gives the
    same cloud or names the first offending line.
    """
    path = Path(path)
    cloud = _load_records(path)
    return cloud if cloud is not None else _load_lines(path)


def _load_records(path: Path) -> PointCloud | None:
    """The scene from one record pass, or None when it needs the line scan."""
    try:
        with open(path, "r") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. a file with no records
            ncols = len(fh.readline().split())
            if ncols not in _RECORD:
                return None
            fh.seek(0)
            rec = np.loadtxt(fh, dtype=_RECORD[ncols], comments=None, ndmin=1)
    except (ValueError, OverflowError, Warning):  # includes UnicodeDecodeError
        return None
    xyz, rgb = rec["xyz"], rec["rgb"]
    ids = rec["id"] if ncols == 7 else None
    if not (np.isfinite(xyz).all() and ((rgb >= 0) & (rgb <= 255)).all()
            and (ids is None or ((ids >= 1) & (ids <= _ID_MAX)).all())):
        return None
    return PointCloud(xyz, np.rint(rgb).astype(np.uint8), ids)


def _load_lines(path: Path) -> PointCloud:
    """The scene from a line-by-line scan, which skips blank and ``#`` lines."""
    positions: list[tuple[float, float, float]] = []
    colors: list[tuple[int, int, int]] = []
    labels: list[int] = []
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
            if not all(0 <= c <= 255 for c in rgb):
                raise SceneFormatError(f"{path}: line {lineno}: color outside [0, 255]")
            if ncols == 7 and inst < 1:
                raise SceneFormatError(f"{path}: line {lineno}: instance id must be >= 1")
            if ncols == 7 and inst > _ID_MAX:
                raise SceneFormatError(f"{path}: line {lineno}: instance id above {_ID_MAX}")
            positions.append((x, y, z))
            colors.append(tuple(int(round(c)) for c in rgb))
            if ncols == 7:
                labels.append(inst)
    if not positions:
        raise SceneFormatError(f"{path}: empty scene (no data records)")
    gt = np.array(labels, dtype=np.int32) if ncols == 7 else None
    return PointCloud(np.array(positions), np.array(colors, dtype=np.uint8), gt)


# rows formatted per `%` call and write: bounds a writer's memory by the
# block, not the scene
WRITE_BLOCK = 16384


@contextmanager
def atomic_open(path, mode: str = "w", newline: str | None = None):
    """Open a temporary file beside `path` that replaces it only when the
    block finishes; on any error the temporary file is removed and `path` is
    left as it was, so a reader never sees a partly written file. `mode` and
    `newline` are those of `open`."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_rows(fh, row_format: str, columns) -> None:
    """Write `row_format % (columns[0][i], columns[1][i], ...)` for every row
    i, WRITE_BLOCK rows to one format call; `%.6f` and `%d` give the bytes
    that `f"{x:.6f}"` and `f"{v:d}"` give."""
    n, width = len(columns[0]), len(columns)
    for lo in range(0, n, WRITE_BLOCK):
        hi = min(lo + WRITE_BLOCK, n)
        flat = [None] * ((hi - lo) * width)
        for c, col in enumerate(columns):
            flat[c::width] = col[lo:hi].tolist()
        fh.write(row_format * (hi - lo) % tuple(flat))


def save_scene(cloud: PointCloud, path) -> None:
    """Write a cloud in the canonical text format (positions to 6 decimals)."""
    pos, col, gt = cloud.positions, cloud.colors, cloud.gt_instance
    columns = [pos[:, 0], pos[:, 1], pos[:, 2], col[:, 0], col[:, 1], col[:, 2]]
    row_format = "%.6f %.6f %.6f %d %d %d"
    if gt is not None:
        columns.append(gt)
        row_format += " %d"
    with atomic_open(path) as fh:
        _write_rows(fh, row_format + "\n", columns)


_LINE_DIGITS = 10  # longest label line the vectorized reader takes


def read_labels(path) -> np.ndarray:
    """Read a labels file: one integer per line, aligned with the scene file.

    A file of newline-terminated lines of 1-10 ASCII digits each, with every
    value in int32, is parsed with array operations; any other file is read
    with `int()` per whitespace-separated token, which takes signs, ``_``
    and blank lines and raises on a value outside int32."""
    values = _digit_lines(Path(path).read_bytes())
    if values is not None and values.max() <= _ID_MAX:
        return values.astype(np.int32)
    return _read_label_tokens(path)


def _read_label_tokens(path) -> np.ndarray:
    return np.array([int(tok) for tok in Path(path).read_text().split()], dtype=np.int32)


def _digit_lines(data: bytes) -> np.ndarray | None:
    """The int64 values of a file of newline-terminated 1-10 digit lines, or
    None when the file has any other shape."""
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size == 0 or raw[-1] != ord("\n"):
        return None
    newline = raw == ord("\n")
    digit = raw - np.uint8(ord("0"))  # wraps every non-digit byte above 9
    if not ((digit <= 9) | newline).all():
        return None
    ends = np.flatnonzero(newline)
    lengths = np.diff(ends, prepend=-1) - 1
    if lengths.min() < 1 or lengths.max() > _LINE_DIGITS:
        return None
    # add the k-th digit from the right of every line that has one
    values = digit[ends - 1].astype(np.int64)
    for k in range(2, lengths.max() + 1):
        longer = np.flatnonzero(lengths >= k)
        values[longer] += digit[ends[longer] - k] * np.int64(10) ** (k - 1)
    return values


def write_labels(labels: np.ndarray, path) -> None:
    """Write one integer label per line; an empty labeling is one blank line."""
    values = np.asarray(labels, dtype=np.int64)
    with atomic_open(path) as fh:
        _write_rows(fh, "%d\n", [values])
        if len(values) == 0:
            fh.write("\n")


def _build_palette(n: int = 64) -> np.ndarray:
    """Fixed color table: golden-ratio hue walk with alternating tone tiers."""
    colors = []
    hue = 0.0
    for i in range(n):
        sat = (0.92, 0.62)[i % 2]
        val = (0.95, 0.70, 0.85, 0.55)[i % 4]
        r, g, b = colorsys.hsv_to_rgb(hue, sat, val)
        colors.append((int(round(r * 255)), int(round(g * 255)), int(round(b * 255))))
        hue = (hue + 0.61803398875) % 1.0
    return np.array(colors, dtype=np.uint8)


PALETTE = _build_palette()


def export_colored_ply(cloud: PointCloud, labels: np.ndarray, path) -> None:
    """Write an ASCII PLY where every instance gets one palette color.

    Colors are keyed by ``(instance_id - 1) % 64`` so output is deterministic
    and adjacent instance ids are visually distinct.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (cloud.n_points,):
        raise ValueError(f"labels must be (N,), got {labels.shape}")
    if (labels == 0).any():
        raise IncompleteLabelsError("labels contain unassigned (zero) entries")
    rgb = PALETTE[(labels - 1) % len(PALETTE)]
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
    with atomic_open(path) as fh:
        fh.write("\n".join(header) + "\n")
        _write_rows(fh, "%.6f %.6f %.6f %d %d %d\n",
                    [pos[:, 0], pos[:, 1], pos[:, 2], rgb[:, 0], rgb[:, 1], rgb[:, 2]])
