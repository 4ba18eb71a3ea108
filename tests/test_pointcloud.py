import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import scene_oracle, write_labels_oracle
from regrow import pointcloud
from regrow.pointcloud import (
    PALETTE,
    IncompleteLabelsError,
    PointCloud,
    SceneFormatError,
    export_colored_ply,
    load_scene,
    read_labels,
    save_scene,
    write_labels,
)


def make_cloud(n=10, labeled=True, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-2, 2, (n, 3)).round(6)
    col = rng.integers(0, 256, (n, 3)).astype(np.uint8)
    gt = rng.integers(1, 4, n).astype(np.int32) if labeled else None
    return PointCloud(pos, col, gt)


class TestPointCloud:
    def test_basic_invariants(self):
        cloud = make_cloud()
        assert cloud.n_points == 10
        lo, hi = cloud.bounds
        assert (cloud.positions >= lo).all() and (cloud.positions <= hi).all()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.uint8))

    def test_rejects_nonfinite(self):
        pos = np.array([[0.0, 0.0, np.nan]])
        with pytest.raises(ValueError):
            PointCloud(pos, np.zeros((1, 3), dtype=np.uint8))

    def test_rejects_zero_instance_id(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((1, 3)), np.zeros((1, 3), dtype=np.uint8), np.array([0]))


class TestSceneIO:
    def test_single_record(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("0 0 0 255 0 0 1\n")
        cloud = load_scene(path)
        assert cloud.n_points == 1
        assert cloud.gt_instance.tolist() == [1]
        assert cloud.colors.tolist() == [[255, 0, 0]]

    def test_optional_instance_column(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("0 0 0 1 2 3\n1 0 0 4 5 6\n")
        cloud = load_scene(path)
        assert cloud.gt_instance is None

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header\n\n0 0 0 1 2 3 1\n# trailing\n")
        assert load_scene(path).n_points == 1

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 0 1 2 3 1\n0 0 zap 1 2 3 1\n")
        with pytest.raises(SceneFormatError, match="line 2"):
            load_scene(path)

    def test_inconsistent_columns(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 0 1 2 3 1\n0 0 0 1 2 3\n")
        with pytest.raises(SceneFormatError, match="line 2"):
            load_scene(path)

    def test_empty_scene_error(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(SceneFormatError, match="empty"):
            load_scene(path)

    def test_roundtrip_values(self, tmp_path):
        cloud = make_cloud(50, seed=3)
        path = tmp_path / "scene.txt"
        save_scene(cloud, path)
        back = load_scene(path)
        np.testing.assert_allclose(back.positions, cloud.positions, atol=5e-7)
        assert np.array_equal(back.colors, cloud.colors)
        assert np.array_equal(back.gt_instance, cloud.gt_instance)

    def test_roundtrip_unlabeled(self, tmp_path):
        cloud = make_cloud(5, labeled=False)
        path = tmp_path / "scene.txt"
        save_scene(cloud, path)
        assert load_scene(path).gt_instance is None

    def test_canonical_files_roundtrip_byte_identical(self, tmp_path):
        cloud = make_cloud(25, seed=9)
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        save_scene(cloud, first)
        save_scene(load_scene(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_nan_color_names_line(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("0 0 0 1 2 3 1\n0 0 0 1 nan 3 1\n")
        with pytest.raises(SceneFormatError, match="line 2: color outside"):
            load_scene(path)

    def test_instance_id_above_int32_names_line(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("0 0 0 1 2 3 2147483647\n0 0 0 1 2 3 3000000000\n")
        with pytest.raises(SceneFormatError, match="line 2: instance id above 2147483647"):
            load_scene(path)

    def test_canonical_file_takes_one_pass(self, tmp_path, monkeypatch):
        cloud = make_cloud(40, seed=5)
        path = tmp_path / "scene.txt"
        save_scene(cloud, path)
        expected = load_scene(path)

        def no_line_scan(path):
            raise AssertionError("a canonical file fell back to the line scan")

        monkeypatch.setattr(pointcloud, "_load_lines", no_line_scan)
        back = load_scene(path)
        assert back.positions.tobytes() == expected.positions.tobytes()
        assert back.colors.tobytes() == expected.colors.tobytes()
        assert back.gt_instance.tobytes() == expected.gt_instance.tobytes()

    def test_labels_io(self, tmp_path):
        labels = np.array([1, 2, 3, 1], dtype=np.int32)
        path = tmp_path / "x.labels"
        write_labels(labels, path)
        assert np.array_equal(read_labels(path), labels)


class TestPlyExport:
    def test_palette_entries_distinct(self):
        assert len(np.unique(PALETTE, axis=0)) == 64

    def test_two_instances_two_colors(self, tmp_path):
        cloud = make_cloud(6, labeled=False)
        labels = np.array([1, 1, 1, 2, 2, 2])
        path = tmp_path / "o.ply"
        export_colored_ply(cloud, labels, path)
        body = path.read_text().split("end_header\n")[1].strip().splitlines()
        colors = {tuple(line.split()[3:6]) for line in body}
        assert len(colors) == 2

    def test_header_vertex_count(self, tmp_path):
        cloud = make_cloud(7, labeled=False)
        path = tmp_path / "o.ply"
        export_colored_ply(cloud, np.ones(7, dtype=int), path)
        assert f"element vertex 7" in path.read_text()

    def test_deterministic_output(self, tmp_path):
        cloud = make_cloud(6, labeled=False)
        labels = np.array([1, 2, 1, 2, 3, 3])
        a = tmp_path / "a.ply"
        b = tmp_path / "b.ply"
        export_colored_ply(cloud, labels, a)
        export_colored_ply(cloud, labels, b)
        assert a.read_bytes() == b.read_bytes()

    def test_zero_labels_rejected(self, tmp_path):
        cloud = make_cloud(3, labeled=False)
        with pytest.raises(IncompleteLabelsError):
            export_colored_ply(cloud, np.array([1, 0, 2]), tmp_path / "o.ply")


class TestSaveErrors:
    def test_unwritable_path_raises(self, tmp_path):
        cloud = make_cloud(3)
        with pytest.raises(OSError):
            save_scene(cloud, tmp_path)  # a directory is not writable as a file


# per field: (plain, other valid spellings, invalid values)
COORDS = (["0", "1.5", "-2.25", "0.1234567"], ["-0", "-0.0", "1e-3", ".5", "3.", "+4", "1_0"],
          ["nan", "inf", "-inf", "0x1", "1e400"])
COLORS = (["0", "255", "12"], ["7.5", "8.5", "254.5", "255.0", "1e2", "+3", "-0", "1_0"],
          ["-1", "256", "255.4", "nan", "inf"])
IDS = (["1", "2", "7"], ["+1", "01", "2147483647", "1_0"],
       ["1.0", "1e0", "0", "-1", "-0", "3000000000", "99999999999999999999", "x"])


@st.composite
def scene_files(draw):
    """Scene text with blank lines, tabs, CRLF, 6/7-column mixes, odd id and
    float spellings, nan/inf and # lines; half the files hold no invalid
    value, so both loaders often succeed."""
    ncols = draw(st.sampled_from([6, 7]))
    messy = draw(st.booleans())
    kinds = ["record"] * 8 + ["blank", "space", "comment"]
    if messy:
        kinds += ["mid-comment", "other-width"]

    def field(pools):
        plain, other, invalid = pools
        return draw(st.sampled_from(plain * 4 + other + (invalid if messy else [])))

    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", " \t "])))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["# header", "#", "  # indented"])))
        else:
            width = ncols if kind != "other-width" else 13 - ncols
            fields = [field(COORDS) for _ in range(3)] + [field(COLORS) for _ in range(3)]
            if width == 7:
                fields.append(field(IDS))
            line = draw(st.sampled_from([" ", " ", "\t", "  "])).join(fields)
            if kind == "mid-comment":
                line += draw(st.sampled_from([" # note", "#x"]))
            lines.append(draw(st.sampled_from(["", "", " ", "\t"])) + line)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    return text.encode()


def _outcome(load, path):
    try:
        cloud = load(path)
    except Exception as exc:  # the comparison covers the exception too
        return ("raised", type(exc), str(exc))
    gt = cloud.gt_instance
    return ("loaded", cloud.positions.dtype, cloud.positions.tobytes(),
            cloud.colors.dtype, cloud.colors.tobytes(),
            None if gt is None else (gt.dtype, gt.tobytes()))


class TestAgainstSceneOracle:
    @given(scene_files())
    @settings(max_examples=300, deadline=None)
    def test_load_scene_matches_oracle(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scene.txt"
            path.write_bytes(data)
            got = _outcome(load_scene, path)
            expected = _outcome(scene_oracle, path)
        if got == expected:
            return
        # the only differences allowed are the two mended defects: a NaN
        # color (a bare ValueError before) and an id above int32 (an
        # OverflowError once the whole file was read) now raise
        # SceneFormatError at their line
        kind, exc_type, message = got
        assert (kind, exc_type) == ("raised", SceneFormatError)
        lineno = _line_of(message)
        fields = data.decode().splitlines()[lineno - 1].split()
        if message.endswith("instance id above 2147483647"):
            assert int(fields[6]) > 2147483647
        else:
            assert message.endswith("color outside [0, 255]")
            assert any(math.isnan(float(f)) for f in fields[3:6])
        if expected[:2] == ("raised", SceneFormatError):
            # a later line, or this one's id check, which follows the color check
            assert _line_of(expected[2]) >= lineno
        else:
            assert expected[:2] in (("raised", ValueError), ("raised", OverflowError))


def _line_of(message):
    return int(re.search(r": line (\d+): ", message).group(1))


class TestAgainstLabelsOracle:
    @given(st.sampled_from([np.int32, np.int64]),
           st.lists(st.integers(1, 2**31 - 1), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_write_labels_matches_oracle(self, dtype, values):
        labels = np.array(values, dtype=dtype)
        with tempfile.TemporaryDirectory() as tmp:
            got, expected = Path(tmp) / "got.labels", Path(tmp) / "expected.labels"
            write_labels(labels, got)
            write_labels_oracle(labels, expected)
            assert got.read_bytes() == expected.read_bytes()
