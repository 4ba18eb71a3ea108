import math
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (ply_oracle, read_labels_oracle, save_scene_oracle, scene_oracle,
                     write_labels_oracle)
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


# rows per write block: one row, a few, not dividing n, and more than any n
BLOCKS = st.sampled_from([1, 2, 7, 10**6])
COORD_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-7, -1e-7, 5e-7, -5e-7, 4.9999999e-7, 1e9, -1e9, 0.5, -2.25]),
    st.floats(-1e9, 1e9),
    st.floats(allow_nan=False, allow_infinity=False))
COLOR_VALUES = st.one_of(st.sampled_from([0, 255]), st.integers(0, 255))
ID_VALUES = st.one_of(st.sampled_from([1, 2**31 - 1]), st.integers(1, 2**31 - 1))


@st.composite
def clouds(draw):
    n = draw(st.integers(1, 30))
    pos = np.array(draw(st.lists(COORD_VALUES, min_size=3 * n, max_size=3 * n))).reshape(n, 3)
    col = np.array(draw(st.lists(COLOR_VALUES, min_size=3 * n, max_size=3 * n))).reshape(n, 3)
    gt = draw(st.none() | st.lists(ID_VALUES, min_size=n, max_size=n))
    return PointCloud(pos, col, gt)


def _same_bytes(write, oracle, *args):
    with tempfile.TemporaryDirectory() as tmp:
        got, expected = Path(tmp) / "got", Path(tmp) / "expected"
        write(*args, got)
        oracle(*args, expected)
        assert got.read_bytes() == expected.read_bytes()
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["expected", "got"]


class TestAgainstLabelsOracle:
    @given(st.sampled_from([np.int32, np.int64]),
           st.lists(st.integers(1, 2**31 - 1), max_size=200), BLOCKS)
    @settings(max_examples=200, deadline=None)
    def test_write_labels_matches_oracle(self, dtype, values, block):
        with mock.patch.object(pointcloud, "WRITE_BLOCK", block):
            _same_bytes(write_labels, write_labels_oracle, np.array(values, dtype=dtype))

    @given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=20), BLOCKS)
    @settings(max_examples=100, deadline=None)
    def test_write_labels_of_any_int64_matches_oracle(self, values, block):
        with mock.patch.object(pointcloud, "WRITE_BLOCK", block):
            _same_bytes(write_labels, write_labels_oracle, np.array(values, dtype=np.int64))

    @given(st.lists(st.one_of(
        st.sampled_from(["0", "7", "007", "0000000001", "2147483647", "2147483648", "4294967296",
                         "9999999999", "12345678901", "+7", "-7", "1_0", "", " ", "7 ", " 7",
                         "7\t", "1 2", "x", "1.0", "\u0663", "7\x00"]),
        st.integers(0, 2**31 + 9).map(str)), max_size=30),
        st.sampled_from(["\n", "\r\n"]), st.sampled_from(["\n", "\r\n", ""]))
    @settings(max_examples=300, deadline=None)
    def test_read_labels_matches_oracle(self, lines, eol, last):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.labels"
            path.write_bytes((eol.join(lines) + (last if lines else "")).encode())
            got, expected = _labels_outcome(read_labels, path), _labels_outcome(
                read_labels_oracle, path)
        assert got == expected

    def test_written_labels_take_the_vectorized_read(self, tmp_path, monkeypatch):
        labels = np.array([1, 10, 2147483647, 3, 0, 42], dtype=np.int32)
        path = tmp_path / "x.labels"
        write_labels(labels, path)

        def no_token_read(path):
            raise AssertionError("a written labels file fell back to int() per token")

        monkeypatch.setattr(pointcloud, "_read_label_tokens", no_token_read)
        got = read_labels(path)
        assert got.dtype == np.int32 and got.tobytes() == labels.tobytes()


def _labels_outcome(read, path):
    try:
        values = read(path)
    except Exception as exc:  # the comparison covers the exception type
        return ("raised", type(exc))
    return ("read", values.dtype, values.shape, values.tobytes())


class TestAgainstWriterOracles:
    @given(clouds(), BLOCKS)
    @settings(max_examples=200, deadline=None)
    def test_save_scene_matches_oracle(self, cloud, block):
        with mock.patch.object(pointcloud, "WRITE_BLOCK", block):
            _same_bytes(save_scene, save_scene_oracle, cloud)

    @given(clouds(), BLOCKS, st.data())
    @settings(max_examples=200, deadline=None)
    def test_ply_matches_oracle(self, cloud, block, data):
        labels = np.array(data.draw(st.lists(ID_VALUES, min_size=cloud.n_points,
                                             max_size=cloud.n_points)))
        with mock.patch.object(pointcloud, "WRITE_BLOCK", block):
            _same_bytes(export_colored_ply, ply_oracle, cloud, labels)

    def test_saving_a_large_cloud_holds_one_block(self, tmp_path):
        # the text of 200k rows is about 9 MB; one block of rows is far less
        cloud = make_cloud(200_000, seed=11)
        tracemalloc.start()
        try:
            save_scene(cloud, tmp_path / "big.txt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


WRITERS = {
    "scene": lambda cloud, path: save_scene(cloud, path),
    "labels": lambda cloud, path: write_labels(cloud.gt_instance, path),
    "ply": lambda cloud, path: export_colored_ply(cloud, cloud.gt_instance, path),
}


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    @pytest.mark.parametrize("error", [OSError("No space left on device"), KeyboardInterrupt()])
    def test_failure_after_the_first_block_keeps_the_old_file(self, tmp_path, monkeypatch,
                                                               writer, error):
        path = tmp_path / "out"
        WRITERS[writer](make_cloud(5, seed=1), path)
        before = path.read_bytes()
        real_write_rows = pointcloud._write_rows
        blocks = []

        def fails_after_one_block(fh, row_format, columns):
            class OneBlock:
                def write(self, text):
                    if blocks:
                        raise error
                    blocks.append(text)
                    fh.write(text)
            real_write_rows(OneBlock(), row_format, columns)

        monkeypatch.setattr(pointcloud, "WRITE_BLOCK", 2)
        monkeypatch.setattr(pointcloud, "_write_rows", fails_after_one_block)
        with pytest.raises(type(error)):
            WRITERS[writer](make_cloud(5, seed=2), path)
        assert len(blocks) == 1 and blocks[0].count("\n") == 2
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]
