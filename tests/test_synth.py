import math

import numpy as np
import pytest

from oracles import delta_components_oracle
from regrow.pointcloud import load_scene
from regrow.synth import RoomConfig, generate_room, generate_split

SMALL = RoomConfig(extent=(1.6, 1.6, 1.0), spacing=0.05, n_objects=(2, 5))


class TestRoomConfig:
    # a negative spacing never ends the cylinder cap loop, so it must be
    # refused before generate_room is reached
    @pytest.mark.parametrize("spacing", [0.0, -0.05, math.nan, math.inf])
    def test_spacing_not_above_zero_is_refused(self, spacing):
        with pytest.raises(ValueError, match="spacing must be finite and > 0"):
            RoomConfig(spacing=spacing)

    @pytest.mark.parametrize("extent", [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, math.inf)])
    def test_extent_not_above_zero_is_refused(self, extent):
        with pytest.raises(ValueError, match="extent must be finite and > 0"):
            RoomConfig(extent=extent)


class TestGenerateRoom:
    def test_no_objects_gives_five_instances(self):
        cfg = RoomConfig(extent=(1.2, 1.2, 0.8), spacing=0.06, n_objects=(0, 0))
        room = generate_room(cfg, seed=0)
        assert sorted(np.unique(room.gt_instance)) == [1, 2, 3, 4, 5]

    def test_deterministic_per_seed(self):
        a = generate_room(SMALL, seed=5)
        b = generate_room(SMALL, seed=5)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.colors, b.colors)
        assert np.array_equal(a.gt_instance, b.gt_instance)

    def test_different_seeds_differ(self):
        a = generate_room(SMALL, seed=1)
        b = generate_room(SMALL, seed=2)
        assert a.n_points != b.n_points or not np.array_equal(a.positions, b.positions)

    def test_instances_never_share_points_and_keep_gap(self):
        room = generate_room(SMALL, seed=7)
        pos = room.positions
        gt = room.gt_instance
        # no duplicate coordinates across instances
        _, first_idx = np.unique(pos.round(9), axis=0, return_index=True)
        dup_mask = np.ones(len(pos), dtype=bool)
        dup_mask[first_idx] = False
        for i in np.flatnonzero(dup_mask):
            same = (pos.round(9) == pos[i].round(9)).all(axis=1)
            assert len(np.unique(gt[same])) == 1
        # spot-check inter-instance gaps for object instances
        for inst in np.unique(gt):
            if inst <= 5:
                continue
            mine = pos[gt == inst]
            other = pos[(gt != inst) & (gt > 5)]
            if len(other) == 0:
                continue
            d = np.min(np.linalg.norm(mine[:, None, :2] - other[None, :, :2], axis=2))
            assert d >= SMALL.spacing / 2 - 1e-9

    def test_every_instance_large_enough(self):
        for seed in range(3):
            room = generate_room(SMALL, seed=seed)
            _, counts = np.unique(room.gt_instance, return_counts=True)
            assert counts.min() >= 10

    def test_every_instance_delta_connected(self):
        room = generate_room(SMALL, seed=11)
        for inst in np.unique(room.gt_instance):
            mask = room.gt_instance == inst
            seed_pt = int(np.flatnonzero(mask)[0])
            comp = delta_components_oracle(room.positions, mask, seed_pt, 0.1)
            assert len(comp) == int(mask.sum()), f"instance {inst} disconnected"

    def test_objects_rest_on_floor(self):
        room = generate_room(SMALL, seed=3)
        for inst in np.unique(room.gt_instance):
            if inst <= 5:
                continue
            zmin = room.positions[room.gt_instance == inst][:, 2].min()
            assert 0 < zmin <= 0.1  # near the floor but never inside it


class TestGenerateSplit:
    def test_file_layout_and_loadability(self, tmp_path):
        train, test = generate_split(SMALL, 3, 2, tmp_path, base_seed=4)
        assert len(train) == 3 and len(test) == 2
        assert (tmp_path / "manifest.json").exists()
        for path in train + test:
            cloud = load_scene(path)
            assert cloud.gt_instance is not None

    def test_disjoint_seed_ranges(self, tmp_path):
        train, test = generate_split(SMALL, 2, 2, tmp_path, base_seed=0)
        a = load_scene(train[0])
        b = load_scene(test[0])
        assert a.n_points != b.n_points or not np.array_equal(a.positions, b.positions)
