import hashlib
import importlib.util
import json
import re
import shutil
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from regrow import cli, features, simulate, synth
from regrow.baselines import SmoothnessConfig, ThresholdConfig
from regrow.cli import main
from regrow.features import compute_features, radius_adjacency
from regrow.grow import GrowConfig, segment_scene
from regrow.network import TrainConfig, load_params
from regrow.pointcloud import load_scene, read_labels, write_labels
from regrow.search import SearchConfig
from regrow.simulate import DatasetWriter, SimConfig, TrainingSample

ABLATE_REQUIRED = ["ablate", "--train-scenes", "a", "--test-scenes", "b", "--workdir", "w",
                   "--knob", "full"]
SMALL_SYNTH = ["--extent", "1.4", "1.4", "0.9", "--spacing", "0.06",
               "--objects-min", "1", "--objects-max", "3"]


def run(args):
    return main(args)


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small synthetic split plus a trained desk model shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert run(["synth", "--out", str(root / "data"), "--train", "2", "--test", "1",
                "--seed", "3"] + SMALL_SYNTH) == 0
    assert run(["simulate", "--scenes", str(root / "data" / "train"),
                "--out", str(root / "train.bin"), "--i", "32", "--j", "32",
                "--seed", "1"]) == 0
    assert run(["train", "--dataset", str(root / "train.bin"),
                "--out", str(root / "model.ckpt"),
                "--enc-widths", "16", "16", "16", "16", "32",
                "--dec-widths", "32", "16", "1",
                "--epochs", "2", "--batch", "64", "--seed", "0"]) == 0
    return root


class TestSynth:
    def test_files_and_manifest(self, tmp_path):
        code = run(["synth", "--out", str(tmp_path), "--train", "3", "--test", "2",
                    "--seed", "7"] + SMALL_SYNTH)
        assert code == 0
        assert len(list((tmp_path / "train").glob("*.txt"))) == 3
        assert len(list((tmp_path / "test").glob("*.txt"))) == 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["train"]) == 3
        seeds = {e["seed"] for e in manifest["train"]} | {e["seed"] for e in manifest["test"]}
        assert len(seeds) == 5  # disjoint seed ranges

    def test_closing_line_counts_rooms_and_points(self, tmp_path, capsys):
        assert run(["synth", "--out", str(tmp_path), "--train", "2", "--test", "1",
                    "--seed", "4"] + SMALL_SYNTH) == 0
        wrote, closing = capsys.readouterr().out.splitlines()
        assert wrote == f"wrote 2 train + 1 test scenes to {tmp_path}"
        match = re.fullmatch(r"synth: 3 rooms, (\d+) points, generated in \d+\.\d{3} s, "
                             r"written in \d+\.\d{3} s", closing)
        assert match, closing
        assert int(match.group(1)) == sum(load_scene(p).n_points
                                          for p in tmp_path.glob("*/*.txt"))

    def test_zero_spacing_exits_two(self, tmp_path, capsys):
        # RoomConfig refuses it before any room is generated
        out = tmp_path / "rooms"
        assert run(["synth", "--out", str(out), "--spacing", "0"]) == 2
        assert capsys.readouterr().err == "error: spacing must be finite and > 0, got 0.0\n"
        assert not out.exists()

    def test_scenes_load_back(self, tmp_path):
        run(["synth", "--out", str(tmp_path), "--train", "1", "--test", "0",
             "--seed", "1"] + SMALL_SYNTH)
        cloud = load_scene(next((tmp_path / "train").glob("*.txt")))
        assert cloud.gt_instance is not None


class TestUsage:
    def test_unknown_flag_exits_one(self, capsys):
        assert run(["synth", "--bogus"]) == 1

    def test_unknown_command_exits_one(self):
        assert run(["frobnicate"]) == 1

    def test_help_available_everywhere(self, capsys):
        for cmd in ["synth", "features", "simulate", "train", "segment",
                    "baseline", "eval", "ablate"]:
            with pytest.raises(SystemExit) as exc:
                run([cmd, "--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert "--help" in out or "usage" in out

    def test_help_documents_defaults(self, capsys):
        with pytest.raises(SystemExit):
            run(["simulate", "--help"])
        out = capsys.readouterr().out
        assert "512" in out and "0.1" in out  # I/J and delta defaults

    def test_segment_defaults_match_configs(self):
        """Segment's flags, and every other command's flags that a config
        owns, default to that config's value."""
        def parse(*argv):
            return cli.build_parser().parse_args(list(argv))

        room, sim, net = synth.RoomConfig(), SimConfig(), TrainConfig()
        search, grow = SearchConfig(), GrowConfig()
        threshold, smooth = ThresholdConfig(), SmoothnessConfig()
        args = parse("segment", "--scenes", "s", "--model", "m", "--out", "o")
        assert (args.strategy, args.restarts, args.beam, args.expansions) == \
            (search.strategy, search.restarts, search.beam_width, search.expansions)
        assert (args.max_steps, args.min_segment) == (grow.max_steps, grow.min_segment)
        assert args.no_remove_mask is not grow.use_remove_mask
        assert args.random_seeding is (grow.seed_selection == "random")

        args = parse("synth", "--out", "o")
        assert (tuple(args.extent), args.spacing, (args.objects_min, args.objects_max),
                args.color_noise) == (room.extent, room.spacing, room.n_objects,
                                      room.color_noise)
        for argv in (["features", "--scenes", "s", "--out", "o"],
                     ["segment", "--scenes", "s", "--model", "m", "--out", "o"],
                     ["baseline", "--scenes", "s", "--method", "threshold", "--out", "o"]):
            args = parse(*argv)
            assert (args.delta, args.knn) == (sim.delta, sim.knn)
        args = parse("baseline", "--scenes", "s", "--method", "threshold", "--out", "o")
        assert (args.normal_angle_max, args.color_dist_max, args.theta_th, args.curvature_th,
                args.min_segment, args.min_segment) == \
            (threshold.normal_angle_max, threshold.color_dist_max, smooth.theta_th,
             smooth.curvature_th, threshold.min_segment, smooth.min_segment)

        args = parse("simulate", "--scenes", "s", "--out", "o")
        assert ((args.alpha_min, args.alpha_max), args.decay, args.no_normalize) == \
            (sim.alpha_range, sim.decay, not sim.normalize)
        args = parse("train", "--dataset", "d", "--out", "o")
        assert (args.skip_layer, args.seed) == (net.skip_layer, net.seed)
        for argv in (["simulate", "--scenes", "s", "--out", "o"], ABLATE_REQUIRED):
            args = parse(*argv)
            assert (args.i_size, args.j_size, args.delta, args.knn, args.augment, args.seed) == \
                (sim.i_size, sim.j_size, sim.delta, sim.knn, sim.augment_copies, sim.seed)
        for argv in (["train", "--dataset", "d", "--out", "o"], ABLATE_REQUIRED):
            args = parse(*argv)
            assert (args.lr, args.batch, args.epochs, tuple(args.enc_widths),
                    tuple(args.dec_widths), args.seed) == \
                (net.lr, net.batch_size, net.epochs, net.enc_widths, net.dec_widths, net.seed)

    def test_runtime_error_exits_two(self, tmp_path):
        assert run(["eval", "--scenes", str(tmp_path / "missing"),
                    "--pred", str(tmp_path), "--out", str(tmp_path / "x.csv")]) == 2

    def test_config_file_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# experiment\nspacing = 0.08\ntrain = 1\ntest = 0\n"
                       "objects_min = 0\nobjects_max = 0\n")
        out = tmp_path / "rooms"
        assert run(["--config", str(cfg), "synth", "--out", str(out), "--seed", "2"]) == 0
        assert len(list((out / "train").glob("*.txt"))) == 1

    def test_key_no_command_knows_is_warned_about(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "exp.cfg"
        # `knn` is not a synth flag but another command's, so it is silent
        cfg.write_text("spacng = 0.05\nknn = 8\nspacing = 0.07\n")
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "synth", lambda args: seen.append(args.spacing) or 0)
        assert run(["--config", str(cfg), "synth", "--out", str(tmp_path / "rooms")]) == 0
        assert seen == [0.07]
        err = capsys.readouterr().err
        assert err.count("warning") == 1
        assert f"warning: {cfg}: line 1:" in err and "'spacng'" in err

    def test_flags_beat_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("train = 5\n")
        out = tmp_path / "rooms"
        assert run(["--config", str(cfg), "synth", "--out", str(out),
                    "--train", "1", "--test", "0", "--seed", "2"] + SMALL_SYNTH) == 0
        assert len(list((out / "train").glob("*.txt"))) == 1

    @pytest.mark.parametrize("form", [["--config", "{}"], ["--config={}"], ["--conf", "{}"]],
                             ids=["separate", "equals", "abbreviated"])
    def test_every_config_spelling_is_read(self, tmp_path, monkeypatch, form):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("spacing = 0.05\n")
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "synth", lambda args: seen.append(args.spacing) or 0)
        argv = [arg.format(cfg) for arg in form]
        assert run(argv + ["synth", "--out", str(tmp_path / "rooms")]) == 0
        assert seen == [0.05]

    def test_unusable_config_exits_one(self, tmp_path, capsys):
        assert run(["--config"]) == 1
        rooms = tmp_path / "rooms"
        synth_argv = ["synth", "--out", str(rooms)]
        simulate_argv = ["simulate", "--scenes", str(tmp_path), "--out", str(rooms)]
        # file values are checked as the flags would be: type, arity and choices
        for body, argv, message in (
                (None, synth_argv, "missing.cfg"),
                ("spacing = wide", synth_argv, "invalid float value: 'wide'"),
                ("extent = 1 2", synth_argv, "argument --extent: expected 3 arguments"),
                ("features = bogus", simulate_argv,
                 "argument --features: invalid choice: 'bogus'")):
            cfg = tmp_path / ("missing.cfg" if body is None else "bad.cfg")
            if body is not None:
                cfg.write_text(body + "\n")
            assert run(["--config", str(cfg)] + argv) == 1
            assert message in capsys.readouterr().err
        assert not rooms.exists()

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    @pytest.mark.parametrize("form", [["--config", "{}"], ["--config={}"], ["--conf", "{}"]],
                             ids=["separate", "equals", "abbreviated"])
    def test_file_values_parse_as_flags(self, tmp_path, monkeypatch, command, form):
        """A file setting every optional key of a command gives the namespace
        that the same values give as flags."""
        required, dests, file_lines, flags = [], [], [], []
        for action in cli.build_parser().commands[command]._actions:
            if action.required:
                value = action.choices[-1] if action.choices else "x"
                required += [action.option_strings[0], value]
            elif action.dest != "help":
                values = _other_value(action)
                dests.append(action.dest)
                file_lines.append(f"{action.dest} = {' '.join(values) or 'yes'}\n")
                flags += [action.option_strings[0], *values]
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(file_lines))
        seen = []
        monkeypatch.setitem(cli._COMMANDS, command, lambda args: seen.append(vars(args)) or 0)
        assert run([arg.format(cfg) for arg in form] + [command] + required) == 0
        assert run([command] + required + flags) == 0
        seen.append(vars(cli.build_parser().parse_args([command] + required)))
        from_file, from_flags, defaults = seen
        assert (from_file.pop("config"), from_flags.pop("config"), defaults.pop("config")) == \
            (str(cfg), None, None)
        assert from_file == from_flags
        assert [k for k in from_file if from_file[k] != defaults[k]] == dests

    def test_required_flag_may_come_from_the_file(self, tmp_path, monkeypatch):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("out = from-file\nextent = 1 2 3\n")
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "synth", lambda args: seen.append(args) or 0)
        assert run(["--config", str(cfg), "synth"]) == 0
        assert run(["--config", str(cfg), "synth", "--out", "given",
                    "--extent", "4", "5", "6"]) == 0
        assert [(a.out, a.extent) for a in seen] == [("from-file", [1.0, 2.0, 3.0]),
                                                     ("given", [4.0, 5.0, 6.0])]


def _other_value(action) -> list[str]:
    """Flag values other than the action's default: none for a switch, one
    per argument otherwise."""
    if action.nargs == 0:
        return []
    if action.choices:
        return [next(c for c in reversed(action.choices) if c != action.default)]
    value = {int: "7", float: "0.625", None: "somewhere"}[action.type]
    return [value] * {None: 1, "+": 2}.get(action.nargs, action.nargs)


class TestConfigChecks:
    @pytest.mark.parametrize("argv,message", [
        (["segment", "--max-steps", "0"], "max_steps must be >= 1, got 0"),
        (["segment", "--max-steps", "-3"], "max_steps must be >= 1, got -3"),
        (["simulate", "--augment", "0"], "augment_copies must be >= 1, got 0"),
        (["simulate", "--i", "0"], "i_size must be >= 1, got 0"),
        (["simulate", "--j", "0"], "j_size must be >= 1, got 0"),
        (["simulate", "--alpha-min", "0.5", "--alpha-max", "0.3"],
         "alpha_range must have min <= max, got (0.5, 0.3)"),
    ], ids=["max-steps-0", "max-steps-minus-3", "augment-0", "i-0", "j-0", "alpha-swapped"])
    def test_nonsense_size_is_rejected(self, workspace, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        paths = {"segment": ["--scenes", str(workspace / "data" / "test"),
                             "--model", str(workspace / "model.ckpt"), "--out", str(out)],
                 "simulate": ["--scenes", str(workspace / "data" / "train"),
                              "--out", str(out)]}
        assert run(argv[:1] + paths[argv[0]] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not out.exists()


class TestFeaturesCommand:
    def test_cache_written(self, workspace, tmp_path):
        out = tmp_path / "feat"
        assert run(["features", "--scenes", str(workspace / "data" / "train"),
                    "--out", str(out)]) == 0
        cached = sorted(out.glob("*.features.npz"))
        assert len(cached) == 2
        data = np.load(cached[0])
        assert data["features"].shape[1] == 13

    def test_cache_holds_the_radius_adjacency(self, workspace, tmp_path):
        scenes = workspace / "data" / "train"
        out = tmp_path / "feat"
        assert run(["features", "--scenes", str(scenes), "--out", str(out),
                    "--delta", "0.08"]) == 0
        for scene_path in sorted(scenes.glob("*.txt")):
            indptr, indices = radius_adjacency(load_scene(scene_path).positions, 0.08)
            with np.load(out / f"{scene_path.stem}.features.npz") as data:
                assert float(data["delta"]) == 0.08
                for cached, fresh in ((data["adj_indptr"], indptr),
                                      (data["adj_indices"], indices)):
                    assert cached.dtype == fresh.dtype
                    assert cached.tobytes() == fresh.tobytes()
        assert not list(out.glob("*.tmp"))

    def test_one_line_per_scene_names_its_size(self, workspace, tmp_path, capsys):
        scenes = workspace / "data" / "train"
        out = tmp_path / "feat"
        assert run(["features", "--scenes", str(scenes), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        paths = sorted(scenes.glob("*.txt"))
        assert len(lines) == len(paths)
        for line, scene_path in zip(lines, paths):
            with np.load(out / f"{scene_path.stem}.features.npz") as data:
                points, entries = len(data["features"]), len(data["adj_indices"])
            assert re.fullmatch(rf"{scene_path.stem}: {points} points, {entries} adjacency "
                                r"entries, built in \d+\.\d{3} s", line)

    def test_interrupted_write_keeps_the_old_entry(self, workspace, tmp_path, monkeypatch):
        scenes = workspace / "data" / "test"
        out = tmp_path / "feat"
        assert run(["features", "--scenes", str(scenes), "--out", str(out)]) == 0
        entry = next(out.glob("*.features.npz"))
        before = entry.read_bytes()

        def interrupted(f, **arrays):
            f.write(b"PK\x03\x04 half an entry")
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.np, "savez", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run(["features", "--scenes", str(scenes), "--out", str(out)])
        assert entry.read_bytes() == before
        assert sorted(out.iterdir()) == [entry]

    def test_instance_id_above_int32_is_a_format_error(self, tmp_path, capsys):
        scene = tmp_path / "big.txt"
        scene.write_text("0 0 0 1 2 3 1\n0.1 0 0 1 2 3 3000000000\n0 0.1 0 1 2 3 1\n")
        assert run(["features", "--scenes", str(scene), "--out", str(tmp_path / "f")]) == 2
        assert "line 2: instance id above 2147483647" in capsys.readouterr().err


class TestTrainCommand:
    def test_epoch_lines_report_loss_then_time(self, workspace, tmp_path, capsys):
        assert run(["train", "--dataset", str(workspace / "train.bin"),
                    "--out", str(tmp_path / "m.ckpt"),
                    "--enc-widths", "8", "8", "8", "8", "16", "--dec-widths", "8", "8", "1",
                    "--epochs", "2", "--batch", "64", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        # the loss line keeps the exact form that log parsers anchor on
        assert len(re.findall(r"^epoch \d+: loss (\S+)$", out, re.M)) == 2
        lines = out.splitlines()
        for epoch in (1, 2):
            loss_line, time_line = lines[2 * epoch - 2:2 * epoch]
            assert re.fullmatch(rf"epoch {epoch}: loss \d+\.\d{{6}}", loss_line)
            match = re.fullmatch(
                rf"epoch {epoch} time: (\S+) s, (\S+) samples/s, peak RSS (\S+) MB", time_line)
            assert match and float(match[1]) > 0 and float(match[2]) > 0
            assert float(match[3]) > 0
        assert lines[4:] == [f"checkpoint written to {tmp_path / 'm.ckpt'}"]

    @pytest.mark.parametrize("flag,value,message", [
        ("--epochs", "0", "epochs must be >= 1, got 0"),
        ("--batch", "-5", "batch_size must be >= 1, got -5"),
        ("--batch", "0", "batch_size must be >= 1, got 0"),
    ], ids=["epochs-0", "batch-minus-5", "batch-0"])
    def test_size_below_one_is_rejected(self, workspace, tmp_path, capsys, flag, value,
                                        message):
        sizes = {"--epochs": "1", "--batch": "64", flag: value}
        assert run(["train", "--dataset", str(workspace / "train.bin"),
                    "--out", str(tmp_path / "m.ckpt"),
                    "--enc-widths", "8", "8", "8", "8", "16", "--dec-widths", "8", "8", "1",
                    *(arg for item in sizes.items() for arg in item)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and "checkpoint" not in captured.out
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("i_size,j_size", [(0, 4), (4, 0)], ids=["i-0", "j-0"])
    def test_dataset_with_an_empty_set_size_is_refused(self, tmp_path, capsys, i_size,
                                                       j_size):
        # a hand-written version 2 header, all 13 columns normalized, and 3 records
        records = np.zeros(3, simulate.record_dtype(i_size, j_size, 13))
        records["length"] = records.itemsize - 4
        dataset = tmp_path / "d.bin"
        dataset.write_bytes(b"RGDS" + np.array([2, i_size, j_size, 0x80001FFF], "<u4").tobytes()
                            + records.tobytes())
        assert run(["train", "--dataset", str(dataset), "--out", str(tmp_path / "m.ckpt"),
                    "--enc-widths", "8", "8", "8", "8", "16", "--dec-widths", "8", "8", "1",
                    "--epochs", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {dataset}: ")
        assert not (tmp_path / "m.ckpt").exists()

    def test_non_finite_loss_stops_training_and_keeps_the_checkpoint(self, tmp_path, capsys):
        dataset, model = tmp_path / "nan.bin", tmp_path / "m.ckpt"
        rng = np.random.default_rng(0)
        with DatasetWriter(dataset, SimConfig(i_size=4, j_size=4)) as writer:
            for k in range(3):
                xi = rng.normal(size=(4, 13)).astype(np.float32)
                if k == 1:
                    xi[2, 5] = np.nan  # one inlier feature of one record
                writer.write(TrainingSample(xi, rng.normal(size=(4, 13)).astype(np.float32),
                                            np.zeros(4, np.uint8), np.ones(4, np.uint8),
                                            (0, 0, k)))
        model.write_bytes(b"the previous checkpoint")
        assert run(["train", "--dataset", str(dataset), "--out", str(model),
                    "--enc-widths", "8", "8", "8", "8", "16", "--dec-widths", "8", "8", "1",
                    "--epochs", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {dataset}: loss nan in epoch 1, batch 1\n"
        assert "epoch 1: loss" not in captured.out
        assert model.read_bytes() == b"the previous checkpoint"


    @pytest.mark.parametrize("flags,spec", [
        (["--no-normalize"], (tuple(range(13)), False)),
        (["--features", "xyz"], ((0, 1, 2, 3, 4, 5), True)),
    ], ids=["no-normalize", "xyz"])
    def test_checkpoint_takes_the_input_spec_of_the_dataset(self, workspace, tmp_path, flags,
                                                            spec):
        dataset, model = tmp_path / "d.bin", tmp_path / "m.ckpt"
        assert run(["simulate", "--scenes", str(workspace / "data" / "train"),
                    "--out", str(dataset), "--i", "16", "--j", "16", "--seed", "1",
                    *flags]) == 0
        assert run(["train", "--dataset", str(dataset), "--out", str(model),
                    "--enc-widths", "8", "8", "8", "8", "16", "--dec-widths", "8", "8", "1",
                    "--epochs", "1", "--batch", "64"]) == 0
        params = load_params(model)
        assert (params.feature_columns, params.normalize) == spec
        assert (params.i_size, params.j_size) == (16, 16)

    def test_one_config_file_sets_the_spec_for_simulate_and_train(self, workspace, tmp_path,
                                                                  capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("features = xyz\nno_normalize = yes\ni_size = 16\nj_size = 16\n"
                       "epochs = 1\nenc_widths = 8 8 8 8 16\ndec_widths = 8 8 1\n")
        dataset, model = tmp_path / "d.bin", tmp_path / "m.ckpt"
        assert run(["--config", str(cfg), "simulate", "--scenes",
                    str(workspace / "data" / "train"), "--out", str(dataset)]) == 0
        assert run(["--config", str(cfg), "train", "--dataset", str(dataset),
                    "--out", str(model)]) == 0
        params = load_params(model)
        assert (params.feature_columns, params.normalize) == ((0, 1, 2, 3, 4, 5), False)
        assert "warning" not in capsys.readouterr().err


class TestSegmentAndEval:
    def test_checkpoint_with_a_set_size_above_the_bound_is_refused(self, workspace, tmp_path,
                                                                   capsys):
        model = tmp_path / "m.ckpt"
        raw = bytearray((workspace / "model.ckpt").read_bytes())
        raw[12:16] = np.array([65_537], "<u4").tobytes()  # uint32 word 2 of the header: I
        model.write_bytes(bytes(raw))
        assert run(["segment", "--scenes", str(workspace / "data" / "test"),
                    "--model", str(model), "--out", str(tmp_path / "pred")]) == 2
        assert capsys.readouterr().err == \
            f"error: {model}: i_size must be <= 65536, got 65537\n"

    def test_greedy_segment_writes_labels_and_stats(self, workspace, tmp_path):
        out = tmp_path / "pred"
        assert run(["segment", "--scenes", str(workspace / "data" / "test"),
                    "--model", str(workspace / "model.ckpt"),
                    "--out", str(out), "--strategy", "greedy", "--seed", "4"]) == 0
        labels_files = sorted(out.glob("*.labels"))
        assert len(labels_files) == 1
        scene = load_scene(next((workspace / "data" / "test").glob("*.txt")))
        labels = read_labels(labels_files[0])
        assert len(labels) == scene.n_points
        assert (labels > 0).all()
        stats = json.loads(labels_files[0].with_suffix(".stats.json").read_text())
        assert stats["config"]["strategy"] == "greedy"

    def test_stats_record_the_search_and_grow_settings(self, workspace, tmp_path):
        out = tmp_path / "pred"
        assert run(["segment", "--scenes", str(workspace / "data" / "test"),
                    "--model", str(workspace / "model.ckpt"), "--out", str(out),
                    "--strategy", "bs-np", "--restarts", "3", "--beam", "2",
                    "--expansions", "4", "--seed", "6", "--min-segment", "5",
                    "--max-steps", "9", "--no-remove-mask", "--random-seeding"]) == 0
        stats = json.loads(next(out.glob("*.stats.json")).read_text())
        assert list(stats["config"].items()) == [
            ("strategy", "bs-np"), ("restarts", 3), ("beam", 2), ("expansions", 4),
            ("seed", 6), ("min_segment", 5), ("max_steps", 9)]

    def test_restarts_honored(self, workspace, tmp_path):
        out = tmp_path / "pred_rr"
        assert run(["segment", "--scenes", str(workspace / "data" / "test"),
                    "--model", str(workspace / "model.ckpt"),
                    "--out", str(out), "--strategy", "rr-np", "--restarts", "10",
                    "--seed", "4"]) == 0
        stats_file = next(out.glob("*.stats.json"))
        stats = json.loads(stats_file.read_text())
        assert stats["config"]["restarts"] == 10
        assert stats["config"]["strategy"] == "rr-np"
        assert stats["inferences"] >= 10

    def test_ply_export(self, workspace, tmp_path):
        out = tmp_path / "pred_ply"
        assert run(["segment", "--scenes", str(workspace / "data" / "test"),
                    "--model", str(workspace / "model.ckpt"),
                    "--out", str(out), "--ply", "--seed", "4"]) == 0
        ply = next(out.glob("*.ply"))
        assert ply.read_text().startswith("ply\nformat ascii 1.0")

    def test_eval_on_perfect_predictions(self, workspace, tmp_path):
        pred = tmp_path / "perfect"
        pred.mkdir()
        for scene_path in (workspace / "data" / "test").glob("*.txt"):
            cloud = load_scene(scene_path)
            write_labels(cloud.gt_instance, pred / f"{scene_path.stem}.labels")
        csv_path = tmp_path / "metrics.csv"
        assert run(["eval", "--scenes", str(workspace / "data" / "test"),
                    "--pred", str(pred), "--out", str(csv_path)]) == 0
        rows = csv_path.read_text().strip().splitlines()
        mean_row = [r for r in rows if r.startswith("mean,")][0]
        vals = [float(v) for v in mean_row.split(",")[1:7]]
        assert vals == [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]

    def test_baseline_command(self, workspace, tmp_path):
        out = tmp_path / "bl"
        assert run(["baseline", "--scenes", str(workspace / "data" / "test"),
                    "--method", "threshold", "--out", str(out)]) == 0
        labels = read_labels(next(out.glob("*.labels")))
        assert (labels > 0).all()


class TestDeterminism:
    def test_simulate_bit_reproducible(self, workspace, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        for out in (a, b):
            assert run(["simulate", "--scenes", str(workspace / "data" / "train"),
                        "--out", str(out), "--i", "16", "--j", "16",
                        "--seed", "9"]) == 0
        assert sha(a) == sha(b)

    def test_train_bit_reproducible(self, workspace, tmp_path):
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        for out in (a, b):
            assert run(["train", "--dataset", str(workspace / "train.bin"),
                        "--out", str(out),
                        "--enc-widths", "16", "16", "16", "16", "32",
                        "--dec-widths", "32", "16", "1",
                        "--epochs", "1", "--batch", "64", "--seed", "5"]) == 0
        assert sha(a) == sha(b)

    def test_segment_greedy_bit_reproducible(self, workspace, tmp_path):
        hashes = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            assert run(["segment", "--scenes", str(workspace / "data" / "test"),
                        "--model", str(workspace / "model.ckpt"),
                        "--out", str(out), "--strategy", "greedy",
                        "--seed", "11"]) == 0
            hashes.append(sha(next(out.glob("*.labels"))))
        assert hashes[0] == hashes[1]


class TestParallelAndCache:
    def test_jobs_matches_serial(self, workspace, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        for out, jobs in ((serial, "1"), (parallel, "2")):
            assert run(["baseline", "--scenes", str(workspace / "data" / "train"),
                        "--method", "smoothness", "--out", str(out),
                        "--jobs", jobs]) == 0
        for f in sorted(serial.glob("*.labels")):
            assert sha(f) == sha(parallel / f.name)

    def test_segment_uses_feature_cache(self, workspace, tmp_path):
        cache = tmp_path / "cache"
        assert run(["features", "--scenes", str(workspace / "data" / "test"),
                    "--out", str(cache)]) == 0
        plain = tmp_path / "plain"
        cached = tmp_path / "cached"
        for out, extra in ((plain, []), (cached, ["--features-dir", str(cache)])):
            assert run(["segment", "--scenes", str(workspace / "data" / "test"),
                        "--model", str(workspace / "model.ckpt"),
                        "--out", str(out), "--seed", "4"] + extra) == 0
        f = next(plain.glob("*.labels"))
        assert sha(f) == sha(cached / f.name)

    def test_cache_with_other_knn_is_recomputed(self, workspace, tmp_path, monkeypatch):
        scenes = workspace / "data" / "test"
        cache = tmp_path / "cache"
        assert run(["features", "--scenes", str(scenes), "--out", str(cache),
                    "--knn", "8"]) == 0
        used = []

        def spy(cloud, **kwargs):
            ctx = build_context(cloud, **kwargs)
            used.append(ctx.features)
            return ctx

        build_context = cli.build_context
        monkeypatch.setattr(cli, "build_context", spy)
        assert run(["segment", "--scenes", str(scenes), "--model", str(workspace / "model.ckpt"),
                    "--out", str(tmp_path / "pred"), "--knn", "16",
                    "--features-dir", str(cache)]) == 0
        scene = load_scene(next(scenes.glob("*.txt")))
        np.testing.assert_array_equal(used[0], compute_features(scene, k=16))

    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts of the features and adjacencies that contexts compute."""
        counts = {"features": 0, "adjacency": 0}

        def counted(fn, key):
            def spy(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return spy

        monkeypatch.setattr(features, "compute_features",
                            counted(features.compute_features, "features"))
        monkeypatch.setattr(features, "radius_adjacency",
                            counted(features.radius_adjacency, "adjacency"))
        return counts

    def test_matching_cache_skips_the_adjacency(self, workspace, tmp_path, builds):
        scenes = workspace / "data" / "test"
        cache = tmp_path / "cache"
        assert run(["features", "--scenes", str(scenes), "--out", str(cache)]) == 0
        builds.update(features=0, adjacency=0)  # the cache's own builds
        cached = ["--features-dir", str(cache)]
        assert run(["baseline", "--scenes", str(scenes), "--method", "smoothness",
                    "--out", str(tmp_path / "bl")] + cached) == 0
        assert run(["segment", "--scenes", str(scenes), "--model", str(workspace / "model.ckpt"),
                    "--out", str(tmp_path / "pred"), "--seed", "4"] + cached) == 0
        assert builds == {"features": 0, "adjacency": 0}

    def test_cache_at_other_delta_recomputes_the_adjacency(self, workspace, tmp_path, builds):
        scenes = workspace / "data" / "train"
        cache = tmp_path / "cache"
        assert run(["features", "--scenes", str(scenes), "--out", str(cache),
                    "--delta", "0.08"]) == 0
        builds.update(features=0, adjacency=0)  # the cache's own builds
        for out, extra in (("fresh", []), ("cached", ["--features-dir", str(cache)])):
            assert run(["baseline", "--scenes", str(scenes), "--method", "threshold",
                        "--out", str(tmp_path / out)] + extra) == 0
        # two scenes: both built fresh, then only the adjacency for the cached run
        assert builds == {"features": 2, "adjacency": 4}
        for f in sorted((tmp_path / "fresh").glob("*.labels")):
            assert sha(f) == sha(tmp_path / "cached" / f.name)

    def test_cache_without_adjacency_is_rebuilt(self, workspace, tmp_path, builds):
        scenes = workspace / "data" / "test"
        cache = tmp_path / "cache"
        assert run(["features", "--scenes", str(scenes), "--out", str(cache)]) == 0
        builds.update(features=0, adjacency=0)  # the cache's own builds
        # an entry of an earlier format, which held features and keys only, is a miss
        entry = next(cache.glob("*.features.npz"))
        with np.load(entry) as data:
            old = {k: data[k] for k in ("features", "delta", "knn", "scene_sha256")}
        np.savez(entry, **old)
        for out, extra in (("fresh", []), ("cached", ["--features-dir", str(cache)])):
            assert run(["baseline", "--scenes", str(scenes), "--method", "smoothness",
                        "--out", str(tmp_path / out)] + extra) == 0
        assert builds == {"features": 2, "adjacency": 2}
        f = next((tmp_path / "fresh").glob("*.labels"))
        assert sha(f) == sha(tmp_path / "cached" / f.name)

    @pytest.fixture
    def parses(self, monkeypatch):
        """Names of the scene files that `cli` parses."""
        parsed = []

        def spy(path):
            parsed.append(Path(path).name)
            return load_scene(path)

        monkeypatch.setattr(cli, "load_scene", spy)
        return parsed

    def test_matching_cache_never_parses_the_scene(self, workspace, tmp_path, parses):
        scenes = workspace / "data" / "train"
        cache = tmp_path / "cache"
        assert run(["features", "--scenes", str(scenes), "--out", str(cache)]) == 0
        for scene_path in sorted(scenes.glob("*.txt")):
            cloud = load_scene(scene_path)
            with np.load(cache / f"{scene_path.stem}.features.npz") as data:
                for key in ("positions", "colors", "gt_instance"):
                    assert data[key].dtype == getattr(cloud, key).dtype
                    assert data[key].tobytes() == getattr(cloud, key).tobytes()
        parses.clear()
        for method in ("threshold", "smoothness"):
            assert run(["baseline", "--scenes", str(scenes), "--method", method,
                        "--out", str(tmp_path / f"{method}-cached"),
                        "--features-dir", str(cache)]) == 0
        assert parses == []
        for method in ("threshold", "smoothness"):
            assert run(["baseline", "--scenes", str(scenes), "--method", method,
                        "--out", str(tmp_path / f"{method}-fresh")]) == 0
            fresh = sorted((tmp_path / f"{method}-fresh").glob("*.labels"))
            assert len(fresh) == 2
            for f in fresh:
                assert sha(f) == sha(tmp_path / f"{method}-cached" / f.name)

    def test_cache_without_cloud_is_rebuilt(self, workspace, tmp_path, builds, parses):
        scenes = workspace / "data" / "test"
        cache = tmp_path / "cache"
        assert run(["features", "--scenes", str(scenes), "--out", str(cache)]) == 0
        builds.update(features=0, adjacency=0)  # the cache's own builds
        # an entry of an earlier format, which held no cloud, is a miss
        entry = next(cache.glob("*.features.npz"))
        with np.load(entry) as data:
            old = {k: data[k] for k in data.files
                   if k not in ("positions", "colors", "gt_instance")}
        np.savez(entry, **old)
        parses.clear()
        assert run(["baseline", "--scenes", str(scenes), "--method", "threshold",
                    "--out", str(tmp_path / "cached"), "--features-dir", str(cache)]) == 0
        assert parses == [next(scenes.glob("*.txt")).name]
        assert builds == {"features": 1, "adjacency": 1}
        assert run(["baseline", "--scenes", str(scenes), "--method", "threshold",
                    "--out", str(tmp_path / "fresh")]) == 0
        f = next((tmp_path / "fresh").glob("*.labels"))
        assert sha(f) == sha(tmp_path / "cached" / f.name)

    def test_damaged_cache_is_recomputed(self, workspace, tmp_path):
        scenes = workspace / "data" / "test"
        cache = tmp_path / "cache"
        assert run(["features", "--scenes", str(scenes), "--out", str(cache)]) == 0
        entry = next(cache.glob("*.features.npz"))
        entry.write_bytes(entry.read_bytes()[:entry.stat().st_size // 2])
        for out, extra in (("fresh", []), ("cached", ["--features-dir", str(cache)])):
            assert run(["baseline", "--scenes", str(scenes), "--method", "threshold",
                        "--out", str(tmp_path / out)] + extra) == 0
        f = next((tmp_path / "fresh").glob("*.labels"))
        assert sha(f) == sha(tmp_path / "cached" / f.name)

    def test_cache_of_rewritten_scene_is_recomputed(self, workspace, tmp_path, parses):
        scenes = tmp_path / "scenes"
        shutil.copytree(workspace / "data" / "test", scenes)
        cache = tmp_path / "cache"
        assert run(["features", "--scenes", str(scenes), "--out", str(cache)]) == 0
        # the same file size, other point order
        scene = next(scenes.glob("*.txt"))
        lines = scene.read_text().splitlines(keepends=True)
        scene.write_text("".join(lines[1:] + lines[:1]))
        parses.clear()
        for out, extra in (("fresh", []), ("cached", ["--features-dir", str(cache)])):
            assert run(["baseline", "--scenes", str(scenes), "--method", "smoothness",
                        "--out", str(tmp_path / out)] + extra) == 0
        assert parses == [scene.name, scene.name]  # the cached run parses it again
        f = next((tmp_path / "fresh").glob("*.labels"))
        assert sha(f) == sha(tmp_path / "cached" / f.name)


class TestAblate:
    def test_rerun_with_other_epochs_trains_again(self, workspace, tmp_path, monkeypatch):
        trained = []

        def spy(dataset, cfg):
            trained.append(cfg.epochs)
            return train(dataset, cfg)

        train = cli.train
        monkeypatch.setattr(cli, "train", spy)
        train_dir = tmp_path / "train"
        shutil.copytree(workspace / "data" / "train", train_dir)

        def ablate(epochs):
            assert run(["ablate", "--train-scenes", str(train_dir),
                        "--test-scenes", str(workspace / "data" / "test"),
                        "--workdir", str(tmp_path / "work"), "--knob", "full",
                        "--i", "32", "--j", "32", "--epochs", epochs,
                        "--enc-widths", "8", "8", "8", "8", "16",
                        "--dec-widths", "16", "8", "1", "--seed", "0"]) == 0

        for epochs in ("1", "2", "2"):
            ablate(epochs)
        assert trained == [1, 2]  # the same settings again reuse the cached model
        assert len(list((tmp_path / "work" / "models").glob("*.ckpt"))) == 2
        assert len(list((tmp_path / "work" / "datasets").glob("*.bin"))) == 1

        # a training scene edited in place at the same size is a new input
        scene = next(train_dir.glob("*.txt"))
        lines = scene.read_text().splitlines(keepends=True)
        scene.write_text("".join(lines[1:] + lines[:1]))
        ablate("2")
        assert trained == [1, 2, 2]
        assert len(list((tmp_path / "work" / "datasets").glob("*.bin"))) == 2

    @staticmethod
    def cached(workspace, workdir):
        """Run the full knob once; the counts of cached datasets and models."""
        assert run(["ablate", "--train-scenes", str(workspace / "data" / "train"),
                    "--test-scenes", str(workspace / "data" / "test"),
                    "--workdir", str(workdir), "--knob", "full",
                    "--i", "32", "--j", "32", "--epochs", "1",
                    "--enc-widths", "8", "8", "8", "8", "16",
                    "--dec-widths", "16", "8", "1", "--seed", "0"]) == 0
        return [len(list((workdir / kind).iterdir())) for kind in ("datasets", "models")]

    def test_every_config_field_names_the_cache(self, workspace, tmp_path, monkeypatch):
        """A field that no ablate flag sets still keys the cached artifacts."""
        work = tmp_path / "work"
        assert self.cached(workspace, work) == [1, 1]
        monkeypatch.setattr(cli, "TrainConfig", partial(TrainConfig, skip_layer=1))
        assert self.cached(workspace, work) == [1, 2]
        monkeypatch.setattr(cli, "SimConfig", partial(SimConfig, decay=0.02))
        assert self.cached(workspace, work) == [2, 3]

    def test_field_order_does_not_name_the_cache(self, workspace, tmp_path, monkeypatch):
        """Reordering a config's fields keeps the cached dataset and model."""
        work = tmp_path / "work"
        assert self.cached(workspace, work) == [1, 1]
        monkeypatch.setattr(cli, "asdict", lambda cfg: dict(reversed(asdict(cfg).items())))
        assert self.cached(workspace, work) == [1, 1]

    def test_dataset_of_another_format_version_is_rebuilt(self, workspace, tmp_path,
                                                          monkeypatch):
        # a work directory from before a format change holds datasets that
        # `train` refuses, so they must not be found under the same name
        def cached():
            assert run(["ablate", "--train-scenes", str(workspace / "data" / "train"),
                        "--test-scenes", str(workspace / "data" / "test"),
                        "--workdir", str(tmp_path / "work"), "--knob", "full",
                        "--i", "16", "--j", "16", "--epochs", "1",
                        "--enc-widths", "8", "8", "8", "8", "16",
                        "--dec-widths", "16", "8", "1", "--seed", "0"]) == 0
            return len(list((tmp_path / "work" / "datasets").iterdir()))

        assert cached() == 1
        monkeypatch.setattr(cli, "DATASET_VERSION", cli.DATASET_VERSION + 1)
        assert cached() == 2

    def test_knobs_reach_the_grow_config(self, workspace, tmp_path, monkeypatch):
        seen = []

        def spy(ctx, predictor, grow_cfg, search_cfg, rng):
            spec = predictor.params
            seen.append((spec.i_size, spec.j_size, spec.feature_columns, grow_cfg, search_cfg))
            return segment_scene(ctx, predictor, grow_cfg, search_cfg, rng)

        monkeypatch.setattr(cli, "segment_scene", spy)
        for knob in ("full", "no-remove", "random-seed"):
            assert run(["ablate", "--train-scenes", str(workspace / "data" / "train"),
                        "--test-scenes", str(workspace / "data" / "test"),
                        "--workdir", str(tmp_path / "work"), "--knob", knob,
                        "--i", "32", "--j", "32", "--epochs", "1",
                        "--enc-widths", "8", "8", "8", "8", "16",
                        "--dec-widths", "16", "8", "1", "--seed", "0"]) == 0
        # growth reads the checkpoint's sizes and feature columns; the rest default
        checkpoint = (32, 32, tuple(range(13)))
        assert seen == [(*checkpoint, GrowConfig(), SearchConfig()),
                        (*checkpoint, GrowConfig(use_remove_mask=False), SearchConfig()),
                        (*checkpoint, GrowConfig(seed_selection="random"), SearchConfig())]


class TestTracerCoverage:
    # the two targets the tracer still names although they were deleted
    KNOWN_MISSING = {"regrow.features.SpatialIndex.neighbor_lists",
                     "regrow.simulate.load_dataset"}

    def test_every_other_traced_stage_exists(self, monkeypatch):
        """A refactor that renames or deletes a traced function or method
        silently zeroes its benchmark metrics; the tracer lists such a
        target in `missing`."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        try:
            tracer.install()
            assert set(tracer.missing) <= self.KNOWN_MISSING
        finally:
            tracer.uninstall()
