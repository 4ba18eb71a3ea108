"""Command-line pipelines: synth, features, simulate, train, segment, baseline,
eval and ablate.

Configuration precedence is defaults < config file < flags, where the config
file holds `key = value` lines (keys are flag dests, with dashes or
underscores) and `#` comments. Its values enter the parse as the command's
own flags, so argparse checks them as it checks flags.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import zipfile

from dataclasses import asdict, replace
from functools import partial
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from . import baselines, metrics, synth
from .features import DEFAULT_DELTA, DEFAULT_KNN, FEATURE_SUBSETS, build_context
from .grow import GrowConfig, segment_scene
from .network import Predictor, TrainConfig, load_params, train
from .pointcloud import (PointCloud, atomic_open, export_colored_ply, load_scene, read_labels,
                         write_labels)
from .search import STRATEGIES, SearchConfig
from .simulate import DATASET_VERSION, SimConfig, generate_dataset


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _scene_paths(path) -> list[Path]:
    path = Path(path)
    if path.is_dir():
        found = sorted(path.glob("*.txt"))
        if not found:
            raise FileNotFoundError(f"no scene files (*.txt) in {path}")
        return found
    return [path]


def _scene_sha256(scene_path) -> str:
    return hashlib.sha256(Path(scene_path).read_bytes()).hexdigest()


def _read_cache(cache, scene_path, delta, knn):
    """(cloud, features, adjacency) from a features cache entry: the cloud and
    features only when they were computed from this very file with the same
    `knn`, the adjacency only when also at the same `delta`, and None in
    their place otherwise. An entry that is missing, cannot be read or lacks
    a key of the format `_features_worker` writes gives Nones throughout."""
    try:
        with np.load(cache) as data:
            if not (int(data["knn"]) == knn
                    and str(data["scene_sha256"]) == _scene_sha256(scene_path)):
                return None, None, None
            cloud = PointCloud(data["positions"], data["colors"],
                               data["gt_instance"] if "gt_instance" in data else None)
            adjacency = data["adj_indptr"], data["adj_indices"]
            return cloud, data["features"], adjacency if float(data["delta"]) == delta else None
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile):
        return None, None, None


def _load_context(scene_path, delta, knn, features_dir=None):
    """The scene's context, with cloud, features and adjacency from the cache
    where `_read_cache` finds them valid; the scene is parsed otherwise."""
    cloud = feats = adjacency = None
    if features_dir:
        cache = Path(features_dir) / (Path(scene_path).stem + ".features.npz")
        cloud, feats, adjacency = _read_cache(cache, scene_path, delta, knn)
    if cloud is None:
        cloud = load_scene(scene_path)
    return build_context(cloud, delta=delta, knn=knn, features=feats, adjacency=adjacency)


_ABLATION_KNOBS = {
    # knob -> (feature subset, normalize, i/j override, GrowConfig overrides)
    "full": ("full", True, None, {}),
    "no-remove": ("full", True, None, {"use_remove_mask": False}),
    "random-seed": ("full", True, None, {"seed_selection": "random"}),
    "no-normalize": ("full", False, None, {}),
    "only-xyz": ("xyz", True, None, {}),
    "xyz-rgb": ("xyz-rgb", True, None, {}),
    "i128-j128": ("full", True, 128, {}),
    "i256-j256": ("full", True, 256, {}),
}


def _add_common_scene_args(p):
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA,
                   help="neighbor radius in meters")
    p.add_argument("--knn", type=int, default=DEFAULT_KNN,
                   help="PCA neighborhood size for normals/curvature")


def _add_network_args(p, net: TrainConfig):
    p.add_argument("--lr", type=float, default=net.lr)
    p.add_argument("--batch", type=int, default=net.batch_size)
    p.add_argument("--epochs", type=int, default=net.epochs)
    p.add_argument("--enc-widths", type=int, nargs="+", default=list(net.enc_widths))
    p.add_argument("--dec-widths", type=int, nargs="+", default=list(net.dec_widths))


# read on its own first, to find the config file before the command's flags
# are checked; build_parser takes it over as a parent
_CONFIG_PARSER = argparse.ArgumentParser(add_help=False, exit_on_error=False)
_CONFIG_PARSER.add_argument("--config", help="key = value config file merged under flags")


def build_parser() -> _Parser:
    """The `regrow` parser; each default is read from the config that owns it."""
    parser = _Parser(prog="regrow", parents=[_CONFIG_PARSER],
                     description="Point-cloud instance segmentation by learned region growing")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices
    add_parser = partial(sub.add_parser, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    room, sim, net = synth.RoomConfig(), SimConfig(), TrainConfig()
    grow, search = GrowConfig(), SearchConfig()
    threshold, smooth = baselines.ThresholdConfig(), baselines.SmoothnessConfig()

    p = add_parser("synth", help="generate synthetic labeled rooms")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--train", type=int, default=40, help="number of training rooms")
    p.add_argument("--test", type=int, default=20, help="number of test rooms")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--extent", type=float, nargs=3, default=list(room.extent),
                   metavar=("X", "Y", "Z"))
    p.add_argument("--spacing", type=float, default=room.spacing, help="sample spacing in meters")
    p.add_argument("--objects-min", type=int, default=room.n_objects[0])
    p.add_argument("--objects-max", type=int, default=room.n_objects[1])
    p.add_argument("--color-noise", type=float, default=room.color_noise)

    p = add_parser("features",
                   help="precompute and cache per-point features and the radius adjacency")
    p.add_argument("--scenes", required=True, help="scene file or directory")
    p.add_argument("--out", required=True, help="cache directory")
    _add_common_scene_args(p)
    p.add_argument("--jobs", type=int, default=1)

    p = add_parser("simulate",
                   help="simulate region growing into a training dataset")
    p.add_argument("--scenes", required=True, help="labeled scene file or directory")
    p.add_argument("--out", required=True, help="dataset file to write")
    p.add_argument("--i", dest="i_size", type=int, default=sim.i_size, help="inlier set size I")
    p.add_argument("--j", dest="j_size", type=int, default=sim.j_size, help="neighbor set size J")
    _add_common_scene_args(p)
    p.add_argument("--alpha-min", type=float, default=sim.alpha_range[0])
    p.add_argument("--alpha-max", type=float, default=sim.alpha_range[1])
    p.add_argument("--decay", type=float, default=sim.decay,
                   help="mistake probability decay per step")
    p.add_argument("--augment", type=int, default=sim.augment_copies,
                   help="augmented copies per scene")
    p.add_argument("--features", default="full", choices=sorted(FEATURE_SUBSETS),
                   help="feature subset")
    p.add_argument("--no-normalize", action="store_true",
                   help="skip median normalization of network inputs")
    p.add_argument("--seed", type=int, default=sim.seed)

    p = add_parser("train", help="train the mask network")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="checkpoint file")
    _add_network_args(p, net)
    p.add_argument("--skip-layer", type=int, default=net.skip_layer,
                   help="encoder layer feeding the decoder skip connection")
    p.add_argument("--seed", type=int, default=net.seed)

    p = add_parser("segment",
                   help="segment scenes with a trained network")
    p.add_argument("--scenes", required=True, help="scene file or directory")
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--out", required=True, help="output directory for labels")
    p.add_argument("--strategy", default=search.strategy, choices=STRATEGIES)
    p.add_argument("--restarts", type=int, default=search.restarts,
                   help="random-restart rollouts")
    p.add_argument("--beam", type=int, default=search.beam_width, help="beam width")
    p.add_argument("--expansions", type=int, default=search.expansions,
                   help="expansions per beam state")
    p.add_argument("--min-segment", type=int, default=grow.min_segment,
                   help="segments smaller than this are reassigned")
    p.add_argument("--max-steps", type=int, default=grow.max_steps, help="hard cap per region")
    p.add_argument("--no-remove-mask", action="store_true",
                   help="never remove points from a region")
    p.add_argument("--random-seeding", action="store_true",
                   help="random seed points instead of min curvature")
    _add_common_scene_args(p)
    p.add_argument("--features-dir", help="cached features directory")
    p.add_argument("--ply", action="store_true", help="also export a colored PLY")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)

    p = add_parser("baseline",
                   help="classical region-growing baselines")
    p.add_argument("--scenes", required=True)
    p.add_argument("--method", required=True, choices=["threshold", "smoothness"])
    p.add_argument("--out", required=True, help="output directory for labels")
    _add_common_scene_args(p)
    p.add_argument("--features-dir")
    p.add_argument("--normal-angle-max", type=float, default=threshold.normal_angle_max)
    p.add_argument("--color-dist-max", type=float, default=threshold.color_dist_max)
    p.add_argument("--theta-th", type=float, default=smooth.theta_th)
    p.add_argument("--curvature-th", type=float, default=smooth.curvature_th)
    p.add_argument("--min-segment", type=int, default=threshold.min_segment)
    p.add_argument("--jobs", type=int, default=1)

    p = add_parser("eval",
                   help="score predicted labels against ground truth")
    p.add_argument("--scenes", required=True, help="labeled scene directory")
    p.add_argument("--pred", required=True, help="directory of .labels files")
    p.add_argument("--out", required=True, help="CSV to write")

    p = add_parser("ablate",
                   help="run one configuration knob end to end")
    p.add_argument("--train-scenes", required=True)
    p.add_argument("--test-scenes", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--knob", required=True, choices=list(_ABLATION_KNOBS))
    p.add_argument("--i", dest="i_size", type=int, default=sim.i_size)
    p.add_argument("--j", dest="j_size", type=int, default=sim.j_size)
    _add_common_scene_args(p)
    _add_network_args(p, net)
    p.add_argument("--augment", type=int, default=sim.augment_copies)
    p.add_argument("--seed", type=int, default=sim.seed)
    return parser


def _config_flags(parser: _Parser, command: str, path) -> list[str]:
    """The config file's `key = value` lines as the command's own flag tokens:
    the bare flag for a switch whose value is true, the flag and then its
    values for a list, `--flag=value` otherwise. A key names a flag by its
    dest. Keys that name none of the command's flags are skipped, so one file
    can serve several commands; a key that no command knows is warned about
    on stderr, as it is most likely misspelt."""
    known = {action.dest for sub in parser.commands.values() for action in sub._actions}
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}: line {lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest not in known:
            print(f"warning: {path}: line {lineno}: no command has a setting {key!r}; "
                  "it is ignored", file=sys.stderr)
        values[dest] = val
    tokens = []
    for action in parser.commands[command]._actions:
        raw = values.get(action.dest)
        if raw is None or action.dest == "help":
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            tokens += [flag] if raw.lower() in ("1", "true", "yes", "on") else []
        elif action.nargs is None:
            tokens.append(f"{flag}={raw}")
        else:
            tokens += [flag, *raw.split()]
    return tokens


def _with_config_file(parser: _Parser, argv: list[str]) -> list[str]:
    """`argv` with the config file's flags inserted after the command name,
    so that argparse checks them as it checks flags and a flag given after
    them wins."""
    try:
        known, rest = _CONFIG_PARSER.parse_known_args(argv)
    except argparse.ArgumentError:
        return argv  # a bare --config, which the full parse reports
    if not known.config or not rest or rest[0] not in parser.commands:
        return argv
    at = len(argv) - len(rest) + 1
    return argv[:at] + _config_flags(parser, rest[0], known.config) + argv[at:]


def _cmd_synth(args) -> int:
    cfg = synth.RoomConfig(extent=tuple(args.extent), spacing=args.spacing,
                           n_objects=(args.objects_min, args.objects_max),
                           color_noise=args.color_noise)
    rooms = []  # (points, generate_s, write_s) of each room
    train_paths, test_paths = synth.generate_split(
        cfg, args.train, args.test, args.out, base_seed=args.seed,
        report=lambda *room: rooms.append(room))
    points, generate_s, write_s = (sum(col) for col in zip((0, 0.0, 0.0), *rooms))
    print(f"wrote {len(train_paths)} train + {len(test_paths)} test scenes to {args.out}")
    print(f"synth: {len(rooms)} rooms, {points} points, generated in {generate_s:.3f} s, "
          f"written in {write_s:.3f} s")
    return 0


def _features_worker(scene_path, out_dir, delta, knn) -> str:
    """Cache a scene's cloud, features, adjacency and the keys that validate
    them; the line names the scene, its size and the build time."""
    cloud = load_scene(scene_path)
    start = time.perf_counter()
    ctx = build_context(cloud, delta, knn)
    seconds = time.perf_counter() - start
    labels = {} if cloud.gt_instance is None else {"gt_instance": cloud.gt_instance}
    out = Path(out_dir) / (Path(scene_path).stem + ".features.npz")
    with atomic_open(out, "wb") as f:
        np.savez(f, positions=cloud.positions, colors=cloud.colors, **labels,
                 features=ctx.features, adj_indptr=ctx.adj_indptr,
                 adj_indices=ctx.adj_indices, delta=delta, knn=knn,
                 scene_sha256=_scene_sha256(scene_path))
    return (f"{Path(scene_path).stem}: {cloud.n_points} points, "
            f"{len(ctx.adj_indices)} adjacency entries, built in {seconds:.3f} s")


def _cmd_features(args) -> int:
    return _map_scenes(args, partial(_features_worker, out_dir=args.out, delta=args.delta,
                                     knn=args.knn))


def _cmd_simulate(args) -> int:
    cfg = SimConfig(i_size=args.i_size, j_size=args.j_size, delta=args.delta, knn=args.knn,
                    alpha_range=(args.alpha_min, args.alpha_max), decay=args.decay,
                    augment_copies=args.augment, feature_columns=FEATURE_SUBSETS[args.features],
                    normalize=not args.no_normalize, seed=args.seed)
    count = generate_dataset(_scene_paths(args.scenes), cfg, args.out)
    print(f"wrote {count} samples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = TrainConfig(enc_widths=tuple(args.enc_widths), dec_widths=tuple(args.dec_widths),
                      skip_layer=args.skip_layer, lr=args.lr, batch_size=args.batch,
                      epochs=args.epochs, seed=args.seed, checkpoint=args.out)

    def report(epoch, loss, seconds, samples):
        print(f"epoch {epoch}: loss {loss:.6f}")
        # ru_maxrss is in KiB on Linux
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"epoch {epoch} time: {seconds:.3f} s, {samples / seconds:.1f} samples/s, "
              f"peak RSS {peak_mb:.1f} MB")

    train(args.dataset, cfg, report)
    print(f"checkpoint written to {args.out}")
    return 0


def _segment_worker(scene_path, model, out_dir, delta, knn, features_dir,
                    grow: GrowConfig, search: SearchConfig, seed, ply) -> str:
    params = load_params(model)
    ctx = _load_context(scene_path, delta, knn, features_dir)
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_path_key(scene_path),)))
    labels, stats = segment_scene(ctx, Predictor(params), grow, search, rng)
    stem = Path(scene_path).stem
    out_dir = Path(out_dir)
    write_labels(labels, out_dir / f"{stem}.labels")
    stats["config"] = {"strategy": search.strategy, "restarts": search.restarts,
                       "beam": search.beam_width, "expansions": search.expansions,
                       "seed": seed, "min_segment": grow.min_segment,
                       "max_steps": grow.max_steps}
    with atomic_open(out_dir / f"{stem}.stats.json") as fh:
        fh.write(json.dumps(stats, indent=2) + "\n")
    if ply:
        export_colored_ply(ctx.cloud, labels, out_dir / f"{stem}.ply")
    return f"{stem}: {stats['instances']} instances, {stats['inferences']} inferences"


def _path_key(path) -> int:
    digest = hashlib.sha256(Path(path).name.encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _cmd_segment(args) -> int:
    grow = GrowConfig(max_steps=args.max_steps, min_segment=args.min_segment,
                      use_remove_mask=not args.no_remove_mask,
                      seed_selection="random" if args.random_seeding else "curvature")
    search = SearchConfig(strategy=args.strategy, restarts=args.restarts,
                          beam_width=args.beam, expansions=args.expansions)
    return _map_scenes(args, partial(
        _segment_worker, model=args.model, out_dir=args.out, delta=args.delta, knn=args.knn,
        features_dir=args.features_dir, grow=grow, search=search, seed=args.seed,
        ply=args.ply))


def _baseline_worker(scene_path, out_dir, delta, knn, features_dir, cfg) -> str:
    ctx = _load_context(scene_path, delta, knn, features_dir)
    if isinstance(cfg, baselines.ThresholdConfig):
        labels = baselines.grow_threshold(ctx, cfg)
    else:
        labels = baselines.grow_smoothness(ctx, cfg)
    stem = Path(scene_path).stem
    write_labels(labels, Path(out_dir) / f"{stem}.labels")
    return f"{stem}: {int(labels.max())} instances"


def _cmd_baseline(args) -> int:
    if args.method == "threshold":
        cfg = baselines.ThresholdConfig(args.normal_angle_max, args.color_dist_max,
                                        args.min_segment)
    else:
        cfg = baselines.SmoothnessConfig(args.theta_th, args.curvature_th, args.min_segment)
    return _map_scenes(args, partial(_baseline_worker, out_dir=args.out, delta=args.delta,
                                     knn=args.knn, features_dir=args.features_dir, cfg=cfg))


def _map_scenes(args, worker) -> int:
    """Run `worker` on each scene path of `args.scenes`, in a pool of
    `args.jobs` processes when that is above 1, and print its lines in scene
    order."""
    Path(args.out).mkdir(parents=True, exist_ok=True)
    paths = [str(p) for p in _scene_paths(args.scenes)]
    if args.jobs > 1 and len(paths) > 1:
        with Pool(args.jobs) as pool:
            lines = pool.map(worker, paths)
    else:
        lines = map(worker, paths)
    for line in lines:
        print(line)
    return 0


def _cmd_eval(args) -> int:
    names, records = [], []
    for scene_path in _scene_paths(args.scenes):
        stem = scene_path.stem
        pred_path = Path(args.pred) / f"{stem}.labels"
        if not pred_path.exists():
            raise FileNotFoundError(f"missing predictions for {stem}: {pred_path}")
        cloud = load_scene(scene_path)
        if cloud.gt_instance is None:
            raise ValueError(f"{scene_path} has no ground-truth instance labels")
        pred = read_labels(pred_path)
        rec = metrics.score_scene(cloud.gt_instance, pred)
        stats_path = Path(args.pred) / f"{stem}.stats.json"
        rec["steps"] = (json.loads(stats_path.read_text()).get("steps_per_region", 0.0)
                        if stats_path.exists() else 0.0)
        names.append(stem)
        records.append(rec)
    metrics.write_metrics_csv(args.out, names, records)
    means, stds = metrics.per_room_average(records)
    summary = "  ".join(f"{k}={means[k]:.3f}±{stds[k]:.3f}" for k in
                        ("nmi", "ami", "ari", "precision", "recall", "miou"))
    print(summary)
    print(f"metrics written to {args.out}")
    return 0


def _cmd_ablate(args) -> int:
    subset, normalize, size, grow_overrides = _ABLATION_KNOBS[args.knob]
    sim = SimConfig(i_size=size or args.i_size, j_size=size or args.j_size, delta=args.delta,
                    knn=args.knn, augment_copies=args.augment,
                    feature_columns=FEATURE_SUBSETS[subset], normalize=normalize, seed=args.seed)
    net = TrainConfig(enc_widths=tuple(args.enc_widths), dec_widths=tuple(args.dec_widths),
                      lr=args.lr, batch_size=args.batch, epochs=args.epochs, seed=args.seed)
    workdir = Path(args.workdir)
    knob_dir = workdir / args.knob
    for directory in (workdir / "datasets", workdir / "models", knob_dir / "pred"):
        directory.mkdir(parents=True, exist_ok=True)

    # cached artifacts are named by a hash of the configs they are built
    # from (the dataset's with the training scenes), and datasets also by
    # their format version, so a rerun that changes any of them builds new ones;
    # the configs are hashed by field name, whatever the order of the fields
    def key(*parts) -> str:
        return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()[:16]

    train_paths = _scene_paths(args.train_scenes)
    scenes = [(str(p.resolve()), _scene_sha256(p)) for p in train_paths]
    data_key = key(asdict(sim), scenes)
    model_key = key(data_key, asdict(net))
    prefix = f"{subset}_{'norm' if normalize else 'raw'}_i{sim.i_size}_j{sim.j_size}"
    dataset = workdir / "datasets" / f"{prefix}_{data_key}.v{DATASET_VERSION}.bin"
    model = workdir / "models" / f"{prefix}_{model_key}.ckpt"

    if not dataset.exists():
        count = generate_dataset(train_paths, sim, dataset)
        print(f"[{args.knob}] dataset: {count} samples")
    if not model.exists():
        _params, losses = train(dataset, replace(net, checkpoint=str(model)))
        print(f"[{args.knob}] trained, final loss {losses[-1]:.4f}")

    grow = GrowConfig(**grow_overrides)
    for scene in _scene_paths(args.test_scenes):
        _segment_worker(str(scene), str(model), knob_dir / "pred", args.delta, args.knn, None,
                        grow, SearchConfig(), args.seed, False)
    eval_args = argparse.Namespace(scenes=args.test_scenes, pred=str(knob_dir / "pred"),
                                   out=str(knob_dir / "metrics.csv"))
    return _cmd_eval(eval_args)


_COMMANDS = {
    "synth": _cmd_synth,
    "features": _cmd_features,
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "segment": _cmd_segment,
    "baseline": _cmd_baseline,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config_file(parser, argv))
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
