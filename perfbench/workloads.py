"""The three benchmark workloads: inputs from a seed, the timed part, checks.

Every stage is one user-facing `regrow.cli.main([...])` command run in
process with one job. A workload's timed part repeats its pass while another
pass fits in the time budget (always at least one) and returns the pass time,
the stage metrics that explain it, traffic counts and the output checks it
made. The reasons for each workload and size are in README.md beside this
file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from regrow import cli, synth
from regrow.pointcloud import save_scene

DESK_ROOM = synth.RoomConfig(extent=(2.4, 2.4, 1.4), spacing=0.045, n_objects=(6, 10))
# a sparse desk room with a fixed object count, so the sample count of a
# paper-fit pass changes little from seed to seed
SPARSE_DESK_ROOM = synth.RoomConfig(extent=(2.4, 2.4, 1.4), spacing=0.045, n_objects=(3, 3))
# the paper room size (4 x 4 x 2.5 m at 0.03 spacing) with 10 objects, the
# middle of the default 5-15, so the flood-fill cost changes little between seeds
PAPER_ROOM = synth.RoomConfig(n_objects=(10, 10))
TINY_ROOM = synth.RoomConfig(extent=(0.8, 0.8, 0.5), spacing=0.07, n_objects=(1, 2))

DESK_ENC = ("32", "32", "32", "64", "128")
DESK_DEC = ("64", "32", "1")
PAPER_ENC = ("64", "64", "64", "128", "512")
PAPER_DEC = ("256", "128", "1")
N_FEATURES = 13

# greedy segmentation must be this good, and beat the threshold baseline,
# for the desk-pipeline model to count as a usable one
MIN_GREEDY_ARI = 0.9

# units of the stage metrics each workload records beside its result
STAGE_UNITS = {
    "fit_s": "s", "pass_s": "s",
    "simulate_samples_per_s": "1/s", "train_samples_per_s": "1/s",
    "greedy_points_per_s": "1/s", "rr_np_points_per_s": "1/s",
    "bs_np_points_per_s": "1/s", "threshold_points_per_s": "1/s",
    "features_points_per_s": "1/s", "smoothness_points_per_s": "1/s",
    "train_loss": "nats", "greedy_ari": "ratio", "greedy_recall": "ratio",
    "threshold_ari": "ratio", "threshold_recall": "ratio",
}


@dataclass
class Checks:
    """Output checks, counted as attempted and failed operations."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failures.extend(other.failures)


@dataclass
class Inputs:
    root: Path
    points: dict[str, dict[str, int]]  # group -> scene stem -> point count

    def dir(self, group: str) -> str:
        return str(self.root / group)

    def scenes(self, group: str) -> list[str]:
        return [str(self.root / group / f"{stem}.txt") for stem in sorted(self.points[group])]

    def total_points(self, group: str) -> int:
        return sum(self.points[group].values())


@dataclass
class Timed:
    """The timed part of one run: its end-to-end time and what explains it."""

    wall_s: float
    stages: dict[str, float]       # STAGE_UNITS name -> value
    stage_s: dict[str, float]      # seconds per stage, summed over the passes
    traffic: dict
    checks: Checks


def generate_inputs(root: Path, room: synth.RoomConfig, groups: dict[str, int],
                    seed: int) -> Inputs:
    """Write seeded labeled rooms, one directory per group."""
    points: dict[str, dict[str, int]] = {}
    for g, (group, count) in enumerate(groups.items()):
        (root / group).mkdir(parents=True, exist_ok=True)
        points[group] = {}
        for i in range(count):
            room_seed = int(np.random.SeedSequence([seed, g, i]).generate_state(1)[0])
            cloud = synth.generate_room(room, room_seed)
            stem = f"scene_{i:03d}"
            save_scene(cloud, root / group / f"{stem}.txt")
            points[group][stem] = cloud.n_points
    return Inputs(root, points)


def run_cli(checks: Checks, argv: list[str]) -> tuple[float, str]:
    """Time one command; its output is captured, not printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        start = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - start
    checks.check(rc == 0, f"`regrow {argv[0]}` exited with {rc}: {out.getvalue()[-300:]!r}")
    return elapsed, out.getvalue()


def repeat(seconds: float, one_pass) -> list[float]:
    """Run `one_pass(i)` (it returns its own time) while another pass fits in
    `seconds`, counted from the call; always at least once."""
    times: list[float] = []
    start = time.perf_counter()
    while True:
        times.append(one_pass(len(times)))
        if time.perf_counter() - start + times[-1] > seconds:
            return times


def check_dataset(checks: Checks, path: Path, i_size: int, j_size: int) -> int:
    """Sample count of a dataset file, checked to hold whole records only.

    The file is a 20-byte header, then per sample a 4-byte length and the
    record: I*F and J*F float32 features, I + J uint8 targets, 3 int32 meta.
    """
    record = 4 + 4 * (i_size + j_size) * N_FEATURES + i_size + j_size + 12
    size = path.stat().st_size if path.exists() else 0
    samples = max(0, (size - 20) // record)
    checks.check(samples > 0 and size == 20 + samples * record,
                 f"dataset {path.name} is empty or has a partial record")
    return samples


def train_losses(checks: Checks, stdout: str, epochs: int) -> list[float]:
    losses = [float(v) for v in re.findall(r"^epoch \d+: loss (\S+)$", stdout, re.M)]
    checks.check(len(losses) == epochs and all(math.isfinite(v) for v in losses),
                 f"train reported losses {losses} for {epochs} epochs")
    return losses


def check_labels(checks: Checks, points: dict[str, int], pred_dir: Path) -> None:
    """One complete, contiguous (1..M) labels file per scene."""
    found = {p.stem for p in pred_dir.glob("*.labels")}
    checks.check(found == set(points),
                 f"{pred_dir.name}: labels for {sorted(found)}, scenes {sorted(points)}")
    for stem, n_points in points.items():
        path = pred_dir / f"{stem}.labels"
        if not path.exists():
            continue
        labels = np.array(path.read_text().split(), dtype=np.int64)
        ids = np.unique(labels)
        ok = (labels.size == n_points and ids.size > 0 and ids[0] == 1
              and ids[-1] == ids.size)
        checks.check(ok, f"{pred_dir.name}/{stem}.labels is incomplete or not 1..M")


def check_same_labels(checks: Checks, first: Path, again: Path) -> None:
    """A repeated pass must write the labels of the first pass."""
    names = sorted(p.name for p in first.glob("*.labels"))
    same = names == sorted(p.name for p in again.glob("*.labels")) and all(
        (first / n).read_bytes() == (again / n).read_bytes() for n in names)
    checks.check(same, f"{again} differs from the first pass's {first.name} labels")


def eval_means(checks: Checks, csv_path: Path, n_scenes: int) -> dict[str, float]:
    """Mean row of an eval CSV (NaN when absent), after checking it has one
    row per scene."""
    rows = []
    if csv_path.exists():
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    scenes = [r for r in rows if r["scene"] not in ("mean", "std")]
    mean = next((r for r in rows if r["scene"] == "mean"), None)
    checks.check(len(scenes) == n_scenes and mean is not None,
                 f"{csv_path.name}: {len(scenes)} rows for {n_scenes} scenes")
    if mean is None:
        return {"ari": math.nan, "recall": math.nan}
    return {k: float(v) for k, v in mean.items() if k != "scene"}


def segment_traffic(pred_dir: Path) -> dict[str, int]:
    """Inference steps (grow_step calls) and seeds grown, from the stats files."""
    stats = [json.loads(p.read_text()) for p in sorted(pred_dir.glob("*.stats.json"))]
    return {"grow_step_calls": sum(s["inferences"] for s in stats),
            "regions_grown": sum(s["regions_grown"] for s in stats)}


def model_flops(enc: tuple[str, ...], dec: tuple[str, ...], i_size: int, j_size: int,
                skip_layer: int = 2) -> float:
    """Forward multiply-add FLOPs of one sample, computed from the widths."""
    enc_w = [int(w) for w in enc]
    dec_w = [int(w) for w in dec]
    fans = [N_FEATURES] + enc_w
    per_point = sum(2 * a * b for a, b in zip(fans, enc_w))
    fans = [enc_w[skip_layer - 1] + 2 * enc_w[-1]] + dec_w
    per_point += sum(2 * a * b for a, b in zip(fans, dec_w))
    return float((i_size + j_size) * per_point)


def _median_rate(work: float, times: list[float]) -> float:
    return work / statistics.median(times)


# -- desk-pipeline ---------------------------------------------------------------


@dataclass(frozen=True)
class DeskSize:
    room: synth.RoomConfig
    train_rooms: int
    test_rooms: int
    search_rooms: int
    epochs: int
    batch: int
    restarts: int
    beam: int
    expansions: int
    quality_gate: bool = True


class DeskPipeline:
    """Fit once (simulate, train), then repeat the segmentation pass."""

    name = "desk-pipeline"
    sizes = {
        "full": DeskSize(DESK_ROOM, train_rooms=16, test_rooms=4, search_rooms=1,
                         epochs=4, batch=20, restarts=2, beam=2, expansions=2),
        "smoke": DeskSize(TINY_ROOM, train_rooms=1, test_rooms=1, search_rooms=1,
                          epochs=1, batch=10, restarts=2, beam=1, expansions=1,
                          quality_gate=False),
    }
    warmup = sizes["smoke"]
    i_size = j_size = 128

    def generate(self, root: Path, size: DeskSize, seed: int) -> Inputs:
        return generate_inputs(root, size.room, {"train": size.train_rooms,
                                                 "test": size.test_rooms,
                                                 "search": size.search_rooms}, seed)

    def fit(self, inputs: Inputs, work: Path, size: DeskSize, checks: Checks) -> dict:
        """simulate, then train; the model is written to `work`."""
        dataset = work / "train.bin"
        sim_s, _ = run_cli(checks, [
            "simulate", "--scenes", inputs.dir("train"), "--out", str(dataset),
            "--i", str(self.i_size), "--j", str(self.j_size), "--seed", "5"])
        train_s, train_out = run_cli(checks, [
            "train", "--dataset", str(dataset), "--out", str(work / "model.ckpt"),
            "--enc-widths", *DESK_ENC, "--dec-widths", *DESK_DEC, "--lr", "0.003",
            "--epochs", str(size.epochs), "--batch", str(size.batch), "--seed", "0"])
        losses = train_losses(checks, train_out, size.epochs)
        samples = check_dataset(checks, dataset, self.i_size, self.j_size)
        return {"simulate": sim_s, "train": train_s, "samples": samples,
                "loss": losses[-1] if losses else math.nan}

    def segment_pass(self, inputs: Inputs, model: Path, out: Path, size: DeskSize,
                     checks: Checks) -> dict[str, float]:
        """Per-scene commands, interleaved so that each stage's time is spread
        over the pass rather than caught in one slow or fast spell of the host."""
        o = str(out)
        t = dict.fromkeys(("greedy", "threshold", "rr-np", "bs-np", "eval"), 0.0)
        for scene in inputs.scenes("test"):
            t["greedy"] += run_cli(checks, [
                "segment", "--scenes", scene, "--model", str(model), "--out", f"{o}/greedy",
                "--strategy", "greedy", "--seed", "17", "--jobs", "1"])[0]
            t["threshold"] += run_cli(checks, [
                "baseline", "--scenes", scene, "--method", "threshold",
                "--out", f"{o}/threshold", "--jobs", "1"])[0]
        for scene in inputs.scenes("search"):
            t["rr-np"] += run_cli(checks, [
                "segment", "--scenes", scene, "--model", str(model), "--out", f"{o}/rr-np",
                "--strategy", "rr-np", "--restarts", str(size.restarts),
                "--seed", "17", "--jobs", "1"])[0]
            t["bs-np"] += run_cli(checks, [
                "segment", "--scenes", scene, "--model", str(model), "--out", f"{o}/bs-np",
                "--strategy", "bs-np", "--beam", str(size.beam),
                "--expansions", str(size.expansions), "--seed", "17", "--jobs", "1"])[0]
        for pred in ("greedy", "threshold"):
            t["eval"] += run_cli(checks, ["eval", "--scenes", inputs.dir("test"),
                                          "--pred", f"{o}/{pred}", "--out", f"{o}/{pred}.csv"])[0]
        return t

    def run(self, inputs: Inputs, work: Path, size: DeskSize, seconds: float,
            reuse: Path | None = None) -> Timed:
        """Fit, then segmentation passes while time remains. With `reuse`, the
        model of that earlier run directory is used and the fit is skipped."""
        checks = Checks()
        start = time.perf_counter()
        fit = (self.fit(inputs, work, size, checks) if reuse is None else
               {"simulate": 0.0, "train": 0.0, "samples": 0, "loss": math.nan})
        model = (reuse or work) / "model.ckpt"
        passes: list[dict[str, float]] = []

        def one_pass(i: int) -> float:
            passes.append(self.segment_pass(inputs, model, work / f"pass-{i}", size, checks))
            return sum(passes[-1].values())

        repeat(seconds - (time.perf_counter() - start), one_pass)

        first = work / "pass-0"
        for pred, group in (("greedy", "test"), ("threshold", "test"),
                            ("rr-np", "search"), ("bs-np", "search")):
            check_labels(checks, inputs.points[group], first / pred)
            for i in range(1, len(passes)):
                check_same_labels(checks, first / pred, work / f"pass-{i}" / pred)
        n_test = len(inputs.points["test"])
        greedy = eval_means(checks, first / "greedy.csv", n_test)
        threshold = eval_means(checks, first / "threshold.csv", n_test)
        if size.quality_gate:
            checks.check(greedy["ari"] >= MIN_GREEDY_ARI and greedy["ari"] > threshold["ari"],
                         f"quality gate: greedy ARI {greedy['ari']:.3f} must be >= "
                         f"{MIN_GREEDY_ARI} and above threshold ARI {threshold['ari']:.3f}")

        test_pts = inputs.total_points("test")
        search_pts = inputs.total_points("search")
        stage_times = {k: [p[k] for p in passes] for k in passes[0]}
        pass_s = statistics.median(sum(p.values()) for p in passes)
        fit_s = fit["simulate"] + fit["train"]
        stages = {
            "fit_s": fit_s, "pass_s": pass_s,
            "greedy_points_per_s": _median_rate(test_pts, stage_times["greedy"]),
            "rr_np_points_per_s": _median_rate(search_pts, stage_times["rr-np"]),
            "bs_np_points_per_s": _median_rate(search_pts, stage_times["bs-np"]),
            "threshold_points_per_s": _median_rate(test_pts, stage_times["threshold"]),
            "greedy_ari": greedy["ari"], "greedy_recall": greedy["recall"],
            "threshold_ari": threshold["ari"], "threshold_recall": threshold["recall"],
        }
        if reuse is None:
            stages.update({
                "simulate_samples_per_s": fit["samples"] / fit["simulate"],
                "train_samples_per_s": fit["samples"] * size.epochs / fit["train"],
                "train_loss": fit["loss"]})
        stage_s = {"simulate": fit["simulate"], "train": fit["train"],
                   **{k: sum(v) for k, v in stage_times.items()}}
        traffic = {"passes": len(passes), "simulated_samples": fit["samples"],
                   **{s: segment_traffic(first / s) for s in ("greedy", "rr-np", "bs-np")}}
        return Timed(fit_s + pass_s, stages, stage_s, traffic, checks)

    def flops(self) -> tuple[float, float]:
        """(train FLOPs per sample, predict FLOPs per call), computed from widths."""
        fwd = model_flops(DESK_ENC, DESK_DEC, self.i_size, self.j_size)
        return 3 * fwd, fwd


# -- paper-fit -------------------------------------------------------------------


@dataclass(frozen=True)
class PaperSize:
    room: synth.RoomConfig
    i_size: int
    j_size: int


class PaperFit:
    """Repeat the pass: simulate one room at I = J = 512, train one epoch."""

    name = "paper-fit"
    sizes = {
        "full": PaperSize(SPARSE_DESK_ROOM, i_size=512, j_size=512),
        "smoke": PaperSize(TINY_ROOM, i_size=64, j_size=64),
    }
    warmup = sizes["smoke"]

    def generate(self, root: Path, size: PaperSize, seed: int) -> Inputs:
        return generate_inputs(root, size.room, {"rooms": 1}, seed)

    def run(self, inputs: Inputs, work: Path, size: PaperSize, seconds: float,
            reuse: Path | None = None) -> Timed:
        """Passes while time remains; `reuse` is ignored, as a pass is
        self-contained."""
        checks = Checks()
        passes: list[dict[str, float]] = []
        losses: list[float] = []

        def one_pass(i: int) -> float:
            dataset = work / f"train-{i}.bin"
            t = {"simulate": run_cli(checks, [
                "simulate", "--scenes", inputs.dir("rooms"), "--out", str(dataset),
                "--i", str(size.i_size), "--j", str(size.j_size), "--seed", "5"])[0]}
            t["train"], train_out = run_cli(checks, [
                "train", "--dataset", str(dataset), "--out", str(work / f"model-{i}.ckpt"),
                "--enc-widths", *PAPER_ENC, "--dec-widths", *PAPER_DEC,
                "--epochs", "1", "--batch", "100", "--seed", "0"])
            losses.extend(train_losses(checks, train_out, 1))
            passes.append(t)
            return sum(t.values())

        times = repeat(seconds, one_pass)
        samples = check_dataset(checks, work / "train-0.bin", size.i_size, size.j_size)
        first = (work / "train-0.bin").read_bytes() if samples else b""
        for i in range(1, len(passes)):
            again = work / f"train-{i}.bin"
            checks.check(again.exists() and again.read_bytes() == first,
                         f"pass {i} simulated a different dataset")
        checks.check(len(set(losses)) == 1, f"passes trained to different losses {losses}")
        stages = {
            "pass_s": statistics.median(times),
            "simulate_samples_per_s": _median_rate(samples, [p["simulate"] for p in passes]),
            "train_samples_per_s": _median_rate(samples, [p["train"] for p in passes]),
            "train_loss": losses[0] if losses else math.nan,
        }
        stage_s = {k: sum(p[k] for p in passes) for k in passes[0]}
        traffic = {"passes": len(passes), "simulated_samples": samples}
        return Timed(statistics.median(times), stages, stage_s, traffic, checks)

    def flops(self) -> tuple[float, float]:
        size = self.sizes["full"]
        fwd = model_flops(PAPER_ENC, PAPER_DEC, size.i_size, size.j_size)
        return 3 * fwd, fwd


# -- classical -------------------------------------------------------------------


@dataclass(frozen=True)
class ClassicalSize:
    room: synth.RoomConfig
    rooms: int


class Classical:
    """Repeat the pass over the rooms, one room at a time: features, both
    baselines on the cached features, eval of both."""

    name = "classical"
    sizes = {
        "full": ClassicalSize(PAPER_ROOM, rooms=2),
        "smoke": ClassicalSize(TINY_ROOM, rooms=1),
    }
    warmup = sizes["smoke"]

    def generate(self, root: Path, size: ClassicalSize, seed: int) -> Inputs:
        # one group per room, so that `eval` can score a single room
        return generate_inputs(root, size.room, {f"room{i}": 1 for i in range(size.rooms)},
                               seed)

    def room_pass(self, inputs: Inputs, group: str, out: Path,
                  checks: Checks) -> dict[str, float]:
        o = str(out)
        t = {"features": run_cli(checks, ["features", "--scenes", inputs.dir(group),
                                          "--out", f"{o}/features", "--jobs", "1"])[0]}
        for method in ("threshold", "smoothness"):
            t[method] = run_cli(checks, [
                "baseline", "--scenes", inputs.dir(group), "--method", method,
                "--out", f"{o}/{method}", "--features-dir", f"{o}/features", "--jobs", "1"])[0]
        t["eval"] = sum(run_cli(checks, ["eval", "--scenes", inputs.dir(group),
                                         "--pred", f"{o}/{method}",
                                         "--out", f"{o}/{method}.csv"])[0]
                        for method in ("threshold", "smoothness"))
        return t

    def run(self, inputs: Inputs, work: Path, size: ClassicalSize, seconds: float,
            reuse: Path | None = None) -> Timed:
        """Room passes, cycling over the rooms, while time remains and at least
        one round; `reuse` is ignored, as a pass is self-contained."""
        checks = Checks()
        groups = sorted(inputs.points)
        passes: list[tuple[str, dict[str, float]]] = []

        def one_pass(i: int) -> float:
            group = groups[i % len(groups)]
            passes.append((group, self.room_pass(inputs, group, work / f"pass-{i}", checks)))
            return sum(passes[-1][1].values())

        repeat(seconds, one_pass)
        while len(passes) < len(groups):  # finish the first round
            one_pass(len(passes))

        for i, (group, _) in enumerate(passes):
            out = work / f"pass-{i}"
            if i >= len(groups):
                for method in ("threshold", "smoothness"):
                    check_same_labels(checks, work / f"pass-{i % len(groups)}" / method,
                                      out / method)
                continue
            for stem, n_points in inputs.points[group].items():
                path = out / "features" / f"{stem}.features.npz"
                ok = path.exists()
                if ok:
                    with np.load(path) as data:
                        feats = data["features"]
                    ok = feats.shape == (n_points, N_FEATURES) and bool(np.isfinite(feats).all())
                checks.check(ok, f"features/{stem}: missing, misshaped or not finite")
            for method in ("threshold", "smoothness"):
                check_labels(checks, inputs.points[group], out / method)
                eval_means(checks, out / f"{method}.csv", 1)

        # per room: median over its passes; the workload's figures sum or
        # rate over all rooms
        per_room = {g: {k: statistics.median(t[k] for gg, t in passes if gg == g)
                        for k in passes[0][1]} for g in groups}
        pts = sum(inputs.total_points(g) for g in groups)

        def rate(stage: str) -> float:
            return pts / sum(r[stage] for r in per_room.values())

        pass_s = sum(sum(r.values()) for r in per_room.values())
        stages = {
            "pass_s": pass_s,
            "features_points_per_s": rate("features"),
            "threshold_points_per_s": rate("threshold"),
            "smoothness_points_per_s": rate("smoothness"),
        }
        stage_s = {k: sum(t[k] for _, t in passes) for k in passes[0][1]}
        return Timed(pass_s, stages, stage_s, {"passes": len(passes)}, checks)

    def flops(self) -> tuple[float, float]:
        return 0.0, 0.0


WORKLOADS = {w.name: w for w in (DeskPipeline(), PaperFit(), Classical())}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
