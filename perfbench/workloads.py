"""The benchmark's workloads.

A workload makes its inputs from a seed (``setup``), runs one operation
through ``framepress.cli.main`` (``run_op``) and checks that operation's
outputs with code of its own (``check``), so a check never trusts the
reader or writer it is checking. Each workload is one sequential client:
its next operation starts when the previous one has ended.

FLOPs and bytes are computed here from the shapes, counting 2 FLOPs per
multiply-accumulate as ``framepress.cost`` does for the decoder.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from framepress import cli

FLOAT64_BYTES = 8
# Reference outputs of full-size runs for some seeds; ``golden.py`` writes it.
GOLDEN_PATH = Path(__file__).with_name("GOLDEN.json")
# Tolerance against the golden values, wide enough for a BLAS build that
# sums in another order, far too tight for a change to the math.
GOLDEN_RTOL = 1e-6


def _cli(argv) -> int:
    """Run one subcommand in-process with its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def load_golden(workload: str, seed: int):
    """The golden entry for ``workload`` at ``seed``, or None when there is none."""
    if not GOLDEN_PATH.is_file():
        return None
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def read_ftv1(path) -> np.ndarray:
    """Parse an FTV1 file independently of ``framepress.ftv1``."""
    data = Path(path).read_bytes()
    if data[:4] != b"FTV1":
        raise ValueError(f"{path}: bad magic")
    rank = int.from_bytes(data[4:8], "little")
    dims = tuple(int(d) for d in np.frombuffer(data, "<u4", rank, 8))
    payload = np.frombuffer(data, "<f4", offset=8 + 4 * rank)
    if payload.size != math.prod(dims):
        raise ValueError(f"{path}: {payload.size} values for dims {dims}")
    return payload.reshape(dims)


@dataclass(frozen=True)
class AdapterShape:
    """Shapes that set the adapter's work per frame."""

    frames: int  # T
    tokens: int  # M source patch tokens per frame
    feature_dim: int  # D
    width: int  # C
    queries: int  # N

    def forward_flops_per_frame(self) -> int:
        """Projection 2·M·D·C plus scores and mixing 4·N·M·C."""
        m, d, c, n = self.tokens, self.feature_dim, self.width, self.queries
        return 2 * m * d * c + 4 * n * m * c

    def forward_bytes_per_frame(self) -> int:
        """Float64 operands read and written once: x, W, q, pos, tokens, attention."""
        m, d, c, n = self.tokens, self.feature_dim, self.width, self.queries
        return FLOAT64_BYTES * (m * d + d * c + n * c + m * c + n * c + n * m)

    def forward_flops_per_video(self) -> int:
        return self.frames * self.forward_flops_per_frame()

    def backward_useful_flops_per_video(self) -> int:
        """Twice the forward matmul FLOPs; the recomputed forward is not useful work."""
        return 2 * self.forward_flops_per_video()


@dataclass(frozen=True)
class PatchShape:
    """Shapes that set the patchify encoder's work per frame."""

    tokens: int  # M
    patch: int  # p
    feature_dim: int  # D

    def flops_per_frame(self) -> int:
        """2·M·3p²·D for the patch projection."""
        return 2 * self.tokens * 3 * self.patch**2 * self.feature_dim

    def bytes_per_frame(self) -> int:
        flat = 3 * self.patch**2
        return FLOAT64_BYTES * (self.tokens * flat + flat * self.feature_dim + self.tokens * self.feature_dim)


def computed_cost(adapter: AdapterShape | None, patch: PatchShape | None) -> dict:
    """FLOPs, bytes and FLOPs per byte from shapes, labelled as computed."""
    out = {}
    if patch is not None:
        flops, nbytes = patch.flops_per_frame(), patch.bytes_per_frame()
        out["patchify_per_frame"] = {"flops": flops, "bytes": nbytes, "flops_per_byte": flops / nbytes}
    if adapter is not None:
        flops, nbytes = adapter.forward_flops_per_frame(), adapter.forward_bytes_per_frame()
        out["adapter_forward_per_frame"] = {"flops": flops, "bytes": nbytes, "flops_per_byte": flops / nbytes}
        out["adapter_backward_useful_per_frame"] = {"flops": 2 * flops}
    return {"source": "computed from shapes, 2 FLOPs per multiply-accumulate", **out} if out else {}


class Workload:
    """Base: one seeded client. Subclasses fill in the four hooks."""

    name = ""
    unit = ""  # what one unit of throughput is
    stepped = False  # an operation is a training run split into steps
    named = {}  # generic end-to-end metric -> the name it has on this workload
    adapter_shape: AdapterShape | None = None
    patch_shape: PatchShape | None = None

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke

    def setup(self, workdir: Path) -> None:
        raise NotImplementedError

    def run_op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        """Problems found in the outputs of operation ``i``; empty when correct."""
        raise NotImplementedError

    def units_per_op(self) -> int:
        raise NotImplementedError

    def extra_details(self) -> dict:
        return {}


# The verify suite's TOY_PRUNED_SPEC, with the shapes it takes from the
# ToyTaskSpec defaults spelled out.
TOY_PRUNED_CONFIG = {"seed": 7, "frames": 8, "grid_h": 8, "grid_w": 8, "feature_dim": 32, "queries": 32,
                     "embed_dim": 32, "keep": 16, "batch_videos": 12, "steps": 300, "learning_rate": 0.5}
TOY_FINAL_LOSS = "0.061321"


class TrainWorkload(Workload):
    """``train-toy`` on a seeded config; each operation is a whole run."""

    unit = "train step"
    stepped = True
    named = {"throughput_per_s": "train_steps_per_s"}

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.config = self.make_config()
        c = self.config
        self.adapter_shape = AdapterShape(
            c["frames"], c["grid_h"] * c["grid_w"], c["feature_dim"], c["embed_dim"], c["queries"]
        )
        self.report_digest = None
        self.final_loss = None
        self.expected_final_loss: str | None = None
        self.golden = None if smoke else load_golden(self.name, seed)  # the loss curve

    def make_config(self) -> dict:
        raise NotImplementedError

    def setup(self, workdir: Path) -> None:
        workdir.mkdir(parents=True)
        self.config_path = workdir / "config.json"
        self.report_path = workdir / "report.json"
        self.config_path.write_text(json.dumps(self.config), encoding="utf-8")
        # One-time initialisation: one forward pass at the same shapes.
        warm = workdir / "warmup.json"
        warm.write_text(json.dumps({**self.config, "steps": 0}), encoding="utf-8")
        if _cli(["train-toy", "--config", warm]) != 0:
            raise RuntimeError("warm-up train-toy failed")

    def run_op(self, i: int):
        return _cli(["train-toy", "--config", self.config_path, "--report", self.report_path])

    def check(self, i: int, rc) -> list[str]:
        if rc != 0:
            return [f"train-toy exited {rc}"]
        raw = self.report_path.read_bytes()
        report = json.loads(raw)
        curve = report["loss_curve"]
        problems = []
        if len(curve) != self.units_per_op() + 1:
            problems.append(f"{len(curve)} losses for {self.units_per_op()} steps")
        if not all(math.isfinite(v) for v in curve):
            problems.append("non-finite loss")
        elif self.golden is not None and not np.allclose(curve, self.golden, rtol=GOLDEN_RTOL, atol=0):
            problems.append("loss curve differs from the golden one for this seed")
        final = report["final_metrics"]["final_loss"]
        if self.expected_final_loss and f"{final:.6f}" != self.expected_final_loss:
            problems.append(f"final loss {final:.6f}, expected {self.expected_final_loss}")
        digest = hashlib.sha256(raw).hexdigest()
        if self.report_digest is None:
            self.report_digest = digest
        elif digest != self.report_digest:
            problems.append("report differs from the first run's")
        self.final_loss = final
        return problems

    def units_per_op(self) -> int:
        return self.config["steps"]

    def extra_details(self) -> dict:
        return {"final_loss": self.final_loss, "config": self.config}


class ToyTrain(TrainWorkload):
    """The verify toy spec: tiny matrices, so Python overhead dominates.

    Its inputs are fixed, because the roadmap pins this run's final loss;
    the seed changes nothing here.
    """

    name = "toy_train"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        if not smoke:
            self.expected_final_loss = TOY_FINAL_LOSS

    def make_config(self) -> dict:
        if self.smoke:
            return {**TOY_PRUNED_CONFIG, "frames": 2, "grid_h": 3, "grid_w": 3, "feature_dim": 8,
                    "queries": 8, "embed_dim": 8, "keep": 4, "batch_videos": 2, "steps": 3}
        return dict(TOY_PRUNED_CONFIG)


class PaperTrain(TrainWorkload):
    """The toy task at the paper-like shape, where BLAS sets the pace."""

    name = "paper_train"

    def make_config(self) -> dict:
        base = {"seed": self.seed, "learning_rate": 0.5}
        if self.smoke:
            return {**base, "frames": 2, "grid_h": 4, "grid_w": 4, "feature_dim": 16, "queries": 8,
                    "embed_dim": 16, "keep": 4, "batch_videos": 2, "steps": 2}
        return {**base, "frames": 8, "grid_h": 16, "grid_w": 16, "feature_dim": 1024, "queries": 256,
                "embed_dim": 1024, "keep": 64, "batch_videos": 2, "steps": 3}


class PaperCompress(Workload):
    """``encode --images`` -> ``compress`` -> ``assemble``, one video after another."""

    name = "paper_compress"
    unit = "video"
    named = {
        "throughput_per_s": "compress_videos_per_s",
        "op_ms_p50": "compress_video_ms_p50",
        "op_ms_tail": "compress_video_ms_tail",
    }

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        if smoke:
            self.frames, self.side, self.patch, self.dim = 2, 28, 14, 16
            self.queries, self.width, self.keep, self.prompt, self.videos = 8, 16, 4, 4, 2
        else:
            self.frames, self.side, self.patch, self.dim = 8, 224, 14, 1024
            self.queries, self.width, self.keep, self.prompt, self.videos = 256, 1024, 64, 64, 4
        grid = self.side // self.patch
        self.adapter_shape = AdapterShape(self.frames, grid * grid, self.dim, self.width, self.queries)
        self.patch_shape = PatchShape(grid * grid, self.patch, self.dim)
        self.digests = {}
        self.golden = None if smoke else load_golden(self.name, seed)  # one fingerprint per video

    def setup(self, workdir: Path) -> None:
        workdir.mkdir(parents=True)
        rng = np.random.default_rng(self.seed)
        self.frame_paths = []
        for v in range(self.videos):
            paths = []
            for f in range(self.frames):
                path = workdir / f"v{v}_f{f}.npy"
                np.save(path, rng.random((self.side, self.side, 3)))
                paths.append(path)
            self.frame_paths.append(paths)
        self.features = workdir / "features.ftv1"
        self.kept = workdir / "kept.ftv1"
        self.sequence = workdir / "sequence.ftv1"
        self.checkpoint = workdir / "checkpoint"
        # The first chain creates the checkpoint and warms every stage.
        if self.run_op(0) != (0, 0, 0):
            raise RuntimeError("warm-up chain failed")

    def run_op(self, i: int):
        frames = self.frame_paths[i % self.videos]
        rcs = []
        for argv in (
            ["encode", "--images", *frames, "--patch", self.patch, "--dim", self.dim, "--out", self.features],
            ["compress", "--features", self.features, "--checkpoint", self.checkpoint,
             "--queries", self.queries, "--width", self.width, "--seed", self.seed,
             "--k", self.keep, "--out", self.kept],
            ["assemble", "--tokens", self.kept, "--prompt-len", self.prompt, "--out", self.sequence],
        ):
            rcs.append(_cli(argv))
            if rcs[-1] != 0:
                break
        return tuple(rcs)

    def check(self, i: int, rcs) -> list[str]:
        if rcs != (0, 0, 0):
            return [f"chain exited {rcs}"]
        t, k, c, n = self.frames, self.keep, self.width, self.queries
        problems = []
        kept = read_ftv1(self.kept)
        seq = read_ftv1(self.sequence)
        sidecar_bytes = Path(str(self.kept) + ".json").read_bytes()
        sidecar = json.loads(sidecar_bytes)
        if kept.shape != (t, k, c):
            problems.append(f"kept tokens {kept.shape}, expected {(t, k, c)}")
        if seq.shape != (t * k, c):
            problems.append(f"sequence {seq.shape}, expected {(t * k, c)}")
        elif kept.shape == (t, k, c) and not np.array_equal(seq, kept.reshape(t * k, c)):
            problems.append("sequence is not the kept tokens in frame order")
        if not np.all(np.isfinite(seq)):
            problems.append("non-finite sequence values")
        indices = sidecar.get("indices")
        if sidecar.get("keep") != k or not isinstance(indices, list) or len(indices) != t:
            problems.append("sidecar does not describe the kept tokens")
        else:
            for f, idx in enumerate(indices):
                if len(idx) != k or len(set(idx)) != k or not all(
                    isinstance(x, int) and 0 <= x < n for x in idx
                ):
                    problems.append(f"frame {f}: invalid kept indices")
        digest = hashlib.sha256(self.sequence.read_bytes() + sidecar_bytes).hexdigest()
        if self.digests.setdefault(i % self.videos, digest) != digest:
            problems.append(f"video {i % self.videos}: output differs from its first run")
        if self.golden is not None:
            want, got = self.golden[i % self.videos], self.fingerprint()
            if got["indices_sha256"] != want["indices_sha256"]:
                problems.append(f"video {i % self.videos}: kept indices differ from the golden ones")
            if not np.allclose([got["abs_sum"], got["sq_sum"]], [want["abs_sum"], want["sq_sum"]],
                               rtol=GOLDEN_RTOL, atol=0):
                problems.append(f"video {i % self.videos}: sequence values differ from the golden ones")
        return problems

    def fingerprint(self) -> dict:
        """The last video's kept indices (digest) and sequence sums, as the golden file pins them."""
        seq = read_ftv1(self.sequence).astype(np.float64)
        indices = json.loads(Path(str(self.kept) + ".json").read_bytes())["indices"]
        return {
            "indices_sha256": hashlib.sha256(json.dumps(indices).encode()).hexdigest(),
            "abs_sum": float(np.abs(seq).sum()),
            "sq_sum": float(np.square(seq).sum()),
        }

    def units_per_op(self) -> int:
        return 1


MANIFEST_TYPES = (
    "classification",
    "simple_caption",
    "detailed_caption",
    "conversation",
    "vqa",
    "reasoning",
    "unspecified",
)
# Skewed instruction-type mix of the generated records.
MANIFEST_TYPE_WEIGHTS = (0.05, 0.10, 0.15, 0.30, 0.20, 0.15, 0.05)
FILTER_TYPES = ("vqa", "reasoning")
# No per-video QA statistic of the 228,914-video set is published, so the
# counts and text lengths are sized to the manifest measured before this
# benchmark existed: one read_manifest of ~4.3-5.0 s and a 716 MiB peak RSS.
# Geometric(0.68) QA records per video plus the heavy tail make ~369k
# records, with 40-120 character questions and 200-2200 character answers
# (~490 MiB of JSONL).
QA_COUNT_P = 0.68
QUESTION_CHARS = (40, 121)
ANSWER_CHARS = (200, 2201)
TEXT_POOL_CHARS = 1 << 16
TEXT_WORDS = ("the", "a", "person", "walks", "into", "room", "and", "picks", "up", "red", "cup", "then", "camera",
              "pans", "left", "while", "dog", "runs", "across", "street", "near", "car", "video", "shows", "two",
              "people", "talking", "at", "table", "before", "after", "because", "scene", "ends", "with", "light")


class ManifestPrep(Workload):
    """``subsample --qa-cap`` then ``filter`` on a paper-scale JSONL manifest."""

    name = "manifest_prep"
    unit = "QA record"
    named = {"throughput_per_s": "manifest_records_per_s"}
    fraction = 0.1
    qa_cap = 2

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.videos = 2_000 if smoke else 228_914
        self.kept_videos = 0

    def setup(self, workdir: Path) -> None:
        workdir.mkdir(parents=True)
        rng = np.random.default_rng(self.seed)
        # Most videos carry a few QA records; one in two hundred carries many.
        counts = rng.geometric(QA_COUNT_P, size=self.videos)
        heavy = rng.random(self.videos) < 0.005
        counts[heavy] += rng.integers(10, 50, size=int(heavy.sum()))
        self.records = int(counts.sum())
        types = rng.choice(len(MANIFEST_TYPES), size=self.records, p=MANIFEST_TYPE_WEIGHTS).tolist()
        # Question and answer texts are seeded slices of one seeded word stream.
        words = rng.choice(TEXT_WORDS, size=TEXT_POOL_CHARS // 4).tolist()
        pool = " ".join(words)[:TEXT_POOL_CHARS]
        q_lens = rng.integers(*QUESTION_CHARS, size=self.records).tolist()
        a_lens = rng.integers(*ANSWER_CHARS, size=self.records).tolist()
        offsets = rng.integers(0, TEXT_POOL_CHARS - ANSWER_CHARS[1], size=(self.records, 2)).tolist()
        self.manifest = workdir / "manifest.jsonl"
        self.subsampled = workdir / "subsampled.jsonl"
        self.filtered = workdir / "filtered.jsonl"
        wanted = {MANIFEST_TYPES.index(t) for t in FILTER_TYPES}
        self.expected_filtered = sum(1 for t in types if t in wanted)
        r = 0
        with open(self.manifest, "w", encoding="utf-8") as fh:
            for v, count in enumerate(counts.tolist()):
                lines = []
                for q in range(count):
                    qo, ao = offsets[r]
                    lines.append(
                        f'{{"video_id": "v{v:07d}", "qa_id": "q{q:03d}", '
                        f'"question": "{pool[qo:qo + q_lens[r]]}?", '
                        f'"answer": "{pool[ao:ao + a_lens[r]]}.", "data_type": "{MANIFEST_TYPES[types[r]]}"}}\n'
                    )
                    r += 1
                fh.write("".join(lines))

    def run_op(self, i: int):
        sub = _cli(["subsample", self.manifest, "--fraction", self.fraction, "--seed", self.seed,
                    "--qa-cap", self.qa_cap, "--out", self.subsampled])
        if sub != 0:
            return sub, None
        return sub, _cli(["filter", self.manifest, "--types", ",".join(FILTER_TYPES), "--out", self.filtered])

    def check(self, i: int, rcs) -> list[str]:
        if rcs != (0, 0):
            return [f"subcommands exited {rcs}"]
        problems = []
        per_video = {}
        last = ("", "")
        with open(self.subsampled, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                key = (rec["video_id"], rec["qa_id"])
                if key <= last:
                    problems.append("subsample broke the record order")
                    break
                last = key
                per_video[key[0]] = per_video.get(key[0], 0) + 1
        self.kept_videos = len(per_video)
        expected_videos = math.floor(self.fraction * self.videos)
        if self.kept_videos != expected_videos:
            problems.append(f"kept {self.kept_videos} videos, expected {expected_videos}")
        if per_video and max(per_video.values()) > self.qa_cap:
            problems.append(f"a video kept more than {self.qa_cap} QA records")
        filtered = 0
        with open(self.filtered, encoding="utf-8") as fh:
            for line in fh:
                filtered += 1
                if json.loads(line)["data_type"] not in FILTER_TYPES:
                    problems.append("filter kept a record of another type")
                    break
        if filtered != self.expected_filtered:
            problems.append(f"filter kept {filtered} records, expected {self.expected_filtered}")
        return problems

    def units_per_op(self) -> int:
        return self.records

    def extra_details(self) -> dict:
        return {"manifest_videos": self.videos, "manifest_records": self.records,
                "kept_videos": self.kept_videos, "filtered_records": self.expected_filtered}


WORKLOADS = {w.name: w for w in (ToyTrain, PaperTrain, PaperCompress, ManifestPrep)}
