"""Training-data curriculum tools.

Manifests are JSON Lines files of QA records tied to videos. The
operations here are the data-side levers of the training recipe:
video-level subsampling (pick a fraction of the *videos*, keep their QA
pairs), instruction-type filtering, and generation of multi-stage
training plans that differ in where video data enters the schedule.
"""

from __future__ import annotations

import json
import math
import os
import stat
from array import array
from dataclasses import asdict, dataclass

from .errors import FormatError, ParameterError
from .ftv1 import _IO_BUFFER, _JSON_ERRORS, _parse_json, _replacing
from .linalg import _check_count, _check_real, make_rng

DATA_TYPES = (
    "classification",
    "simple_caption",
    "detailed_caption",
    "conversation",
    "vqa",
    "reasoning",
    "unspecified",
)

# Image datasets by training-stage role.
IMAGE_DATASET_ROLES = {
    "align": ("LAION",),
    "pretrain": ("GRIT", "VisualGenome", "VQAv2", "GQA", "LAION", "ShareGPT4V-caption"),
    "instruct": ("ShareGPT4V", "M3IT"),
}

VIDEO_PRETRAIN_DATASET = "Valley702k"
VIDEO_INSTRUCT_DATASET = "VideoInstruct"

# The placement rule of each strategy: the stages that carry video data,
# and which video dataset each one mixes in.
VIDEO_PLACEMENT = {
    "S4-V": {"video-instruct": VIDEO_INSTRUCT_DATASET},
    "S3-IV": {"instruct": VIDEO_INSTRUCT_DATASET},
    "S2-S3-IV": {"pretrain": VIDEO_PRETRAIN_DATASET, "instruct": VIDEO_INSTRUCT_DATASET},
}
STRATEGIES = tuple(VIDEO_PLACEMENT)

# What gets optimizer updates in each stage. The first stage only warms
# up the adapter; later stages unfreeze the language model and the last
# encoder layers as well.
STAGE_TRAINABLE = {
    "align": ("adapter",),
    "pretrain": ("encoder_last3", "adapter", "llm"),
    "instruct": ("adapter", "llm"),
    "video-instruct": ("adapter", "llm"),
}


# A manifest line: the five fields in a fixed order, as ``json.dumps`` of
# the field dict with ``ensure_ascii=False`` writes it.
_FIELDS = ("video_id", "qa_id", "question", "answer", "data_type")
_LINE = '{{"video_id": {}, "qa_id": {}, "question": {}, "answer": {}, "data_type": {}}}\n'
_PLAIN_LINE = _LINE.replace("{}", '"{}"')

_raw_decode = json.JSONDecoder().raw_decode


def _record_line(fields, plain: bool = False) -> str:
    """One manifest line for the five ``fields``, in ``_FIELDS`` order.

    Each string is quoted as ``json.dumps`` quotes it. ``plain`` says that
    no field holds a quote, a backslash or a control character, the only
    characters json escapes; each is then quoted by concatenation.
    """
    if plain:
        return _PLAIN_LINE.format(*fields)
    return _LINE.format(*map(json.encoder.encode_basestring, fields))


def _as_strings(path, where, fields) -> tuple[str, ...]:
    """``fields`` with numbers, booleans and nulls turned into text by
    ``str``; a JSON object or array is an error."""
    out = []
    for name, value in zip(_FIELDS, fields):
        if isinstance(value, (dict, list)):
            kind = "an object" if isinstance(value, dict) else "an array"
            raise FormatError(f"{path}:{where}: field {name!r} holds {kind}, not text")
        out.append(str(value))
    return tuple(out)


def _parse_line(path, where, raw: bytes):
    """``(fields, plain)`` for one raw manifest line, or None for a blank line.

    ``fields`` are the five validated strings in ``_FIELDS`` order; ``plain``
    is true when the line holds no backslash. A JSON string without one
    holds no quote or control character, and ``str`` of a number, boolean
    or null holds none either, so ``_record_line`` needs no escaping.
    ``where`` (a line number, or ``byte N``) follows ``path`` in error
    messages.
    """
    try:
        line = raw.decode("utf-8").strip()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}:{where}: not UTF-8: {exc}") from exc
    if not line:
        return None
    try:
        obj, end = _raw_decode(line)
    except _JSON_ERRORS:
        end = None
    if end != len(line):  # decode again for json's own message (trailing data, a BOM, ...)
        obj = _parse_json(line, f"{path}:{where}: bad record")
    if not isinstance(obj, dict):
        raise FormatError(f"{path}:{where}: record is not an object")
    try:
        video_id, qa_id = obj["video_id"], obj["qa_id"]
    except KeyError as exc:
        raise FormatError(f"{path}:{where}: missing field {exc}") from exc
    question = obj.get("question", "")
    answer = obj.get("answer", "")
    data_type = obj.get("data_type", "unspecified")
    fields = (video_id, qa_id, question, answer, data_type)
    if not (type(video_id) is type(qa_id) is type(question) is type(answer)
            is type(data_type) is str):
        fields = _as_strings(path, where, fields)
        video_id, qa_id, _, _, data_type = fields
    if not video_id or not qa_id:
        raise FormatError(f"{path}:{where}: video_id and qa_id must be non-empty")
    if data_type not in DATA_TYPES:
        raise FormatError(
            f"{path}:{where}: unknown data_type {data_type!r}; expected one of {DATA_TYPES}"
        )
    plain = "\\" not in line
    if not plain:
        # Only a \u escape can put a lone surrogate in a field, and UTF-8
        # cannot encode one.
        for name, value in zip(_FIELDS, fields):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise FormatError(f"{path}:{where}: field {name!r} holds a lone surrogate") from exc
    return fields, plain


def _key(video_id: str, qa_id: str) -> str:
    """One string for the record key (video_id, qa_id). The length prefix
    keeps distinct pairs apart, and a str, unlike a tuple, is one object
    the garbage collector does not track."""
    return f"{len(video_id)}:{video_id}{qa_id}"


def _scan(path):
    """Yield ``(offset, key, fields, plain)`` for every non-blank line of a
    manifest file: the line's byte offset, its ``_key``, and
    ``_parse_line``'s fields and flag; a repeated (video_id, qa_id) key is
    an error."""
    seen = set()
    offset = 0
    with open(path, "rb", _IO_BUFFER) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parsed = _parse_line(path, lineno, raw)
            if parsed is not None:
                fields, plain = parsed
                key = _key(fields[0], fields[1])
                if key in seen:
                    raise FormatError(f"{path}:{lineno}: duplicate record key {fields[:2]}")
                seen.add(key)
                yield offset, key, fields, plain
            offset += len(raw)


def _kept_positions(
    video_ids, fraction: float, seed: int, qa_cap_per_video: int | None
) -> tuple[list[int], int]:
    """Positions (ascending) of the records ``subsample_file`` keeps, given each
    record's video id, and the number of distinct videos."""
    distinct = list(dict.fromkeys(video_ids))
    n_keep = math.floor(fraction * len(distinct))
    rng = make_rng(seed)
    chosen = rng.choice(len(distinct), size=n_keep, replace=False).tolist()
    keep_ids = {distinct[i] for i in chosen}
    kept = [i for i, vid in enumerate(video_ids) if vid in keep_ids]
    if qa_cap_per_video is not None:
        by_video: dict[str, list[int]] = {}
        for i in kept:
            by_video.setdefault(video_ids[i], []).append(i)
        capped = []
        # Videos come in first-appearance order, so the rng consumption is
        # deterministic.
        for indices in by_video.values():
            if len(indices) > qa_cap_per_video:
                picked = rng.choice(len(indices), size=qa_cap_per_video, replace=False)
                indices = [indices[j] for j in sorted(picked.tolist())]
            capped.extend(indices)
        kept = sorted(capped)
    return kept, len(distinct)


def subsample_file(
    src, dst, fraction: float, seed: int, qa_cap_per_video: int | None = None
) -> tuple[int, int, int, int]:
    """Keep floor(fraction * videos) of the videos in manifest ``src`` and
    write their QA records to ``dst``.

    Videos are drawn uniformly without replacement under the seed;
    surviving records keep their original order. ``qa_cap_per_video``
    optionally limits how many QA records each chosen video contributes
    (again drawn uniformly), for corpora whose QA counts per video are
    heavily skewed.

    The manifest is not held in memory. The first pass validates every
    record and keeps only each record's byte offset, key and video id;
    the second seeks to the kept records and parses only those, so ``src``
    must be a regular file that stays unchanged between the passes. Returns
    (videos, QA pairs) of ``src`` and of the output.
    """
    fraction = _check_real("fraction", fraction, fraction=True)
    if qa_cap_per_video is not None:
        _check_count("qa_cap_per_video", qa_cap_per_video)
    _check_count("seed", seed, low=0)
    if not stat.S_ISREG(os.stat(src).st_mode):
        raise FormatError(f"{src}: not a regular file; subsample reads it twice")
    offsets = array("q")
    keys: list[str] = []
    video_ids: list[str] = []
    video_id = None
    for offset, key, fields, _ in _scan(src):
        offsets.append(offset)
        keys.append(key)
        # Consecutive records of one video share one id string.
        if fields[0] != video_id:
            video_id = fields[0]
        video_ids.append(video_id)
    if not video_ids:
        raise FormatError(f"{src}: cannot subsample an empty manifest")
    kept, videos = _kept_positions(video_ids, fraction, seed, qa_cap_per_video)
    # Default buffering: each seek outside the buffer refills all of it.
    with open(src, "rb") as fh, _replacing(dst) as out:
        for i in kept:
            at = offsets[i]
            fh.seek(at)
            try:
                parsed = _parse_line(src, f"byte {at}", fh.readline())
            except FormatError as exc:
                raise FormatError(f"{exc}; the file changed after the first read") from exc
            if parsed is None or _key(*parsed[0][:2]) != keys[i]:
                vid = video_ids[i]
                qa_id = keys[i][len(_key(vid, "")):]
                raise FormatError(
                    f"{src}:byte {at}: expected record ({vid!r}, {qa_id!r}) "
                    "on the second read; the file changed"
                )
            out.write(_record_line(*parsed))
    return videos, len(video_ids), len({video_ids[i] for i in kept}), len(kept)


def filter_file(src, dst, types) -> tuple[int, int]:
    """Write the records of manifest ``src`` whose data_type lies in
    ``types`` to ``dst``, order preserved, in one streaming pass. Returns
    the QA pairs read and the QA pairs kept."""
    wanted = set(types)
    if not wanted:
        raise ParameterError("type set must be non-empty")
    unknown = wanted - set(DATA_TYPES)
    if unknown:
        raise ParameterError(
            f"unknown data types {sorted(unknown)}; expected from {DATA_TYPES}"
        )
    read = kept = 0
    with _replacing(dst) as out:
        for _, _, fields, plain in _scan(src):
            read += 1
            if fields[4] in wanted:
                kept += 1
                out.write(_record_line(fields, plain))
    return read, kept


def synthetic_manifest(path, videos: int, qa_per_video: int, seed: int = 0) -> None:
    """Write a quick deterministic manifest to ``path``, for tests and demos."""
    _check_count("videos", videos)
    _check_count("qa_per_video", qa_per_video)
    rng = make_rng(seed)
    type_idx = rng.integers(0, len(DATA_TYPES) - 1, size=videos * qa_per_video).tolist()
    pos = 0
    # No field holds a character json escapes, so every line is plain.
    with _replacing(path) as fh:
        for v in range(videos):
            for q in range(qa_per_video):
                fields = (
                    f"vid{v:07d}",
                    f"qa{q:04d}",
                    f"what happens in clip {v} segment {q}?",
                    f"event {v}-{q}",
                    DATA_TYPES[type_idx[pos]],
                )
                fh.write(_record_line(fields, plain=True))
                pos += 1


@dataclass(frozen=True)
class StageSpec:
    """One training stage: its data sources and what gets updated."""

    name: str
    image_datasets: tuple[str, ...]
    video_dataset: str | None
    video_fraction: float | None
    trainable: tuple[str, ...]

    def __post_init__(self):
        if (self.video_dataset is None) != (self.video_fraction is None):
            raise ParameterError(
                f"stage {self.name}: video dataset and fraction must come together"
            )
        if self.video_fraction is not None:
            fraction = _check_real(f"stage {self.name}: video fraction", self.video_fraction, fraction=True)
            object.__setattr__(self, "video_fraction", fraction)


@dataclass(frozen=True)
class StagePlan:
    """An ordered training schedule satisfying its strategy's placement rule."""

    strategy: str
    stages: tuple[StageSpec, ...]

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ParameterError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        stages = tuple(self.stages)
        names = [s.name for s in stages]
        # The three image stages, then an optional video-instruct stage.
        expected = list(STAGE_TRAINABLE)[: 4 if len(names) == 4 else 3]
        if names != expected:
            raise ParameterError(f"stage order must be {expected}, got {names}")
        video_stages = {s.name for s in stages if s.video_dataset is not None}
        allowed = set(VIDEO_PLACEMENT[self.strategy])
        if video_stages != allowed:
            raise ParameterError(
                f"strategy {self.strategy} places video data in {sorted(allowed)}, "
                f"plan has it in {sorted(video_stages)}"
            )
        object.__setattr__(self, "stages", stages)


def make_plan(
    strategy: str,
    pretrain_fraction: float | None = None,
    instruct_fraction: float | None = None,
) -> StagePlan:
    """Build the stage schedule for one of the three video strategies.

    ``pretrain_fraction`` scales the video data mixed into the pretrain
    stage (S2-S3-IV only); ``instruct_fraction`` scales the video data in
    the instruction stage (or the dedicated fourth stage for S4-V) and
    defaults to the full set. Supplying a fraction for a stage the
    strategy keeps video-free is an error.
    """
    if strategy not in STRATEGIES:
        raise ParameterError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    placement = VIDEO_PLACEMENT[strategy]
    if "pretrain" not in placement and pretrain_fraction is not None:
        raise ParameterError(
            f"strategy {strategy} keeps the pretrain stage video-free; "
            "pretrain_fraction is not allowed"
        )
    if "pretrain" in placement and pretrain_fraction is None:
        raise ParameterError(f"strategy {strategy} needs a pretrain_fraction")
    video_fraction = 1.0 if instruct_fraction is None else instruct_fraction
    stages = []
    for name in STAGE_TRAINABLE:
        dataset = placement.get(name)
        if name == "video-instruct" and dataset is None:
            continue  # the fourth stage exists only to carry video data
        fraction = pretrain_fraction if name == "pretrain" else video_fraction
        stages.append(
            StageSpec(
                name=name,
                image_datasets=IMAGE_DATASET_ROLES.get(name, ()),
                video_dataset=dataset,
                video_fraction=None if dataset is None else fraction,
                trainable=STAGE_TRAINABLE[name],
            )
        )
    return StagePlan(strategy=strategy, stages=tuple(stages))


def plan_to_text(plan: StagePlan) -> str:
    """Render a plan as structured text in its fields' declared order."""
    return json.dumps(asdict(plan), indent=2) + "\n"
