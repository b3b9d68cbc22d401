import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framepress import cli
from framepress.curriculum import (
    DATA_TYPES,
    IMAGE_DATASET_ROLES,
    STRATEGIES,
    DatasetManifest,
    QaRecord,
    StagePlan,
    StageSpec,
    _parse_line,
    _record_line,
    filter_type,
    make_plan,
    plan_to_text,
    read_manifest,
    subsample,
    synthetic_manifest,
    write_manifest,
)
from framepress.errors import EmptyInputError, FormatError, ParameterError, PlanError

TEXT = st.text(st.characters(codec="utf-8"), max_size=6)


def test_record_and_manifest_validation():
    with pytest.raises(ParameterError):
        QaRecord(video_id="", qa_id="q", question="?", answer="a")
    with pytest.raises(ParameterError):
        QaRecord(video_id="v", qa_id="q", question="?", answer="a", data_type="poem")
    rec = QaRecord(video_id="v", qa_id="q", question="?", answer="a")
    with pytest.raises(ParameterError):
        DatasetManifest(name="m", records=(rec, rec))


def test_counts_derived_from_records():
    m = synthetic_manifest(7, 3, seed=1)
    assert m.qa_pairs == 21
    assert m.unique_videos == 7
    assert m.video_ids() == [f"vid{v:07d}" for v in range(7)]


def test_subsample_exact_floor_counts():
    m = synthetic_manifest(100, 2, seed=2)
    for fraction, want in ((0.1, 10), (0.33, 33), (0.999, 99), (1.0, 100)):
        sub = subsample(m, fraction, seed=5)
        assert sub.unique_videos == want


def test_subsample_fraction_one_is_identity():
    m = synthetic_manifest(12, 2, seed=3)
    assert subsample(m, 1.0, seed=9) == m


def test_subsample_is_sub_multiset_in_original_order():
    m = synthetic_manifest(40, 3, seed=4)
    sub = subsample(m, 0.4, seed=6)
    keys = [(r.video_id, r.qa_id) for r in m.records]
    sub_keys = [(r.video_id, r.qa_id) for r in sub.records]
    positions = [keys.index(k) for k in sub_keys]
    assert positions == sorted(positions)
    assert set(sub_keys) <= set(keys)
    # All QA pairs of every chosen video survive when no cap is set.
    chosen = {r.video_id for r in sub.records}
    assert sub.qa_pairs == sum(1 for r in m.records if r.video_id in chosen)


def test_subsample_deterministic_byte_for_byte(tmp_path):
    m = synthetic_manifest(60, 2, seed=7)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_manifest(subsample(m, 0.5, seed=8), a)
    write_manifest(subsample(m, 0.5, seed=8), b)
    assert a.read_bytes() == b.read_bytes()
    write_manifest(subsample(m, 0.5, seed=9), b)
    assert a.read_bytes() != b.read_bytes()


def test_subsample_qa_cap():
    m = synthetic_manifest(10, 6, seed=10)
    sub = subsample(m, 1.0, seed=11, qa_cap_per_video=2)
    assert sub.unique_videos == 10
    per_video = {}
    for r in sub.records:
        per_video[r.video_id] = per_video.get(r.video_id, 0) + 1
    assert all(count == 2 for count in per_video.values())


def test_subsample_errors():
    m = synthetic_manifest(3, 1, seed=12)
    with pytest.raises(ParameterError):
        subsample(m, 0.0, seed=0)
    with pytest.raises(ParameterError):
        subsample(m, 1.2, seed=0)
    with pytest.raises(EmptyInputError):
        subsample(DatasetManifest(name="e", records=()), 0.5, seed=0)


@given(st.integers(1, 300), st.floats(0.001, 1.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_subsample_count_is_floor_property(videos, fraction):
    m = synthetic_manifest(videos, 1, seed=13)
    sub = subsample(m, fraction, seed=14)
    assert sub.unique_videos == math.floor(fraction * videos)


def test_filter_type_keeps_order_and_composes():
    m = synthetic_manifest(30, 4, seed=15)
    vqa_reasoning = filter_type(m, {"vqa", "reasoning"})
    assert all(r.data_type in {"vqa", "reasoning"} for r in vqa_reasoning.records)
    # Composition with a nested set equals filtering by the inner set.
    inner = filter_type(vqa_reasoning, {"vqa"})
    assert inner == filter_type(m, {"vqa"})
    assert filter_type(m, set(DATA_TYPES)) == m


def test_filter_type_rejects_unknown_and_empty():
    m = synthetic_manifest(3, 1, seed=16)
    with pytest.raises(ParameterError):
        filter_type(m, {"sonnets"})
    with pytest.raises(ParameterError):
        filter_type(m, set())


def test_manifest_file_round_trip(tmp_path):
    m = synthetic_manifest(15, 3, seed=20, name="demo")
    path = tmp_path / "demo.jsonl"
    write_manifest(m, path)
    assert read_manifest(path) == m  # name defaults to the file stem
    assert read_manifest(path, name="demo") == m


def test_manifest_unicode_survives(tmp_path):
    rec = QaRecord(
        video_id="v1", qa_id="q1", question="何が起きた？", answer="猫が跳んだ 🐈"
    )
    m = DatasetManifest(name="uni", records=(rec,))
    path = tmp_path / "uni.jsonl"
    write_manifest(m, path)
    assert read_manifest(path, name="uni") == m
    assert "何が起きた" in path.read_text(encoding="utf-8")  # not \u-escaped


def test_read_manifest_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"video_id": "v"\n', encoding="utf-8")
    with pytest.raises(FormatError):
        read_manifest(path)
    path.write_text('["not", "an", "object"]\n', encoding="utf-8")
    with pytest.raises(FormatError):
        read_manifest(path)
    path.write_text('{"qa_id": "q"}\n', encoding="utf-8")
    with pytest.raises(FormatError):
        read_manifest(path)


@given(st.lists(st.tuples(TEXT, TEXT), max_size=5))
@settings(max_examples=40, deadline=None)
def test_write_manifest_lines_are_json_dumps(texts):
    records = tuple(
        QaRecord(video_id=f"v{i}{q}", qa_id="q", question=q, answer=a, data_type="vqa")
        for i, (q, a) in enumerate(texts)
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.jsonl"
        write_manifest(DatasetManifest(name="m", records=records), path)
        written = path.read_bytes().decode("utf-8")
    assert written == "".join(
        json.dumps(
            {"video_id": r.video_id, "qa_id": r.qa_id, "question": r.question,
             "answer": r.answer, "data_type": r.data_type},
            ensure_ascii=False,
        ) + "\n"
        for r in records
    )


def test_read_manifest_names_file_and_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = '{"video_id": "v", "qa_id": "q"}\n'
    path.write_bytes(good.encode() + b'{"video_id": "v", "qa_id": "\xff"}\n')
    with pytest.raises(FormatError, match=f"{path}:2: not UTF-8"):
        read_manifest(path)
    path.write_text(good + "\n" + good, encoding="utf-8")
    with pytest.raises(FormatError, match=f"{path}:3: duplicate record key"):
        read_manifest(path)


BAD_FIELD_LINES = {
    '{"video_id": "", "qa_id": "q"}': "video_id and qa_id must be non-empty",
    '{"video_id": "v", "qa_id": "q", "data_type": "poem"}': "unknown data_type 'poem'; expected one of",
    '{"video_id": "v", "qa_id": "q", "question": {"a": "it\'s"}}': "field 'question' holds an object",
    '{"video_id": "v", "qa_id": ["q"]}': "field 'qa_id' holds an array",
}


@pytest.mark.parametrize("line", list(BAD_FIELD_LINES))
def test_bad_field_values_name_file_and_line(line, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"video_id": "v0", "qa_id": "q"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(FormatError) as info:
        read_manifest(path)
    assert str(info.value).startswith(f"{path}:2: {BAD_FIELD_LINES[line]}")


# Lines that the one-pass decode rejects and that json.loads decodes again
# for its own message, which is the one an earlier json.loads-only reader gave.
JSON_REJECTS = {
    b'{"video_id": "v", "qa_id": "q"} x': "Extra data: line 1 column 33 (char 32)",
    b'\xef\xbb\xbf{"video_id": "v", "qa_id": "q"}':
        "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
    b'{"video_id": "v\x01", "qa_id": "q"}': "Invalid control character at: line 1 column 16 (char 15)",
    b'{"video_id": "v", "qa_id": "q': "Unterminated string starting at: line 1 column 28 (char 27)",
}


@pytest.mark.parametrize("raw", list(JSON_REJECTS))
def test_rejected_lines_keep_json_s_message(raw, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"video_id": "v0", "qa_id": "q"}\n' + raw + b"\n")
    with pytest.raises(FormatError) as info:
        read_manifest(path)
    assert str(info.value) == f"{path}:2: bad record: {JSON_REJECTS[raw]}"


SCALAR = st.integers() | st.floats() | st.booleans() | st.none()


@given(
    st.fixed_dictionaries(
        {"video_id": TEXT.map("v{}".format), "qa_id": TEXT.map("q{}".format)},
        optional={"question": TEXT, "answer": TEXT, "data_type": st.sampled_from(DATA_TYPES),
                  "extra": TEXT},
    ),
    st.dictionaries(st.sampled_from(["video_id", "qa_id", "question", "answer"]), SCALAR),
)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_record_line_is_json_dumps_of_the_parsed_fields(record, scalars):
    """Raw text, escaped text and number/boolean/null values all give the
    line json.dumps writes, on the plain path and the escaping one."""
    for line in (
        json.dumps(record, ensure_ascii=False),
        json.dumps(record, ensure_ascii=True),
        json.dumps({**record, **scalars}, ensure_ascii=False),
    ):
        obj = json.loads(line)
        want = json.dumps(
            {"video_id": str(obj["video_id"]), "qa_id": str(obj["qa_id"]),
             "question": str(obj.get("question", "")), "answer": str(obj.get("answer", "")),
             "data_type": obj.get("data_type", "unspecified")},
            ensure_ascii=False,
        ) + "\n"
        fields, plain = _parse_line("m.jsonl", 1, line.encode("utf-8"))
        assert plain == ("\\" not in line)
        assert _record_line(fields, plain) == want
        assert _record_line(fields) == want


@st.composite
def manifest_lines(draw):
    """JSONL text of a small manifest: videos interleaved, optional and extra
    fields, non-ASCII text, escaped or raw, and blank lines."""
    records = []
    for v in range(draw(st.integers(1, 6))):
        video_id = f"v{v}{draw(TEXT)}"
        for q in range(draw(st.integers(1, 4))):
            rec = {"video_id": video_id, "qa_id": f"q{q}"}
            for key in ("question", "answer", "extra"):
                if draw(st.booleans()):
                    rec[key] = draw(TEXT)
            if draw(st.booleans()):
                rec["data_type"] = draw(st.sampled_from(DATA_TYPES))
            records.append(rec)
    lines = []
    for rec in draw(st.permutations(records)):
        lines.append(json.dumps(rec, ensure_ascii=draw(st.booleans())))
        lines.extend(draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=1)))
    return "\n".join(lines) + "\n"


def _cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([str(a) for a in argv]) == 0
    return out.getvalue()


@given(
    manifest_lines(),
    st.floats(0.01, 1.0),
    st.integers(0, 1000),
    st.none() | st.integers(1, 3),
    st.sets(st.sampled_from(DATA_TYPES), min_size=1),
)
@settings(max_examples=40, deadline=None)
def test_streaming_cli_matches_in_memory_functions(text, fraction, seed, cap, types):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src, want, got = tmp / "m.jsonl", tmp / "want.jsonl", tmp / "got.jsonl"
        src.write_text(text, encoding="utf-8")
        manifest = read_manifest(src)

        sub = subsample(manifest, fraction, seed, qa_cap_per_video=cap)
        write_manifest(sub, want)
        argv = ["subsample", src, "--fraction", fraction, "--seed", seed, "--out", got]
        out = _cli_stdout(argv + ([] if cap is None else ["--qa-cap", cap]))
        assert got.read_bytes() == want.read_bytes()
        assert out.startswith(
            f"{manifest.unique_videos} videos / {manifest.qa_pairs} QA pairs -> "
            f"{sub.unique_videos} videos / {sub.qa_pairs} QA pairs -> "
        )

        filtered = filter_type(manifest, types)
        write_manifest(filtered, want)
        out = _cli_stdout(["filter", src, "--types", ",".join(types), "--out", got])
        assert got.read_bytes() == want.read_bytes()
        assert out.startswith(f"kept {filtered.qa_pairs} of {manifest.qa_pairs} QA pairs")
        assert sorted(p.name for p in tmp.iterdir()) == ["got.jsonl", "m.jsonl", "want.jsonl"]


def test_make_plan_stage_placement():
    four = make_plan("S4-V", instruct_fraction=0.1)
    assert [s.name for s in four.stages] == [
        "align",
        "pretrain",
        "instruct",
        "video-instruct",
    ]
    assert [s.video_dataset for s in four.stages] == [
        None,
        None,
        None,
        "VideoInstruct",
    ]
    assert four.stages[3].video_fraction == 0.1

    three = make_plan("S3-IV", instruct_fraction=0.3)
    assert [s.video_dataset for s in three.stages] == [None, None, "VideoInstruct"]

    joint = make_plan("S2-S3-IV", pretrain_fraction=0.1, instruct_fraction=0.1)
    assert [s.video_dataset for s in joint.stages] == [
        None,
        "Valley702k",
        "VideoInstruct",
    ]
    assert joint.stages[1].video_fraction == 0.1


def test_make_plan_image_roles_and_trainables():
    plan = make_plan("S4-V")
    assert plan.stages[0].image_datasets == IMAGE_DATASET_ROLES["align"]
    assert plan.stages[1].image_datasets == IMAGE_DATASET_ROLES["pretrain"]
    assert plan.stages[2].image_datasets == IMAGE_DATASET_ROLES["instruct"]
    assert plan.stages[0].trainable == ("adapter",)
    assert "llm" in plan.stages[2].trainable
    # The dedicated video stage carries no image data.
    assert plan.stages[3].image_datasets == ()


def test_make_plan_forbidden_fractions():
    with pytest.raises(PlanError):
        make_plan("S3-IV", pretrain_fraction=0.5)
    with pytest.raises(PlanError):
        make_plan("S4-V", pretrain_fraction=0.1)
    with pytest.raises(PlanError):
        make_plan("S2-S3-IV", instruct_fraction=0.1)  # missing pretrain fraction
    with pytest.raises(ParameterError):
        make_plan("S9-X")


def test_stage_plan_invariant_enforced_on_construction():
    bad_stage = StageSpec(
        name="pretrain",
        image_datasets=IMAGE_DATASET_ROLES["pretrain"],
        video_dataset="VideoInstruct",
        video_fraction=0.5,
        trainable=("adapter",),
    )
    ok = make_plan("S4-V")
    with pytest.raises(PlanError):
        StagePlan(
            strategy="S4-V",
            stages=(ok.stages[0], bad_stage, ok.stages[2], ok.stages[3]),
        )


def test_plan_to_text_is_stable_and_parseable():
    a = plan_to_text(make_plan("S2-S3-IV", pretrain_fraction=0.1, instruct_fraction=0.6))
    b = plan_to_text(make_plan("S2-S3-IV", pretrain_fraction=0.1, instruct_fraction=0.6))
    assert a == b
    parsed = json.loads(a)
    assert parsed["strategy"] == "S2-S3-IV"
    assert [s["name"] for s in parsed["stages"]] == ["align", "pretrain", "instruct"]
    assert list(parsed["stages"][0].keys()) == [
        "name",
        "image_datasets",
        "video_dataset",
        "video_fraction",
        "trainable",
    ]


def test_every_strategy_yields_a_valid_plan():
    for strategy in STRATEGIES:
        kwargs = {"instruct_fraction": 0.1}
        if strategy == "S2-S3-IV":
            kwargs["pretrain_fraction"] = 0.1
        plan = make_plan(strategy, **kwargs)
        assert plan.strategy == strategy  # construction re-validates placement
