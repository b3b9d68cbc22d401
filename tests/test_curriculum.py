import contextlib
import io
import json
import math
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from framepress import cli, curriculum, ftv1
from framepress.curriculum import (
    DATA_TYPES,
    IMAGE_DATASET_ROLES,
    STRATEGIES,
    StagePlan,
    StageSpec,
    _kept_positions,
    _parse_line,
    _record_line,
    _scan,
    filter_file,
    make_plan,
    plan_to_text,
    subsample_file,
    synthetic_manifest,
)
from framepress.errors import FormatError, ParameterError

TEXT = st.text(st.characters(codec="utf-8"), max_size=6)


def _records(path) -> list[tuple[str, ...]]:
    """The five fields of every record of a manifest file, in file order."""
    return [fields for _, _, fields, _ in _scan(path)]


def _subsampled(tmp_path, src, fraction, seed, cap=None) -> list[tuple[str, ...]]:
    out = tmp_path / "sub.jsonl"
    subsample_file(src, out, fraction, seed, qa_cap_per_video=cap)
    return _records(out)


def _manifest(tmp_path, videos, qa_per_video, seed):
    path = tmp_path / f"m{videos}x{qa_per_video}s{seed}.jsonl"
    synthetic_manifest(path, videos, qa_per_video, seed=seed)
    return path


def test_counts_derived_from_records(tmp_path):
    records = _records(_manifest(tmp_path, 7, 3, seed=1))
    assert len(records) == 21
    assert list(dict.fromkeys(r[0] for r in records)) == [f"vid{v:07d}" for v in range(7)]
    assert {r[4] for r in records} <= set(DATA_TYPES)


def test_subsample_exact_floor_counts(tmp_path):
    src = _manifest(tmp_path, 100, 2, seed=2)
    for fraction, want in ((0.1, 10), (0.33, 33), (0.999, 99), (1.0, 100)):
        kept = _subsampled(tmp_path, src, fraction, seed=5)
        assert len({r[0] for r in kept}) == want


def test_subsample_fraction_one_is_identity(tmp_path):
    src = _manifest(tmp_path, 12, 2, seed=3)
    subsample_file(src, tmp_path / "sub.jsonl", 1.0, seed=9)
    assert (tmp_path / "sub.jsonl").read_bytes() == src.read_bytes()


def test_subsample_is_sub_multiset_in_original_order(tmp_path):
    src = _manifest(tmp_path, 40, 3, seed=4)
    records = _records(src)
    sub = _subsampled(tmp_path, src, 0.4, seed=6)
    positions = [records.index(r) for r in sub]
    assert positions == sorted(positions)
    # All QA pairs of every chosen video survive when no cap is set.
    chosen = {r[0] for r in sub}
    assert len(sub) == sum(1 for r in records if r[0] in chosen)


def test_subsample_deterministic_byte_for_byte(tmp_path):
    src = _manifest(tmp_path, 60, 2, seed=7)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    subsample_file(src, a, 0.5, seed=8)
    subsample_file(src, b, 0.5, seed=8)
    assert a.read_bytes() == b.read_bytes()
    subsample_file(src, b, 0.5, seed=9)
    assert a.read_bytes() != b.read_bytes()


def test_subsample_qa_cap(tmp_path):
    sub = _subsampled(tmp_path, _manifest(tmp_path, 10, 6, seed=10), 1.0, seed=11, cap=2)
    per_video = {}
    for r in sub:
        per_video[r[0]] = per_video.get(r[0], 0) + 1
    assert len(per_video) == 10
    assert all(count == 2 for count in per_video.values())


def test_subsample_errors(tmp_path):
    src, out = _manifest(tmp_path, 3, 1, seed=12), tmp_path / "out.jsonl"
    with pytest.raises(ParameterError):
        subsample_file(src, out, 0.0, seed=0)
    with pytest.raises(ParameterError):
        subsample_file(src, out, 1.2, seed=0)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n", encoding="utf-8")
    with pytest.raises(FormatError, match="empty.jsonl: cannot subsample an empty manifest"):
        subsample_file(empty, out, 0.5, seed=0)
    assert not out.exists()


def test_subsample_refuses_a_negative_seed_before_reading(tmp_path, capsys):
    """The seed and the cap are checked with the other arguments, before the
    first pass: a missing manifest is never opened."""
    missing, out = tmp_path / "missing.jsonl", tmp_path / "out.jsonl"
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        subsample_file(missing, out, 0.5, seed=-1)
    with pytest.raises(ParameterError, match="seed must be an int, got 1.5"):
        subsample_file(missing, out, 0.5, seed=1.5)
    with pytest.raises(ParameterError, match="qa_cap_per_video must be an int, got 1.5"):
        subsample_file(missing, out, 0.5, seed=0, qa_cap_per_video=1.5)
    argv = ["subsample", str(missing), "--fraction", "0.5", "--seed", "-1", "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


@given(st.integers(1, 300), st.floats(0.001, 1.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_subsample_count_is_floor_property(videos, fraction):
    with tempfile.TemporaryDirectory() as tmp:
        src = _manifest(Path(tmp), videos, 1, seed=13)
        kept = _subsampled(Path(tmp), src, fraction, seed=14)
    assert len({r[0] for r in kept}) == math.floor(fraction * videos)


def test_filter_type_keeps_order_and_composes(tmp_path):
    src = _manifest(tmp_path, 30, 4, seed=15)
    vqa_reasoning, inner, direct = (tmp_path / f"{n}.jsonl" for n in ("vr", "inner", "direct"))
    assert filter_file(src, vqa_reasoning, {"vqa", "reasoning"})[0] == 120
    records = _records(vqa_reasoning)
    assert records and all(r[4] in {"vqa", "reasoning"} for r in records)
    assert records == [r for r in _records(src) if r[4] in {"vqa", "reasoning"}]
    # Composition with a nested set equals filtering by the inner set.
    filter_file(vqa_reasoning, inner, {"vqa"})
    filter_file(src, direct, {"vqa"})
    assert inner.read_bytes() == direct.read_bytes()
    filter_file(src, direct, set(DATA_TYPES))
    assert direct.read_bytes() == src.read_bytes()


def test_filter_type_rejects_unknown_and_empty(tmp_path):
    src, out = _manifest(tmp_path, 3, 1, seed=16), tmp_path / "out.jsonl"
    with pytest.raises(ParameterError):
        filter_file(src, out, {"sonnets"})
    with pytest.raises(ParameterError):
        filter_file(src, out, set())
    assert not out.exists()


def test_manifest_file_round_trip(tmp_path):
    src = _manifest(tmp_path, 15, 3, seed=20)
    records = _records(src)
    assert len(records) == 45
    assert records[4][:4] == ("vid0000001", "qa0001", "what happens in clip 1 segment 1?", "event 1-1")
    out = tmp_path / "out.jsonl"
    subsample_file(src, out, 1.0, seed=0)
    assert out.read_bytes() == src.read_bytes()
    filter_file(src, out, DATA_TYPES)
    assert out.read_bytes() == src.read_bytes()


def test_manifest_unicode_survives(tmp_path):
    src, out = tmp_path / "uni.jsonl", tmp_path / "out.jsonl"
    escaped = json.dumps({"video_id": "v1", "qa_id": "q1", "question": "何が起きた？", "answer": "猫が跳んだ 🐈"})
    src.write_text(escaped + "\n", encoding="utf-8")
    filter_file(src, out, DATA_TYPES)
    assert _records(out) == [("v1", "q1", "何が起きた？", "猫が跳んだ 🐈", "unspecified")]
    assert "何が起きた" in out.read_text(encoding="utf-8")  # not \u-escaped


def test_read_manifest_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    for text in ('{"video_id": "v"\n', '["not", "an", "object"]\n', '{"qa_id": "q"}\n'):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError):
            _records(path)


@given(st.lists(st.tuples(TEXT, TEXT), max_size=5))
@settings(max_examples=40, deadline=None)
def test_write_manifest_lines_are_json_dumps(texts):
    lines = [
        json.dumps(
            {"video_id": f"v{i}{q}", "qa_id": "q", "question": q, "answer": a, "data_type": "vqa"},
            ensure_ascii=False,
        ) + "\n"
        for i, (q, a) in enumerate(texts)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "m.jsonl", Path(tmp) / "out.jsonl"
        src.write_text("".join(lines), encoding="utf-8")
        filter_file(src, out, {"vqa"})
        written = out.read_bytes().decode("utf-8")
    assert written == "".join(lines)


def test_read_manifest_names_file_and_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = '{"video_id": "v", "qa_id": "q"}\n'
    path.write_bytes(good.encode() + b'{"video_id": "v", "qa_id": "\xff"}\n')
    with pytest.raises(FormatError, match=f"{path}:2: not UTF-8"):
        _records(path)
    path.write_text(good + "\n" + good, encoding="utf-8")
    with pytest.raises(FormatError, match=f"{path}:3: duplicate record key"):
        _records(path)


def test_record_keys_keep_distinct_pairs_apart(tmp_path):
    """Pairs whose ids concatenate alike are distinct records; a repeated
    pair is named as it was read."""
    pairs = [("ab", "c"), ("a", "bc"), ("1", "1:ab"), ("1:a", "b"), ("猫", "1:x")]
    path, out = tmp_path / "m.jsonl", tmp_path / "out.jsonl"
    lines = "".join(json.dumps({"video_id": v, "qa_id": q}) + "\n" for v, q in pairs)
    path.write_text(lines, encoding="utf-8")
    assert [r[:2] for r in _records(path)] == pairs
    subsample_file(path, out, 1.0, seed=0)
    assert [r[:2] for r in _records(out)] == pairs
    path.write_text(lines + json.dumps({"video_id": "猫", "qa_id": "1:x"}) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match=f"{path}:6: duplicate record key \\('猫', '1:x'\\)$"):
        _records(path)


def test_subsample_names_the_record_it_expected_on_the_second_read(tmp_path, monkeypatch):
    path, out = tmp_path / "m.jsonl", tmp_path / "out.jsonl"
    first = json.dumps({"video_id": "猫:12", "qa_id": "3:q"}) + "\n"
    second = json.dumps({"video_id": "v", "qa_id": "q"}) + "\n"
    path.write_text(first + second, encoding="utf-8")
    first_pass = curriculum._kept_positions

    def select_then_swap(*args):
        kept = first_pass(*args)
        path.write_text(second + first, encoding="utf-8")
        return kept

    monkeypatch.setattr(curriculum, "_kept_positions", select_then_swap)
    with pytest.raises(FormatError) as caught:
        subsample_file(path, out, 1.0, seed=0)
    assert str(caught.value) == (
        f"{path}:byte 0: expected record ('猫:12', '3:q') on the second read; the file changed"
    )


def test_subsample_refuses_a_kept_offset_that_lands_off_a_record(tmp_path, monkeypatch):
    """The first record, given a question between the passes, keeps its key
    and puts the second record's offset inside it, on text that is not a
    record."""
    path, out = tmp_path / "m.jsonl", tmp_path / "out.jsonl"
    lines = [json.dumps({"video_id": v, "qa_id": "q"}) + "\n" for v in ("a", "b")]
    path.write_text("".join(lines), encoding="utf-8")
    first_pass = curriculum._kept_positions

    def select_then_grow(*args):
        kept = first_pass(*args)
        path.write_text(lines[0].replace("}", ', "question": "why?"}') + lines[1], encoding="utf-8")
        return kept

    monkeypatch.setattr(curriculum, "_kept_positions", select_then_grow)
    with pytest.raises(FormatError) as caught:
        subsample_file(path, out, 1.0, seed=0)
    assert str(caught.value) == (
        f"{path}:byte {len(lines[0])}: bad record: Extra data: line 1 column 11 (char 10); "
        "the file changed after the first read"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.jsonl"]


def test_a_record_longer_than_the_read_buffer_passes_through(tmp_path):
    """A 300,000-character answer, 0.5 MB of UTF-8 with escapes in it,
    between short records: filter of every type and subsample of every
    video write the manifest back byte for byte."""
    answer = ("猫が走る \"quoted\"\n" * 20_000)[:300_000]
    records = [("v1", "q1", "short?", "yes"), ("v2", "q1", "long?", answer), ("v3", "q1", "again?", "no")]
    text = "".join(_record_line((*r, "vqa")) for r in records)
    assert len(text.encode("utf-8")) > ftv1._IO_BUFFER
    src, out = tmp_path / "m.jsonl", tmp_path / "out.jsonl"
    src.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    _cli_stdout(["filter", src, "--types", ",".join(DATA_TYPES), "--out", out])
    assert out.read_bytes() == src.read_bytes()
    _cli_stdout(["subsample", src, "--fraction", "1.0", "--seed", "0", "--out", out])
    assert out.read_bytes() == src.read_bytes()
    assert time.perf_counter() - start < 0.2


# Traced peak bytes per record of each manifest command on 20,000 records.
# A (video_id, qa_id) tuple key per record held ~318 (subsample) and ~294
# (filter); one string key holds ~238 and ~199. The 256 KiB buffers add
# ~13 to subsample's peak (one is open at a time) and ~26 to filter's.
PEAK_BYTES_PER_RECORD = {"subsample": 280, "filter": 250}


@pytest.mark.parametrize("command", sorted(PEAK_BYTES_PER_RECORD))
def test_manifest_commands_hold_little_per_record(command, tmp_path):
    src, out = _manifest(tmp_path, 5000, 4, seed=1), tmp_path / "out.jsonl"
    run = {
        "subsample": lambda: subsample_file(src, out, 0.1, seed=1),
        "filter": lambda: filter_file(src, out, {"vqa"}),
    }[command]
    run()  # first-call allocations are not per record
    _, peak = traced_peak(run)
    assert peak / 20_000 < PEAK_BYTES_PER_RECORD[command]


BAD_FIELD_LINES = {
    '{"video_id": "", "qa_id": "q"}': "video_id and qa_id must be non-empty",
    '{"video_id": "v", "qa_id": "q", "data_type": "poem"}': "unknown data_type 'poem'; expected one of",
    '{"video_id": "v", "qa_id": "q", "question": {"a": "it\'s"}}': "field 'question' holds an object",
    '{"video_id": "v", "qa_id": ["q"]}': "field 'qa_id' holds an array",
    '{"video_id": "v", "qa_id": "q", "answer": "\\ud800"}': "field 'answer' holds a lone surrogate",
}


@pytest.mark.parametrize("line", list(BAD_FIELD_LINES))
def test_bad_field_values_name_file_and_line(line, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"video_id": "v0", "qa_id": "q"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(FormatError) as info:
        _records(path)
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
        _records(path)
    assert str(info.value) == f"{path}:2: bad record: {JSON_REJECTS[raw]}"


def _dumped(obj) -> str:
    """The manifest line for a decoded record: ``json.dumps`` of its five
    fields, with the documented defaults and ``str`` of non-text values."""
    return json.dumps(
        {"video_id": str(obj["video_id"]), "qa_id": str(obj["qa_id"]),
         "question": str(obj.get("question", "")), "answer": str(obj.get("answer", "")),
         "data_type": obj.get("data_type", "unspecified")},
        ensure_ascii=False,
    ) + "\n"


SCALAR = st.integers() | st.floats() | st.booleans() | st.none()


@given(
    st.fixed_dictionaries(
        {"video_id": TEXT.map("v{}".format), "qa_id": TEXT.map("q{}".format)},
        optional={"question": TEXT, "answer": TEXT, "data_type": st.sampled_from(DATA_TYPES),
                  "extra": TEXT},
    ),
    st.dictionaries(st.sampled_from(["video_id", "qa_id", "question", "answer"]), SCALAR),
)
@settings(max_examples=200, deadline=None)
def test_record_line_is_json_dumps_of_the_parsed_fields(record, scalars):
    """Raw text, escaped text and number/boolean/null values all give the
    line json.dumps writes, on the plain path and the escaping one."""
    for line in (
        json.dumps(record, ensure_ascii=False),
        json.dumps(record, ensure_ascii=True),
        json.dumps({**record, **scalars}, ensure_ascii=False),
    ):
        want = _dumped(json.loads(line))
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
    """The CLI's outputs and counts against an oracle that decodes each
    line with json.loads and writes it back with json.dumps."""
    records = [json.loads(line) for line in text.split("\n") if line.strip()]
    lines = [_dumped(r) for r in records]
    video_ids = [r["video_id"] for r in records]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src, got = tmp / "m.jsonl", tmp / "got.jsonl"
        src.write_text(text, encoding="utf-8")

        kept, _ = _kept_positions(video_ids, fraction, seed, cap)
        argv = ["subsample", src, "--fraction", fraction, "--seed", seed, "--out", got]
        out = _cli_stdout(argv + ([] if cap is None else ["--qa-cap", cap]))
        assert got.read_bytes().decode("utf-8") == "".join(lines[i] for i in kept)
        assert out.startswith(
            f"{len(set(video_ids))} videos / {len(records)} QA pairs -> "
            f"{len({video_ids[i] for i in kept})} videos / {len(kept)} QA pairs -> "
        )

        want = [line for r, line in zip(records, lines) if r.get("data_type", "unspecified") in types]
        out = _cli_stdout(["filter", src, "--types", ",".join(types), "--out", got])
        assert got.read_bytes().decode("utf-8") == "".join(want)
        assert out.startswith(f"kept {len(want)} of {len(records)} QA pairs")
        assert sorted(p.name for p in tmp.iterdir()) == ["got.jsonl", "m.jsonl"]


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
    with pytest.raises(ParameterError):
        make_plan("S3-IV", pretrain_fraction=0.5)
    with pytest.raises(ParameterError):
        make_plan("S4-V", pretrain_fraction=0.1)
    with pytest.raises(ParameterError):
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
    with pytest.raises(ParameterError):
        StagePlan(
            strategy="S4-V",
            stages=(ok.stages[0], bad_stage, ok.stages[2], ok.stages[3]),
        )
    with pytest.raises(ParameterError, match="unknown strategy 'S9-X'"):
        StagePlan(strategy="S9-X", stages=ok.stages)
    with pytest.raises(ParameterError, match=r"stage order must be \['align', 'pretrain', 'instruct'\]"):
        StagePlan(strategy="S3-IV", stages=(ok.stages[1], ok.stages[0], ok.stages[2]))


@pytest.mark.parametrize(
    "dataset, fraction, message",
    [
        ("VideoInstruct", None, "video dataset and fraction must come together"),
        (None, 0.5, "video dataset and fraction must come together"),
        ("VideoInstruct", 0.0, r"video fraction must be in \(0, 1\], got 0.0"),
        ("VideoInstruct", 1.5, r"video fraction must be in \(0, 1\], got 1.5"),
    ],
    ids=["dataset without a fraction", "fraction without a dataset", "fraction 0", "fraction 1.5"],
)
def test_stage_spec_refuses_a_bad_video_mix(dataset, fraction, message):
    with pytest.raises(ParameterError, match="stage instruct: " + message):
        StageSpec("instruct", IMAGE_DATASET_ROLES["instruct"], dataset, fraction, ("adapter", "llm"))


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
