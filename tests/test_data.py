import json
from collections import Counter

import numpy as np
import pytest

from capfuse.data import (NoiseConfig, SampleRecord, filter_by_similarity,
                          frame_midpoint, generate_synthetic, read_manifest,
                          split_dataset, write_manifest)
from capfuse.metrics import word_edit_distance


class ScriptedProvider:
    """Similarity provider with hand-placed text-text scores."""

    def __init__(self, scores):
        self.scores = scores
        self.calls = 0

    def score_text_text(self, a, b):
        self.calls += 1
        return self.scores[(a, b)]

    def score_image_text(self, feat, text):
        raise NotImplementedError


def test_frame_midpoint_examples():
    assert frame_midpoint(10, 20) == 15.0
    assert frame_midpoint(7.5, 7.5) == 7.5


def test_frame_midpoint_rejects_reversed_interval():
    with pytest.raises(ValueError, match="precedes"):
        frame_midpoint(5.0, 4.0)


def test_frame_midpoint_matches_arithmetic_mean_exactly():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        start = float(rng.uniform(0, 1000))
        end = start + float(rng.uniform(0, 100))
        assert frame_midpoint(start, end) == (start + end) / 2.0


def _annotated(i, caption, reference="the reference"):
    return SampleRecord(id=f"a{i}", source="src", reference=reference,
                        caption=caption, start_time=0.0, end_time=1.0)


def test_filter_threshold_minus_one_keeps_all():
    samples = [_annotated(i, f"cap {i}") for i in range(5)]
    provider = ScriptedProvider({(s.caption, s.reference): 0.3 for s in samples})
    kept, dropped = filter_by_similarity(samples, provider, threshold=-1.0)
    assert kept == samples
    assert dropped == []


def test_filter_hand_scored_fixture_monotone():
    samples = [_annotated(0, "low"), _annotated(1, "mid"), _annotated(2, "high")]
    scores = {("low", "the reference"): 0.15,
              ("mid", "the reference"): 0.25,
              ("high", "the reference"): 0.35}
    expected = {0.1: 3, 0.2: 2, 0.3: 1}
    for threshold, count in expected.items():
        kept, dropped = filter_by_similarity(
            samples, ScriptedProvider(scores), threshold=threshold)
        assert len(kept) == count
        assert len(kept) + len(dropped) == 3


def test_filter_strict_inequality_at_threshold():
    samples = [_annotated(0, "edge")]
    provider = ScriptedProvider({("edge", "the reference"): 0.2})
    kept, dropped = filter_by_similarity(samples, provider, threshold=0.2)
    assert kept == [] and dropped == samples


def test_filter_synthetic_records_pass_through_unscored():
    synthetic = SampleRecord(id="syn", source="x", reference="y", origin="synthetic")
    provider = ScriptedProvider({})
    kept, dropped = filter_by_similarity([synthetic], provider, threshold=0.9)
    assert kept == [synthetic]
    assert provider.calls == 0


def test_filter_preserves_order_and_partitions_input():
    samples = [_annotated(i, f"c{i}") for i in range(6)]
    scores = {(f"c{i}", "the reference"): (0.1 if i % 2 else 0.9) for i in range(6)}
    kept, dropped = filter_by_similarity(samples, ScriptedProvider(scores), 0.5)
    assert [s.id for s in kept] == ["a0", "a2", "a4"]
    assert [s.id for s in dropped] == ["a1", "a3", "a5"]
    assert Counter(s.id for s in kept + dropped) == Counter(s.id for s in samples)


def test_filter_deterministic_across_runs():
    samples = [_annotated(i, f"c{i}") for i in range(4)]
    scores = {(f"c{i}", "the reference"): 0.05 * i for i in range(4)}
    first = filter_by_similarity(samples, ScriptedProvider(scores), 0.1)
    second = filter_by_similarity(samples, ScriptedProvider(scores), 0.1)
    assert [s.id for s in first[0]] == [s.id for s in second[0]]


def test_generate_synthetic_zero_rates_copies_references():
    noise = NoiseConfig(substitution_rate=0, deletion_rate=0, insertion_rate=0, seed=1)
    records = generate_synthetic(["one two", "three"], noise, n=6)
    assert len(records) == 6
    for record in records:
        assert record.source == record.reference
        assert record.origin == "synthetic"
        assert record.caption == "" and record.image_feature_id == ""


def test_generate_synthetic_forced_homophone_substitution():
    noise = NoiseConfig(substitution_rate=1.0, deletion_rate=0, insertion_rate=0,
                        homophone_table={"plant": ["plan"]}, seed=0)
    records = generate_synthetic(["plant"], noise, n=3)
    assert all(r.source == "plan" for r in records)
    assert all(r.reference == "plant" for r in records)


def test_generate_synthetic_rates_match_within_twenty_percent():
    rng = np.random.default_rng(10)
    words = [f"w{i}" for i in range(50)]
    refs = [" ".join(rng.choice(words, size=20)) for _ in range(500)]  # 10k tokens
    noise = NoiseConfig(substitution_rate=0.1, deletion_rate=0.05,
                        insertion_rate=0.05, seed=42)
    records = generate_synthetic(refs, noise, n=500)
    total = sum(len(r.reference.split()) for r in records)
    subs = dels = ins = 0
    for record in records:
        s, d, i = word_edit_distance(record.source, record.reference)
        subs += s
        dels += d
        ins += i
    assert abs(subs / total - 0.1) / 0.1 < 0.2
    assert abs(dels / total - 0.05) / 0.05 < 0.2
    assert abs(ins / total - 0.05) / 0.05 < 0.2


def test_generate_synthetic_reproducible_bit_for_bit():
    refs = ["alpha beta gamma delta"] * 10
    noise = NoiseConfig(substitution_rate=0.3, deletion_rate=0.1,
                        insertion_rate=0.1, seed=7)
    a = generate_synthetic(refs, noise, n=20)
    b = generate_synthetic(refs, noise, n=20)
    assert [r.source for r in a] == [r.source for r in b]


def test_generate_synthetic_needs_references():
    with pytest.raises(ValueError, match="references"):
        generate_synthetic([], NoiseConfig(), n=1)


def test_noise_config_validation():
    with pytest.raises(ValueError, match="sum"):
        NoiseConfig(substitution_rate=0.6, deletion_rate=0.3, insertion_rate=0.2)
    with pytest.raises(ValueError, match="0, 1"):
        NoiseConfig(substitution_rate=-0.1)


def _plain(i):
    return SampleRecord(id=f"s{i}", source=f"src {i}", reference=f"ref {i}")


def test_split_all_train():
    out = split_dataset([_plain(i) for i in range(7)], (1.0, 0.0, 0.0), seed=0)
    assert all(s.split == "train" for s in out)


def test_split_exact_division():
    out = split_dataset([_plain(i) for i in range(100)], (0.8, 0.1, 0.1), seed=0)
    counts = Counter(s.split for s in out)
    assert counts == {"train": 80, "valid": 10, "test": 10}


def test_split_disjoint_and_stable():
    samples = [_plain(i) for i in range(57)]
    first = split_dataset(samples, (0.6, 0.2, 0.2), seed=9)
    second = split_dataset(samples, (0.6, 0.2, 0.2), seed=9)
    assert [s.split for s in first] == [s.split for s in second]
    by_split = {}
    for s in first:
        by_split.setdefault(s.split, set()).add(s.id)
    ids = [s.id for s in samples]
    assert sum(len(v) for v in by_split.values()) == len(ids)
    for a in by_split:
        for b in by_split:
            if a != b:
                assert not (by_split[a] & by_split[b])


def test_split_rejects_bad_ratios():
    with pytest.raises(ValueError, match="ratios"):
        split_dataset([_plain(0)], (0.5, 0.2, 0.2), seed=0)


def test_sample_record_invariants():
    with pytest.raises(ValueError, match="reference"):
        SampleRecord(id="x", source="s", reference="")
    with pytest.raises(ValueError, match="end_time"):
        SampleRecord(id="x", source="s", reference="r", start_time=2.0, end_time=1.0)
    with pytest.raises(ValueError, match="synthetic"):
        SampleRecord(id="x", source="s", reference="r", origin="synthetic",
                     caption="nope")


def test_manifest_roundtrip_preserves_unknown_fields(tmp_path):
    path = tmp_path / "data.jsonl"
    record = SampleRecord(id="k1", source="a b", reference="a c", caption="cap",
                          image_feature_id="img9", start_time=1.0, end_time=3.0,
                          split="valid", extra={"speaker": "m042", "shard": 7})
    write_manifest(path, [record])
    loaded = read_manifest(path)
    assert len(loaded) == 1
    got = loaded[0]
    assert got == record
    write_manifest(path, loaded)
    again = read_manifest(path)[0]
    assert again.extra == {"speaker": "m042", "shard": 7}


def test_manifest_bad_line_reports_location(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "x"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="bad.jsonl:1"):
        read_manifest(path)


@pytest.mark.parametrize("line", ['["a", "b"]', '"just a string"', "7", "null"])
def test_manifest_line_that_is_not_an_object_reports_location(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "x", "source": "s", "reference": "r"}\n' + line + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad.jsonl:2: .*expected a JSON object"):
        read_manifest(path)


def test_manifest_rewrite_keeps_field_order_and_splits_off_unknown_keys(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(
        '{"split": "test", "reference": "a c", "source": "a b", "id": "k1"}\n'
        '{"extra": 1, "id": "k2", "zeta": [2], "source": "s", "reference": "r"}\n',
        encoding="utf-8")
    plain, unknown = read_manifest(path)
    assert plain == SampleRecord(id="k1", source="a b", reference="a c", split="test")
    assert plain.extra == {}
    assert unknown.extra == {"extra": 1, "zeta": [2]}
    write_manifest(path, [plain, unknown])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == plain.to_json()
    fields = ["id", "source", "reference", "caption", "image_feature_id",
              "start_time", "end_time", "split", "origin"]
    assert list(json.loads(lines[0])) == fields
    assert list(json.loads(lines[1])) == fields + ["extra", "zeta"]


def test_manifest_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.jsonl"
    write_manifest(path, [SampleRecord(id=i, source="s", reference="r")
                          for i in ("a", "b", "a")])
    with pytest.raises(ValueError, match=r"dup.jsonl:3: duplicate sample id 'a'"):
        read_manifest(path)
