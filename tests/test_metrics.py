import itertools
import math

import numpy as np
import pytest

from capfuse.metrics import EvalReport, corpus_eval, word_edit_distance
from capfuse.text import normalize_text

from helpers import brute_force_edit_distance, tuple_word_edit_distance


def test_identical_strings_zero_edits():
    assert word_edit_distance("a b c", "a b c") == (0, 0, 0)


def test_single_substitution():
    s, d, i = word_edit_distance("a b", "a c")
    assert (s, d, i) == (1, 0, 0)


def test_pure_deletion_and_insertion():
    assert word_edit_distance("a", "a b") == (0, 1, 0)
    assert word_edit_distance("a b", "a") == (0, 0, 1)


def test_empty_strings_allowed():
    assert word_edit_distance("", "") == (0, 0, 0)
    assert word_edit_distance("", "x y") == (0, 2, 0)
    assert word_edit_distance("x y", "") == (0, 0, 2)


def test_normalization_applied_before_alignment():
    assert word_edit_distance("  A   b ", "a B") == (0, 0, 0)


def test_totals_match_brute_force_oracle_on_random_pairs():
    rng = np.random.default_rng(1234)
    alphabet = ["a", "b", "c", "d", "e"]
    for _ in range(1000):
        hyp = list(rng.choice(alphabet, size=rng.integers(0, 9)))
        ref = list(rng.choice(alphabet, size=rng.integers(0, 9)))
        s, d, i = word_edit_distance(" ".join(hyp), " ".join(ref))
        assert s + d + i == brute_force_edit_distance(hyp, ref)
        # structural identities of any valid alignment
        assert d - i == len(ref) - len(hyp)
        assert s >= 0 and d >= 0 and i >= 0


def test_split_matches_tuple_dp_on_every_pair_up_to_length_four():
    strings = [" ".join(words) for n in range(5)
               for words in itertools.product("abc", repeat=n)]
    for hyp in strings:
        for ref in strings:
            assert word_edit_distance(hyp, ref) == tuple_word_edit_distance(hyp, ref), \
                (hyp, ref)


def test_split_matches_tuple_dp_on_random_pairs_up_to_thirty_words():
    rng = np.random.default_rng(2024)
    alphabet = ["a", "b", "c", "A", "B", "[sep]", "[SEP]", "d", "e", "fox"]
    for _ in range(2000):
        hyp = " ".join(rng.choice(alphabet, size=rng.integers(0, 31)))
        ref = "  ".join(rng.choice(alphabet, size=rng.integers(0, 31)))
        assert word_edit_distance(hyp, ref) == tuple_word_edit_distance(hyp, ref), \
            (hyp, ref)


def test_distance_swap_exchanges_deletions_and_insertions():
    rng = np.random.default_rng(77)
    alphabet = ["p", "q", "r"]
    for _ in range(200):
        a = " ".join(rng.choice(alphabet, size=rng.integers(0, 7)))
        b = " ".join(rng.choice(alphabet, size=rng.integers(0, 7)))
        s1, d1, i1 = word_edit_distance(a, b)
        s2, d2, i2 = word_edit_distance(b, a)
        assert s1 == s2
        assert (d1, i1) == (i2, d2)


def test_triangle_inequality_on_totals():
    rng = np.random.default_rng(88)
    alphabet = ["u", "v", "w", "x"]
    strings = [" ".join(rng.choice(alphabet, size=rng.integers(0, 6)))
               for _ in range(30)]
    for a, b, c in zip(strings, strings[1:], strings[2:]):
        ab = sum(word_edit_distance(a, b))
        bc = sum(word_edit_distance(b, c))
        ac = sum(word_edit_distance(a, c))
        assert ac <= ab + bc


def test_corpus_all_exact():
    report = corpus_eval([("1", "a b", "a b"), ("2", "c", "c")])
    assert report.wer_percent == 0.0
    assert report.ser_percent == 0.0


def test_corpus_single_substitution_pair():
    report = corpus_eval([("1", "a b", "a c")])
    assert report.wer_percent == pytest.approx(50.0)
    assert report.ser_percent == pytest.approx(100.0)


def test_corpus_scores_match_tuple_dp_and_normalised_equality():
    # pieces whose lowering grows ("İ"), keeps a letter ("ß"), depends on
    # position (final sigma), maps to [SEP], or is whitespace other than " "
    pieces = ["a", "A", "b", "İ", "i̇", "ß", "ΣΑΣ", "σας", "[sep]", "[SEP]", "sep",
              " ", "  ", "\t", "\u00a0", "x\u00a0y"]
    rng = np.random.default_rng(17)
    triples = []
    for n in range(600):
        hyp, ref = ("".join(rng.choice(pieces, size=rng.integers(0, 8)))
                    for _ in range(2))
        if n % 3 == 0:  # make exact matches common, up to case and spacing
            hyp = ref.upper().replace(" ", "\t ")
        triples.append((str(n), hyp, ref))
    report = corpus_eval(triples)
    for (_, hyp, ref), score in zip(triples, report.sentences):
        sdi = (score.substitutions, score.deletions, score.insertions)
        assert sdi == tuple_word_edit_distance(hyp, ref), (hyp, ref)
        assert score.exact_match == (normalize_text(hyp) == normalize_text(ref))
        assert score.ref_word_count == len(normalize_text(ref).split())
    assert 0 < sum(s.exact_match for s in report.sentences) < len(triples)


def test_corpus_empty_input_rejected():
    with pytest.raises(ValueError, match="empty"):
        corpus_eval([])


def test_corpus_aggregates_match_hand_computation():
    # hand-worked alignments:
    #   ("x y z", "x q z")   -> S=1 D=0 I=0, 3 ref words
    #   ("x",     "x y")     -> S=0 D=1 I=0, 2 ref words
    #   ("x y y", "x y")     -> S=0 D=0 I=1, 2 ref words
    report = corpus_eval([
        ("a", "x y z", "x q z"),
        ("b", "x", "x y"),
        ("c", "x y y", "x y"),
    ])
    assert report.total_substitutions == 1
    assert report.total_deletions == 1
    assert report.total_insertions == 1
    assert report.total_ref_words == 7
    assert report.wer_percent == pytest.approx(100.0 * 3 / 7)
    assert report.ser_percent == pytest.approx(100.0)


def test_corpus_wer_is_edit_total_aggregation_not_mean_of_rates():
    # per-sentence rates would average (100 + 10)/2 = 55; totals give 2/12
    report = corpus_eval([
        ("short", "a", "b"),                    # WER 100 on 1 ref word
        ("long", "c " * 10 + "x", "c " * 10 + "y"),  # WER ~9.1 on 11 ref words
    ])
    total = report.total_edits
    refs = report.total_ref_words
    assert report.wer_percent == pytest.approx(100.0 * total / refs)
    assert report.wer_percent < 20.0


def test_ser_is_100_when_every_hypothesis_differs():
    rng = np.random.default_rng(9)
    pairs = []
    for k in range(25):
        ref = " ".join(rng.choice(["m", "n", "o"], size=4))
        pairs.append((str(k), ref + " extra", ref))
    assert corpus_eval(pairs).ser_percent == 100.0


def test_report_json_contains_sentence_breakdown():
    report = corpus_eval([("s1", "a b", "a c")])
    payload = report.to_json()
    assert '"substitutions": 1' in payload
    assert '"wer_percent": 50.0' in payload


def test_wer_infinite_only_when_reference_empty_but_edits_exist():
    report = EvalReport()
    assert corpus_eval([("1", "", "")]).wer_percent == 0.0
    assert math.isinf(corpus_eval([("1", "word", "")]).wer_percent)
