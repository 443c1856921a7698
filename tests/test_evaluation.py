"""Distance metrics, reading measures, trivial baselines, and the
evaluation report, each checked against an independent re-derivation."""

import csv
import math
import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from scanpath_diffusion import (Corpus, HumanBaseline, ScanpathRecord,
                                TrainStats, ValidationError, baseline_corpus,
                                evaluation_report, export_word_measures,
                                human_baseline, levenshtein,
                                levenshtein_many, nld,
                                pair_records, pearson, reading_measures,
                                reading_measures_many, record_measures,
                                trainlabel_baseline, uniform_baseline,
                                write_evaluation_report)
from scanpath_diffusion import baselines, metrics
from scanpath_diffusion.measures import SUMMARY_MEASURES, ReadingMeasures
from scanpath_diffusion.reports import WORD_EXPORT_BASE


# ---------------------------------------------------------------------------
# levenshtein / nld

def lev_oracle(a, b):
    """Textbook recursion with memoization, nothing shared with the DP."""
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(go(i - 1, j) + 1,
                   go(i, j - 1) + 1,
                   go(i - 1, j - 1) + (a[i - 1] != b[j - 1]))

    return go(len(a), len(b))


def test_levenshtein_matches_recursive_oracle():
    rng = np.random.default_rng(42)
    for _ in range(300):
        la, lb = rng.integers(0, 11, size=2)
        a = rng.integers(1, 7, size=la).tolist()
        b = rng.integers(1, 7, size=lb).tolist()
        assert levenshtein(a, b) == lev_oracle(a, b)


def test_levenshtein_hand_cases():
    assert levenshtein([1, 2, 3, 2], [1, 2, 3]) == 1
    assert levenshtein([], [1, 2]) == 2
    assert levenshtein([1, 2], []) == 2
    assert levenshtein([], []) == 0
    assert levenshtein([5, 5, 5], [5, 5, 5]) == 0
    assert levenshtein([1, 2, 3], [4, 5, 6]) == 3


def test_nld_hand_cases():
    assert nld([1, 2, 3, 2], [1, 2, 3]) == pytest.approx(0.25)
    assert nld([1, 2, 3], [4, 5, 6]) == 1.0
    assert nld([7], [7]) == 0.0
    assert nld(iter([1, 2]), iter([1, 3])) == 0.5  # one-shot iterables are read once
    assert nld((x for x in [1, 2]), [1, 3]) == 0.5
    with pytest.raises(ValidationError):
        nld([], [])


def random_pairs(rng, count, lengths):
    """Pairs of word-index sequences, each side's length drawn from lengths."""
    return [(rng.integers(1, 7, size=int(rng.choice(lengths))).tolist(),
             rng.integers(1, 7, size=int(rng.choice(lengths))).tolist())
            for _ in range(count)]


def assert_matches_oracle(pairs):
    dists = levenshtein_many(pairs)
    assert all(type(d) is int for d in dists)
    assert dists == [lev_oracle(a, b) for a, b in pairs]


def test_levenshtein_many_matches_recursive_oracle():
    rng = np.random.default_rng(7)
    pairs = random_pairs(rng, 200, np.arange(61))
    assert any(not a for a, _ in pairs) and any(not b for _, b in pairs)
    assert_matches_oracle(pairs)


def test_levenshtein_many_mixed_lengths_in_one_block():
    # very short and very long pairs share one padded block, in both
    # orientations, next to pairs with an empty side
    rng = np.random.default_rng(8)
    short, long_ = np.arange(0, 3), np.arange(55, 61)
    pairs = (random_pairs(rng, 20, short) + random_pairs(rng, 20, long_)
             + [(a, b) for (a, _), (b, _) in zip(random_pairs(rng, 20, short),
                                                  random_pairs(rng, 20, long_))]
             + [(b, a) for (a, _), (b, _) in zip(random_pairs(rng, 20, short),
                                                  random_pairs(rng, 20, long_))]
             + [([], []), ([], [1] * 60), ([2] * 60, [])])
    rng.shuffle(pairs)
    assert_matches_oracle(pairs)


def test_levenshtein_many_spans_several_chunks():
    rng = np.random.default_rng(9)
    assert_matches_oracle(random_pairs(rng, 2 * metrics._CHUNK + 37, np.arange(13)))


# values that exercise the per-block symbol numbering: sparse, negative and
# large, next to each other in one block
ODD_SYMBOLS = [-2**62, -7, 0, 3, 10**12, 2**62 + 5]


def word_boundary_pairs(rng, length):
    """Pairs whose longer side has `length` symbols, both orientations,
    against shorter sides of several lengths (an empty one among them)."""
    pairs = []
    for alphabet in ([5], np.arange(1, 41), ODD_SYMBOLS):
        for other in sorted({0, 1, length // 3, length - 1, length}):
            a = rng.choice(alphabet, size=length).tolist()
            b = rng.choice(alphabet, size=other).tolist()
            pairs += [(a, b), (b, a)]
    return pairs


@pytest.mark.parametrize("length", [63, 64, 65, 127, 128, 129, 200])
def test_levenshtein_many_across_word_boundaries(length):
    # a pattern of more than 64 symbols spans several uint64 words: the
    # addition and both shifts carry from word to word
    rng = np.random.default_rng(length)
    pairs = word_boundary_pairs(rng, length)
    # near-copies: long runs of matches, so carries ripple across words
    a = rng.integers(1, 41, size=length).tolist()
    b = list(a)
    for i in rng.choice(length, size=3, replace=False):
        b[i] = 41
    pairs += [(a, b), (a, b[1:]), (b[:-1], a)]
    # a run that matches nothing and covers a whole word, between runs that
    # match: the addition's carry crosses that word to the next
    if length >= 140:
        c = [1] * 62 + [2] * 75 + [1] * 2 + [3] * (length - 139)
        pairs += [(c, [1]), (c, [1] * (length // 4)), ([1, 3] * (length // 4), c)]
    assert_matches_oracle(pairs)


def test_levenshtein_many_one_block_mixes_word_counts(monkeypatch):
    # one-word and three-word patterns share one block, whose masks are
    # three words wide
    rng = np.random.default_rng(10)
    pairs = (random_pairs(rng, 15, np.arange(0, 65))
             + random_pairs(rng, 15, np.arange(129, 193))
             + [(a, b) for (a, _), (b, _) in zip(random_pairs(rng, 15, np.arange(1, 64)),
                                                  random_pairs(rng, 15, np.arange(129, 193)))])
    rng.shuffle(pairs)
    blocks = []
    kernel = metrics._levenshtein_block
    monkeypatch.setattr(metrics, "_levenshtein_block",
                        lambda *args: blocks.append(len(args[0])) or kernel(*args))
    assert_matches_oracle(pairs)
    assert blocks == [len(pairs)]


def test_levenshtein_many_splits_a_block_with_many_symbols(monkeypatch):
    # all-distinct symbols would make the match table outgrow its budget,
    # so the block is scored in smaller parts, with the same distances
    rng = np.random.default_rng(11)
    pairs = [(rng.integers(-10**9, 10**9, size=150).tolist(),
              rng.integers(-10**9, 10**9, size=int(rng.integers(0, 151))).tolist())
             for _ in range(6)]
    pairs += [(a, a[::2]) for a, _ in pairs]
    blocks = []
    kernel = metrics._levenshtein_block
    monkeypatch.setattr(metrics, "_levenshtein_block",
                        lambda *args: blocks.append(len(args[0])) or kernel(*args))
    assert_matches_oracle(pairs)
    assert blocks[0] == len(pairs) and min(blocks) < len(pairs)


def test_levenshtein_many_empty_input():
    assert levenshtein_many([]) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 6), max_size=10),
       st.lists(st.integers(1, 6), max_size=10))
def test_levenshtein_properties(a, b):
    d = levenshtein(a, b)
    assert d == levenshtein(b, a)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))
    if a or b:
        v = nld(a, b)
        assert 0.0 <= v <= 1.0
        assert v == nld(b, a)
        assert (v == 0.0) == (a == b)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=8),
       st.lists(st.integers(1, 4), max_size=8),
       st.lists(st.integers(1, 4), max_size=8))
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


# ---------------------------------------------------------------------------
# pearson

def test_pearson_matches_scipy():
    rng = np.random.default_rng(11)
    for n in (3, 4, 7, 20, 50):
        for _ in range(5):
            x = rng.normal(size=n)
            y = 0.4 * x + rng.normal(size=n)
            r, p = pearson(x, y)
            ref = scipy_stats.pearsonr(x, y)
            assert r == pytest.approx(ref[0], abs=1e-12)
            assert p == pytest.approx(ref[1], rel=1e-9, abs=1e-12)


def test_pearson_hand_case():
    # r = sqrt(7)/5 and, for n = 4 (2 df), the t CDF has a closed form
    # that collapses the two-sided p to exactly 1 - r.
    r, p = pearson([1, 2, 3, 5], [2, 1, 4, 3])
    assert r == pytest.approx(math.sqrt(7) / 5, rel=1e-12)
    assert p == pytest.approx(1 - math.sqrt(7) / 5, rel=1e-12)


def test_pearson_perfect_correlation():
    assert pearson([1, 2, 3], [2, 4, 6]) == (1.0, 0.0)
    assert pearson([1, 2, 3], [3, 2, 1]) == (-1.0, 0.0)


def test_pearson_degenerate_inputs():
    r, p = pearson([1.0, 2.0], [3.0, 4.0])      # n < 3
    assert math.isnan(r) and math.isnan(p)
    r, p = pearson([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])  # zero variance
    assert math.isnan(r) and math.isnan(p)
    for bad in (math.nan, math.inf):  # not finite, on either side
        for r, p in (pearson([1.0, 2.0, bad], [1.0, 2.0, 3.0]),
                     pearson([1.0, 2.0, 3.0], [1.0, 2.0, bad])):
            assert math.isnan(r) and math.isnan(p)


def test_pearson_shape_mismatch():
    with pytest.raises(ValidationError):
        pearson([1, 2, 3], [1, 2])
    with pytest.raises(ValidationError):
        pearson([[1, 2], [3, 4]], [[1, 2], [3, 4]])


# ---------------------------------------------------------------------------
# reading measures: hand-worked traces

def test_measures_strict_linear_read():
    rm = reading_measures([1, 2, 3], 3)
    assert rm.sr.tolist() == [0, 0, 0]
    assert rm.ffc.tolist() == [1, 1, 1]
    assert rm.tfc.tolist() == [1, 1, 1]
    assert rm.fpr.tolist() == [0, 0, 0]
    assert rm.regression_rate == 0.0
    assert rm.normalized_fixation_count == 1.0
    assert rm.progressive_saccade_len == 1.0
    assert rm.regressive_saccade_len == 0.0
    assert rm.skipping_rate == 0.0
    assert rm.first_pass_count == 1.0


def test_measures_skip_and_regress():
    # 1 -> 3 skips word 2; the 3 -> 2 regression ends word 3's first pass
    # and word 2's late visit earns no first pass at all.
    rm = reading_measures([1, 3, 2, 4], 4)
    assert rm.sr.tolist() == [0, 1, 0, 0]
    assert rm.ffc.tolist() == [1, 0, 1, 1]
    assert rm.tfc.tolist() == [1, 1, 1, 1]
    assert rm.fpr.tolist() == [0, 0, 1, 0]
    assert rm.regression_rate == pytest.approx(0.25)
    assert rm.normalized_fixation_count == 1.0
    assert rm.progressive_saccade_len == 2.0
    assert rm.regressive_saccade_len == 1.0
    assert rm.skipping_rate == pytest.approx(0.25)
    assert rm.first_pass_count == pytest.approx(0.75)


def test_measures_refixation():
    # the 2 -> 2 refixation extends word 2's first pass and is neither a
    # progressive nor a regressive saccade
    rm = reading_measures([2, 2, 3], 3)
    assert rm.sr.tolist() == [1, 0, 0]
    assert rm.ffc.tolist() == [0, 2, 1]
    assert rm.tfc.tolist() == [0, 2, 1]
    assert rm.fpr.tolist() == [0, 0, 0]
    assert rm.regression_rate == 0.0
    assert rm.normalized_fixation_count == 1.0
    assert rm.progressive_saccade_len == 1.0
    assert rm.regressive_saccade_len == 0.0
    assert rm.skipping_rate == pytest.approx(1 / 3)
    assert rm.first_pass_count == 1.0


def test_measures_scalar_accessor():
    rm = reading_measures([1, 2], 2)
    assert rm.scalar("skipping_rate") == 0.0
    with pytest.raises(ValidationError):
        rm.scalar("sr")  # word-level array, not a summary scalar


def test_measures_random_invariants():
    rng = np.random.default_rng(1234)
    for _ in range(2000):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 13))
        path = rng.integers(1, m + 1, size=n).tolist()
        rm = reading_measures(path, m)
        assert rm.tfc.sum() == n
        assert np.all(rm.ffc <= rm.tfc)
        assert np.all(rm.ffc[rm.sr == 1] == 0)
        assert np.all(rm.fpr[rm.ffc == 0] == 0)
        assert set(rm.sr.tolist()) <= {0, 1}
        assert set(rm.fpr.tolist()) <= {0, 1}
        assert 0.0 <= rm.regression_rate <= 1.0
        assert 0.0 <= rm.skipping_rate <= 1.0
        assert rm.normalized_fixation_count == pytest.approx(n / m)
        assert rm.progressive_saccade_len >= 0.0
        assert rm.regressive_saccade_len >= 0.0
        assert rm.first_pass_count == pytest.approx(float(rm.ffc.mean()))


def test_measures_input_validation():
    with pytest.raises(ValidationError):
        reading_measures([], 3)
    with pytest.raises(ValidationError):
        reading_measures([1], 0)
    with pytest.raises(ValidationError):
        reading_measures([0, 1], 3)
    with pytest.raises(ValidationError):
        reading_measures([1, 4], 3)


def test_measures_error_messages():
    for args, message in [
        (([], 3), "cannot compute measures of an empty scanpath"),
        (([1], 0), "word count must be >= 1, got 0"),
        (([0, 1], 3), "fixation index 0 out of range 1..3"),
        (([1, 4], 3), "fixation index 4 out of range 1..3"),
        (([1, 2**70], 3), f"fixation index {2**70} out of range 1..3"),
        (([1.7, 2], 3), "fixation index 1.7 is not an integer"),
        (([1, 2.0], 3), "fixation index 2.0 is not an integer"),
        (([np.float64(1.0)], 3), "fixation index np.float64(1.0) is not an integer"),
        ((["1"], 3), "fixation index '1' is not an integer"),
        (([None], 3), "fixation index None is not an integer"),
    ]:
        with pytest.raises(ValidationError) as err:
            reading_measures(*args)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# reading measures: the corpus kernel against the per-scanpath loop it
# replaced, kept here unchanged as the oracle

def oracle_reading_measures(scanpath, word_count: int) -> ReadingMeasures:
    path = [int(f) for f in scanpath]
    m = int(word_count)
    if m < 1:
        raise ValidationError(f"word count must be >= 1, got {m}")
    if not path:
        raise ValidationError("cannot compute measures of an empty scanpath")
    for f in path:
        if not 1 <= f <= m:
            raise ValidationError(f"fixation index {f} out of range 1..{m}")
    n = len(path)

    sr = np.zeros(m, dtype=np.int64)
    tfc = np.zeros(m, dtype=np.int64)
    ffc = np.zeros(m, dtype=np.int64)
    fpr = np.zeros(m, dtype=np.int64)
    first_visit = {}   # word -> (index into path, frontier before that visit)
    frontier = 0
    for j, f in enumerate(path):
        tfc[f - 1] += 1
        if f not in first_visit:
            first_visit[f] = (j, frontier)
        if f > frontier:
            for w in range(frontier + 1, f):
                if w not in first_visit:
                    sr[w - 1] = 1
            frontier = f

    for f, (j, prior_frontier) in first_visit.items():
        if prior_frontier > f:
            continue  # entered after being passed: no first pass
        run = 0
        k = j
        while k < n and path[k] == f:
            run += 1
            k += 1
        ffc[f - 1] = run
        if k < n and path[k] < f:
            fpr[f - 1] = 1

    deltas = np.diff(path) if n > 1 else np.array([], dtype=np.int64)
    prog = deltas[deltas > 0]
    regr = deltas[deltas < 0]
    regression_starts = {path[j] for j in range(n - 1) if path[j + 1] < path[j]}

    return ReadingMeasures(
        sr=sr, ffc=ffc, tfc=tfc, fpr=fpr,
        regression_rate=len(regression_starts) / m,
        normalized_fixation_count=n / m,
        progressive_saccade_len=float(prog.mean()) if prog.size else 0.0,
        regressive_saccade_len=float(np.abs(regr).mean()) if regr.size else 0.0,
        skipping_rate=float(sr.sum()) / m,
        first_pass_count=float(ffc.sum()) / m,
    )


WORD_MEASURES = ("sr", "ffc", "tfc", "fpr")

MEASURE_EDGE_CASES = [
    ((1,), 1),                 # m = 1, one fixation
    ((1, 1, 1), 1),            # m = 1, refixations only
    ((3,), 5),                 # one fixation: words 1-2 skipped, 4-5 never reached
    ((2, 2, 2, 3, 3), 4),      # refixations extend first passes
    ((1, 2, 3, 1, 4), 4),      # regression to word 1 ends word 3's first pass
    ((3, 1, 2), 3),            # words 1 and 2 entered after the frontier passed them
    ((1, 2, 3, 3), 3),         # a first pass that ends on the last fixation
    ((1, 3, 3), 5),            # the same, with a skip and two words never reached
    ((1, 2), 6),               # words the frontier never reaches
    ((2, 1), 5),               # a regression onto a skipped word
    ((5, 4, 3, 2, 1), 5),      # all regressions
    ((1, 4, 2, 3, 4, 1), 6),   # revisits after a skip, regressions to word 1
]


def seeded_scanpaths(seed: int, count: int) -> list[tuple[tuple[int, ...], int]]:
    """Uniform random paths and reader-like forward passes with skips,
    refixations and regressions, over 1-14 words."""
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(count):
        m = int(rng.integers(1, 15))
        if rng.random() < 0.5:
            path = rng.integers(1, m + 1, size=int(rng.integers(1, 2 * m + 3))).tolist()
        else:
            path, w = [], 1
            while w <= m:
                if rng.random() < 0.25:
                    w += int(rng.integers(1, 3))
                    continue
                path += [w] * int(rng.integers(1, 3))
                if rng.random() < 0.2:
                    path.append(int(rng.integers(1, w + 1)))
                w += 1
            path = path or [1]
        records.append((tuple(path), m))
    return records


def assert_same_measures(got: ReadingMeasures, want: ReadingMeasures):
    for name in WORD_MEASURES:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert (a == b).all(), name
    for name in SUMMARY_MEASURES:
        assert type(getattr(got, name)) is float
        assert getattr(got, name) == getattr(want, name), name


def test_kernel_matches_per_scanpath_oracle():
    records = MEASURE_EDGE_CASES + seeded_scanpaths(2024, 3000)
    got = reading_measures_many(records)
    assert len(got) == len(records)
    for (path, m), rm in zip(records, got):
        assert_same_measures(rm, oracle_reading_measures(path, m))


def test_kernel_edge_cases_by_hand():
    # word 3's first pass runs to the end of the path: no regression after it
    rm = reading_measures([1, 2, 3, 3], 3)
    assert rm.ffc.tolist() == [1, 1, 2] and rm.fpr.tolist() == [0, 0, 0]
    # the frontier never reaches words 3-6: not skipped, no first pass;
    # word 1 is skipped and its late visit earns no first pass
    rm = reading_measures([2, 1], 6)
    assert rm.sr.tolist() == [1, 0, 0, 0, 0, 0]
    assert rm.ffc.tolist() == [0, 1, 0, 0, 0, 0]
    assert rm.fpr.tolist() == [0, 1, 0, 0, 0, 0]
    assert rm.regression_rate == 1 / 6


def test_kernel_record_does_not_depend_on_company():
    records = MEASURE_EDGE_CASES + seeded_scanpaths(7, 400)
    together = reading_measures_many(records)
    order = np.random.default_rng(3).permutation(len(records))
    shuffled = reading_measures_many(records[k] for k in order)
    for k, rm in zip(order, shuffled):
        assert_same_measures(rm, together[k])
    for k in range(0, len(records), 37):
        assert_same_measures(reading_measures(*records[k]), together[k])
        assert_same_measures(reading_measures_many(records[k:k + 2])[0], together[k])
    assert reading_measures_many([]) == []


def test_kernel_reports_the_first_bad_record():
    with pytest.raises(ValidationError, match=r"^fixation index 5 out of range 1\.\.4$"):
        reading_measures_many([((1, 2), 3), ((1, 5), 4), ((9,), 2)])
    with pytest.raises(ValidationError, match=r"^fixation index 2\.5 is not an integer$"):
        reading_measures_many([((1, 9), 3), ((1, 2.5), 4)])
    with pytest.raises(ValidationError, match="word count must be >= 1, got 0"):
        reading_measures_many([((1,), 3), ((1,), 0)])


@pytest.mark.parametrize("kind", [int, np.int64, np.int32, np.uint8, np.intp])
def test_integer_fixations_of_every_kind_are_taken(kind):
    path = [kind(v) for v in (1, 3, 2, 3)]
    assert_same_measures(reading_measures(path, 4), oracle_reading_measures([1, 3, 2, 3], 4))
    assert_same_measures(reading_measures(np.array(path), 4),
                         oracle_reading_measures([1, 3, 2, 3], 4))
    assert levenshtein_many([(path, [kind(1), kind(2)])]) == [2]
    corpus = Corpus(sentences={"s": ("a", "b", "c", "d")},
                    records=[ScanpathRecord("r", "s", tuple(path))])
    assert record_measures(corpus)[0].tfc.tolist() == [1, 1, 2, 0]


@pytest.mark.parametrize("bad", [1.7, 2.0, np.float64(2.0), np.float32(1.0), "2", None])
def test_non_integer_fixations_are_rejected(bad):
    # a float once passed all three, read as the word it truncates to
    text = re.escape(repr(bad))
    with pytest.raises(ValidationError, match=f"fixation index {text} is not an integer"):
        reading_measures([1, bad], 3)
    with pytest.raises(ValidationError,
                       match=f"fixation index {text} is not an integer for \\('r', 's'\\)"):
        Corpus(sentences={"s": ("a", "b", "c")},
               records=[ScanpathRecord("r", "s", (1, 2)), ScanpathRecord("r", "s", (1, bad))])
    with pytest.raises(ValidationError, match=f"index {text} is not an integer"):
        levenshtein_many([((1, 2), (1, 2)), ((1, bad), (1, 2))])
    # an integer numpy cannot hold is named too, not an OverflowError
    with pytest.raises(ValidationError, match=f"index {2**70} is outside the 64-bit"):
        levenshtein_many([((1, 2), (1, 2)), ((2**70, 1), (1,))])
    # numpy integers whose sum leaves int64 are integers, checked without
    # an overflow warning
    big = np.int64(2**62)
    assert levenshtein_many([((big, big), (1,))]) == [2]
    with pytest.raises(ValidationError, match=f"fixation index {2**62} out of range 1..3"):
        reading_measures([big, big], 3)
    with pytest.raises(ValidationError, match=f"fixation index {2**62} out of range 1..3 for"):
        Corpus(sentences={"s": ("a", "b", "c")}, records=[ScanpathRecord("r", "s", (big, big))])


# ---------------------------------------------------------------------------
# baselines

def two_sentence_corpus():
    sentences = {"s1": ("aa", "bb", "cc"), "s2": ("dd", "ee")}
    records = [
        ScanpathRecord("r1", "s1", (1, 2, 3)),
        ScanpathRecord("r1", "s2", (2, 1)),
    ]
    return Corpus(sentences=sentences, records=records)


def test_train_stats_from_corpus():
    stats = TrainStats.from_corpus(two_sentence_corpus())
    assert sorted(stats.lengths.tolist()) == [2, 3]
    assert sorted(stats.saccades.tolist()) == [-1, 1, 1]
    with pytest.raises(ValidationError):
        TrainStats.from_corpus(Corpus(sentences={"s": ("a",)}, records=[]))


def test_uniform_baseline_single_word():
    stats = TrainStats(lengths=np.array([3, 5]), saccades=np.array([1]))
    rng = np.random.default_rng(0)
    for _ in range(50):
        path = uniform_baseline(1, stats, rng)
        assert set(path) == {1}
        assert len(path) in (3, 5)


def test_uniform_baseline_distributions():
    stats = TrainStats(lengths=np.array([2, 2, 3, 5]), saccades=np.array([1]))
    rng = np.random.default_rng(7)
    paths = [uniform_baseline(4, stats, rng) for _ in range(4000)]

    fixes = np.concatenate([np.asarray(p) for p in paths])
    assert fixes.min() >= 1 and fixes.max() <= 4
    for w in range(1, 5):
        assert np.mean(fixes == w) == pytest.approx(0.25, abs=0.02)

    lengths = np.array([len(p) for p in paths])
    want = {2: 0.5, 3: 0.25, 5: 0.25}
    tv = 0.5 * sum(abs(np.mean(lengths == k) - v) for k, v in want.items())
    assert tv <= 0.05
    assert set(lengths.tolist()) <= set(want)


def test_trainlabel_baseline_deterministic_walk():
    stats = TrainStats(lengths=np.array([3]), saccades=np.array([1]))
    rng = np.random.default_rng(0)
    assert trainlabel_baseline(5, stats, rng) == [1, 2, 3]


def test_trainlabel_baseline_clamps():
    stats = TrainStats(lengths=np.array([4]), saccades=np.array([5]))
    rng = np.random.default_rng(0)
    assert trainlabel_baseline(3, stats, rng) == [1, 3, 3, 3]
    stats = TrainStats(lengths=np.array([4]), saccades=np.array([-5]))
    assert trainlabel_baseline(3, stats, rng) == [1, 1, 1, 1]


def test_trainlabel_baseline_saccade_distribution():
    # wide sentence, short positive jumps: nothing clamps, so the walk's
    # deltas must reproduce the training saccade distribution
    stats = TrainStats(lengths=np.array([11]), saccades=np.array([1, 2]))
    rng = np.random.default_rng(3)
    deltas = []
    for _ in range(2000):
        path = trainlabel_baseline(1000, stats, rng)
        assert len(path) == 11
        deltas.extend(np.diff(path).tolist())
    deltas = np.asarray(deltas)
    assert set(deltas.tolist()) == {1, 2}
    tv = 0.5 * (abs(np.mean(deltas == 1) - 0.5) + abs(np.mean(deltas == 2) - 0.5))
    assert tv <= 0.05


def test_trainlabel_baseline_needs_saccades():
    stats = TrainStats(lengths=np.array([1, 1]), saccades=np.array([], dtype=np.int64))
    with pytest.raises(ValidationError):
        trainlabel_baseline(4, stats, np.random.default_rng(0))


def test_baseline_word_count_validation():
    stats = TrainStats(lengths=np.array([2]), saccades=np.array([1]))
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        uniform_baseline(0, stats, rng)
    with pytest.raises(ValidationError):
        trainlabel_baseline(0, stats, rng)


def test_baseline_corpus_shape():
    train = two_sentence_corpus()
    stats = TrainStats.from_corpus(train)
    out = baseline_corpus("uniform", train.sentences, stats, np.random.default_rng(1))
    assert out.readers == {"uniform"}
    assert {r.sentence_id for r in out.records} == {"s1", "s2"}
    for rec in out.records:
        m = len(train.sentences[rec.sentence_id])
        assert all(1 <= f <= m for f in rec.fixations)
    with pytest.raises(ValidationError):
        baseline_corpus("linear", train.sentences, stats, np.random.default_rng(1))


def test_human_baseline_identical_readers():
    sentences = {"s1": ("a", "b", "c")}
    records = [ScanpathRecord("r1", "s1", (1, 2, 3)),
               ScanpathRecord("r2", "s1", (1, 2, 3))]
    hb = human_baseline(Corpus(sentences=sentences, records=records))
    assert hb == HumanBaseline(mean=0.0, se=0.0, count=2)


def test_human_baseline_hand_case():
    # lev([1,2,3,4], [1,2]) = 2, normalized by 4: both directions see 0.5
    sentences = {"s1": ("a", "b", "c", "d")}
    records = [ScanpathRecord("r1", "s1", (1, 2, 3, 4)),
               ScanpathRecord("r2", "s1", (1, 2))]
    hb = human_baseline(Corpus(sentences=sentences, records=records))
    assert hb.mean == pytest.approx(0.5)
    assert hb.se == 0.0
    assert hb.count == 2


def test_human_baseline_three_readers():
    # per-scanpath means 1/2, 1/2, 1: grand mean 2/3, se exactly 1/6
    sentences = {"s1": ("a", "b")}
    records = [ScanpathRecord("r1", "s1", (1,)),
               ScanpathRecord("r2", "s1", (1,)),
               ScanpathRecord("r3", "s1", (2,))]
    hb = human_baseline(Corpus(sentences=sentences, records=records))
    assert hb.mean == pytest.approx(2 / 3, rel=1e-12)
    assert hb.se == pytest.approx(1 / 6, rel=1e-12)
    assert hb.count == 3


def test_human_baseline_needs_overlap():
    sentences = {"s1": ("a", "b"), "s2": ("c", "d")}
    with pytest.raises(ValidationError):
        human_baseline(Corpus(sentences=sentences,
                              records=[ScanpathRecord("r1", "s1", (1,))]))
    records = [ScanpathRecord("r1", "s1", (1,)),
               ScanpathRecord("r2", "s2", (1,))]
    with pytest.raises(ValidationError):
        human_baseline(Corpus(sentences=sentences, records=records))


def human_baseline_all_ordered_pairs(corpus):
    """The inter-reader score as first written: every ordered pair of
    different readers' records on a sentence goes through nld."""
    by_sentence = {}
    for rec in corpus.records:
        by_sentence.setdefault(rec.sentence_id, []).append(rec)
    per_scanpath = []
    for recs in by_sentence.values():
        for rec in recs:
            others = [o for o in recs if o.reader_id != rec.reader_id]
            if not others:
                continue
            per_scanpath.append(
                float(np.mean([nld(rec.fixations, o.fixations) for o in others]))
            )
    arr = np.asarray(per_scanpath)
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return HumanBaseline(mean=float(arr.mean()), se=se, count=arr.size)


def random_reading_corpus(rng, n_readers, n_sentences):
    """Each reader reads a random subset of the sentences (some sentences
    end up with a single reader) with scanpaths of 1..40 fixations."""
    sentences = {f"s{k}": tuple(f"w{i}" for i in range(int(rng.integers(3, 16))))
                 for k in range(n_sentences)}
    records = []
    for r in range(n_readers):
        for sid, words in sentences.items():
            if rng.random() < 0.7:
                n = int(rng.integers(1, 41))
                records.append(ScanpathRecord(
                    f"r{r}", sid, tuple(rng.integers(1, len(words) + 1, size=n).tolist())))
    return Corpus(sentences=sentences, records=records)


def test_human_baseline_equals_all_ordered_pairs(monkeypatch):
    rng = np.random.default_rng(12)
    for n_readers, n_sentences in [(2, 3), (3, 5), (5, 4), (8, 6)]:
        corpus = random_reading_corpus(rng, n_readers, n_sentences)
        if len(corpus.readers) < 2:
            continue
        hb = human_baseline(corpus)
        old = human_baseline_all_ordered_pairs(corpus)
        assert (hb.mean, hb.se, hb.count) == (old.mean, old.se, old.count)

    # a corpus whose cross-reader pairs fill several kernel blocks, one of
    # its readers with two records on a sentence: still one call
    corpus = random_reading_corpus(rng, 14, 32)
    rec = corpus.records[0]
    corpus.records.append(ScanpathRecord(rec.reader_id, rec.sentence_id, (1, 2, 1)))
    by_sentence = {}
    for r in corpus.records:
        by_sentence.setdefault(r.sentence_id, []).append(r.reader_id)
    n_pairs = sum(a != b for ids in by_sentence.values()
                  for i, a in enumerate(ids) for b in ids[i + 1:])
    assert n_pairs > 2 * metrics._CHUNK
    calls = []
    monkeypatch.setattr(baselines, "levenshtein_many",
                        lambda pairs: calls.append(1) or levenshtein_many(pairs))
    hb = human_baseline(corpus)
    old = human_baseline_all_ordered_pairs(corpus)
    assert (hb.mean, hb.se, hb.count) == (old.mean, old.se, old.count)
    assert calls == [1]


def test_human_baseline_reader_with_two_records_on_a_sentence():
    rng = np.random.default_rng(13)
    corpus = random_reading_corpus(rng, 4, 3)
    rec = corpus.records[0]
    assert any(o.sentence_id == rec.sentence_id and o.reader_id != rec.reader_id
               for o in corpus.records)
    m = len(corpus.sentences[rec.sentence_id])
    corpus.records.insert(2, ScanpathRecord(
        rec.reader_id, rec.sentence_id, tuple(rng.integers(1, m + 1, size=9).tolist())))
    hb = human_baseline(corpus)
    old = human_baseline_all_ordered_pairs(corpus)
    assert (hb.mean, hb.se, hb.count) == (old.mean, old.se, old.count)


# ---------------------------------------------------------------------------
# pairing and the evaluation report

def test_pair_records_exact_key():
    true = two_sentence_corpus()
    pred = Corpus(sentences=true.sentences, records=[
        ScanpathRecord("r1", "s1", (1, 1)),
        ScanpathRecord("r1", "s2", (2,)),
    ])
    pairs = pair_records(true, pred)
    assert [(t.sentence_id, p.fixations) for t, p in pairs] == \
        [("s1", (1, 1)), ("s2", (2,))]


def test_pair_records_single_reader_fallback():
    sentences = {"s1": ("a", "b"), "s2": ("c",)}
    true = Corpus(sentences=sentences, records=[
        ScanpathRecord("r1", "s1", (1, 2)),
        ScanpathRecord("r2", "s1", (2,)),
        ScanpathRecord("r1", "s2", (1,)),
    ])
    pred = Corpus(sentences=sentences, records=[
        ScanpathRecord("model", "s1", (1,)),
        ScanpathRecord("model", "s2", (1,)),
    ])
    pairs = pair_records(true, pred)
    assert len(pairs) == 3
    assert all(p.reader_id == "model" for _, p in pairs)
    assert [p.sentence_id for _, p in pairs] == ["s1", "s1", "s2"]


def test_pair_records_unmatched():
    sentences = {"s1": ("a",), "s2": ("b",)}
    true = Corpus(sentences=sentences, records=[
        ScanpathRecord("r1", "s1", (1,)),
        ScanpathRecord("r1", "s2", (1,)),
    ])
    pred = Corpus(sentences=sentences,
                  records=[ScanpathRecord("model", "s1", (1,))])
    with pytest.raises(ValidationError, match="s2"):
        pair_records(true, pred)
    # two pred readers: no fallback, exact keys only
    pred2 = Corpus(sentences=sentences, records=[
        ScanpathRecord("a", "s1", (1,)),
        ScanpathRecord("b", "s2", (1,)),
    ])
    with pytest.raises(ValidationError):
        pair_records(true, pred2)
    with pytest.raises(ValidationError):
        pair_records(Corpus(sentences=sentences, records=[]), pred)


def test_report_self_evaluation_is_zero():
    corpus = two_sentence_corpus()
    report = evaluation_report(corpus, corpus)
    assert report.mean_nld == 0.0
    assert all(row["nld"] == 0.0 for row in report.nld_rows)
    assert all(row["levenshtein"] == 0 for row in report.nld_rows)
    for row in report.measure_rows:
        assert row["true_mean"] == pytest.approx(row["pred_mean"])
        assert row["true_sd"] == pytest.approx(row["pred_sd"])


def test_report_nld_rows():
    sentences = {"s1": ("a", "b", "c")}
    true = Corpus(sentences=sentences,
                  records=[ScanpathRecord("r1", "s1", (1, 2, 3, 2))])
    pred = Corpus(sentences=sentences,
                  records=[ScanpathRecord("model", "s1", (1, 2, 3))])
    report = evaluation_report(true, pred)
    assert report.nld_rows == [{
        "reader_id": "r1", "sentence_id": "s1",
        "true_len": 4, "pred_len": 3,
        "levenshtein": 1, "nld": 0.25,
    }]
    assert report.mean_nld == 0.25


def test_report_mean_and_pred_dedup():
    sentences = {"s1": ("aa", "bb", "cc"), "s2": ("dd", "ee")}
    true = Corpus(sentences=sentences, records=[
        ScanpathRecord("r1", "s1", (1, 2, 3)),
        ScanpathRecord("r2", "s1", (1, 2, 2)),
        ScanpathRecord("r1", "s2", (1, 2)),
    ])
    pred = Corpus(sentences=sentences, records=[
        ScanpathRecord("model", "s1", (1, 2, 3)),      # nfc 1.0
        ScanpathRecord("model", "s2", (1, 2, 1, 2)),   # nfc 2.0
    ])
    report = evaluation_report(true, pred)
    assert report.mean_nld == pytest.approx((0 + 1 / 3 + 1 / 2) / 3, rel=1e-12)
    nfc = next(r for r in report.measure_rows
               if r["measure"] == "normalized_fixation_count")
    # s1's prediction pairs with two true records but counts once
    assert nfc["pred_mean"] == pytest.approx(1.5)
    assert nfc["pred_sd"] == pytest.approx(float(np.std([1.0, 2.0], ddof=1)))
    assert nfc["true_mean"] == pytest.approx(1.0)


def test_report_reader_rows_undefined_below_three():
    sentences = {"s1": ("a", "b")}
    true = Corpus(sentences=sentences, records=[
        ScanpathRecord("r1", "s1", (1, 2)),
        ScanpathRecord("r2", "s1", (2, 1)),
    ])
    pred = Corpus(sentences=sentences,
                  records=[ScanpathRecord("model", "s1", (1,))])
    report = evaluation_report(true, pred)
    for row in report.reader_rows:
        assert row["n_readers"] == 2
        assert math.isnan(row["pearson_r"]) and math.isnan(row["p_value"])
        assert row["note"] == "undefined"


def readers_and_model():
    sentences = {"s1": ("a", "b", "c", "d"),
                 "s2": ("e", "f", "g", "h"),
                 "s3": ("i", "j", "k", "l")}
    true = Corpus(sentences=sentences, records=[
        ScanpathRecord("r1", "s1", (1, 2, 3, 4)),
        ScanpathRecord("r1", "s2", (1, 3, 4)),
        ScanpathRecord("r1", "s3", (1, 2, 4)),
        ScanpathRecord("r2", "s1", (1, 2, 2, 3, 4)),
        ScanpathRecord("r2", "s2", (1, 2, 3, 3, 4)),
        ScanpathRecord("r2", "s3", (1, 2, 3, 4, 4)),
        ScanpathRecord("r3", "s1", (1, 3, 2, 4, 3)),
        ScanpathRecord("r3", "s2", (2, 1, 3, 4)),
        ScanpathRecord("r3", "s3", (1, 3, 2, 3, 4)),
    ])
    pred = Corpus(sentences=sentences, records=[
        ScanpathRecord("model", "s1", (1, 2, 3, 4)),
        ScanpathRecord("model", "s2", (1, 2, 4)),
        ScanpathRecord("model", "s3", (1, 2, 3, 4)),
    ])
    return true, pred


def test_report_reader_rows_match_scipy():
    true, pred = readers_and_model()
    report = evaluation_report(true, pred)
    pred_by_sid = {r.sentence_id: r for r in pred.records}

    # re-derive per-reader means from the raw records
    per_reader_nld, per_reader_measure = [], []
    for reader in ("r1", "r2", "r3"):
        recs = [r for r in true.records if r.reader_id == reader]
        per_reader_nld.append(np.mean(
            [nld(r.fixations, pred_by_sid[r.sentence_id].fixations) for r in recs]))
        per_reader_measure.append(np.mean(
            [reading_measures(r.fixations, 4).normalized_fixation_count
             for r in recs]))

    row = next(r for r in report.reader_rows
               if r["measure"] == "normalized_fixation_count")
    ref = scipy_stats.pearsonr(per_reader_measure, per_reader_nld)
    assert row["pearson_r"] == pytest.approx(ref[0], abs=1e-12)
    assert row["p_value"] == pytest.approx(ref[1], rel=1e-9, abs=1e-12)
    assert row["n_readers"] == 3
    assert row["note"] == ""


def test_report_scanpath_rows_match_scipy():
    true, pred = readers_and_model()
    report = evaluation_report(true, pred)
    pred_by_sid = {r.sentence_id: r for r in pred.records}

    xs = [reading_measures(r.fixations, 4).normalized_fixation_count
          for r in true.records]
    ds = [nld(r.fixations, pred_by_sid[r.sentence_id].fixations)
          for r in true.records]

    row = next(r for r in report.scanpath_rows
               if r["measure"] == "normalized_fixation_count")
    ref = scipy_stats.pearsonr(xs, ds)
    assert row["pearson_r"] == pytest.approx(ref[0], abs=1e-12)
    assert row["p_value"] == pytest.approx(ref[1], rel=1e-9, abs=1e-12)
    assert row["n"] == len(true.records)
    for r in report.scanpath_rows:
        assert (r["note"] == "undefined") == math.isnan(r["pearson_r"])


def test_report_covers_all_summary_measures():
    true, pred = readers_and_model()
    report = evaluation_report(true, pred)
    for rows in (report.measure_rows, report.reader_rows, report.scanpath_rows):
        assert [r["measure"] for r in rows] == list(SUMMARY_MEASURES)


# ---------------------------------------------------------------------------
# file outputs

def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_write_evaluation_report_files(tmp_path):
    true, pred = readers_and_model()
    report = evaluation_report(true, pred)
    files = write_evaluation_report(report, tmp_path / "out")
    assert set(files) == {"nld_per_scanpath", "measure_summary",
                          "reader_correlations", "nld_measure_correlations"}

    header, rows = read_csv(files["nld_per_scanpath"])
    assert header == ["reader_id", "sentence_id", "true_len", "pred_len",
                      "levenshtein", "nld"]
    assert len(rows) == len(true.records)
    # floats are written with repr and survive the round trip exactly
    assert float(rows[0][5]) == report.nld_rows[0]["nld"]
    assert rows[0][4] == str(report.nld_rows[0]["levenshtein"])

    header, rows = read_csv(files["measure_summary"])
    assert header == ["measure", "true_mean", "true_sd", "pred_mean", "pred_sd"]
    assert len(rows) == len(SUMMARY_MEASURES)
    assert float(rows[0][1]) == report.measure_rows[0]["true_mean"]

    header, rows = read_csv(files["reader_correlations"])
    assert header == ["measure", "pearson_r", "p_value", "n_readers", "note"]

    header, rows = read_csv(files["nld_measure_correlations"])
    assert header == ["measure", "pearson_r", "p_value", "n", "note"]
    assert len(rows) == len(SUMMARY_MEASURES)


def test_nld_per_scanpath_csv_holds_plain_numbers(tmp_path):
    # distances are Python ints: a numpy scalar would be written as its repr
    true, pred = readers_and_model()
    files = write_evaluation_report(evaluation_report(true, pred), tmp_path)
    text = files["nld_per_scanpath"].read_text()
    assert "np." not in text
    header, rows = read_csv(files["nld_per_scanpath"])
    col = header.index("levenshtein")
    for row in rows:
        assert row[col] == str(int(row[col]))


def test_export_word_measures(tmp_path):
    sentences = {"s1": ("the", "walking", "dog")}
    corpus = Corpus(sentences=sentences, records=[
        ScanpathRecord("r1", "s1", (1, 3, 2)),
        ScanpathRecord("r2", "s1", (1, 2, 3)),
    ])
    path = tmp_path / "words.csv"
    export_word_measures(corpus, path)
    header, rows = read_csv(path)
    assert header == WORD_EXPORT_BASE
    assert len(rows) == 6  # 2 records x 3 words

    # first record: 1 -> 3 skips word 2, 3 -> 2 is a first-pass regression
    r1 = {int(row[2]): row for row in rows[:3]}
    assert [r1[2][3], r1[2][4]] == ["walking", "7"]
    assert [r1[1][5], r1[2][5], r1[3][5]] == ["0", "1", "0"]   # sr
    assert [r1[1][6], r1[2][6], r1[3][6]] == ["1", "0", "1"]   # ffc
    assert [r1[1][7], r1[2][7], r1[3][7]] == ["1", "1", "1"]   # tfc
    assert [r1[1][8], r1[2][8], r1[3][8]] == ["0", "0", "1"]   # fpr
    assert all(row[0] == "r2" for row in rows[3:])


def test_report_and_export_take_the_records_measures(tmp_path):
    sentences = {"s1": ("the", "walking", "dog"), "s2": ("a", "cat")}
    true = Corpus(sentences=sentences, records=[
        ScanpathRecord("r1", "s1", (1, 3, 2)),
        ScanpathRecord("r2", "s1", (1, 2, 3)),
        ScanpathRecord("r1", "s2", (2, 1, 2)),
    ])
    pred = Corpus(sentences=sentences, records=[
        ScanpathRecord("model", "s1", (1, 2)), ScanpathRecord("model", "s2", (1,))])
    measures = record_measures(true)
    assert [m.tfc.tolist() for m in measures] == [[1, 1, 1], [1, 1, 1], [1, 2]]
    given = write_evaluation_report(evaluation_report(true, pred, measures), tmp_path / "given")
    computed = write_evaluation_report(evaluation_report(true, pred), tmp_path / "computed")
    given["words"], computed["words"] = tmp_path / "given.csv", tmp_path / "computed.csv"
    export_word_measures(true, given["words"], measures=measures)
    export_word_measures(true, computed["words"])
    assert ({name: f.read_bytes() for name, f in given.items()}
            == {name: f.read_bytes() for name, f in computed.items()})
    with pytest.raises(ValidationError, match="2 measure sets for 3 records"):
        evaluation_report(true, pred, measures[:2])
    with pytest.raises(ValidationError, match="2 measure sets for 3 records"):
        export_word_measures(true, tmp_path / "short.csv", measures=measures[:2])
    # measures of other sentences would shift every later row's columns
    swapped = [measures[0], measures[2], measures[1]]
    with pytest.raises(ValidationError, match="word counts differ from the records' sentences"):
        export_word_measures(true, tmp_path / "swapped.csv", measures=swapped)


def test_export_word_measures_with_predictors(tmp_path):
    sentences = {"s1": ("the", "walking", "dog")}
    corpus = Corpus(sentences=sentences,
                    records=[ScanpathRecord("r1", "s1", (1, 2, 3))])
    predictors = {
        ("s1", 1): {"freq": "3.2", "word": "COLLIDES"},
        ("s1", 3): {"freq": "1.1", "surprisal": "0.9"},
    }
    path = tmp_path / "words.csv"
    export_word_measures(corpus, path, predictors)
    header, rows = read_csv(path)
    assert header == WORD_EXPORT_BASE + ["freq", "surprisal"]
    assert rows[0][-2:] == ["3.2", ""]       # word 1: freq only
    assert rows[1][-2:] == ["", ""]          # word 2: no predictor row
    assert rows[2][-2:] == ["1.1", "0.9"]    # word 3
    assert rows[0][3] == "the"               # collision kept the computed column
