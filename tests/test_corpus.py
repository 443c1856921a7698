"""Corpus file formats, validation, and cross-validation splits."""

import csv
import json
import logging

import numpy as np
import pytest

from scanpath_diffusion import (Corpus, CorpusFormatError, ScanpathRecord,
                                ValidationError, build_vocab, filter_encodable,
                                init_model, load_corpus, load_predictors,
                                load_sentences, load_split_plan, make_splits,
                                save_corpus, save_sentences, save_split_plan,
                                synthetic_corpus, tokenize_sentence, train)
from scanpath_diffusion.cli import main
from scanpath_diffusion.reports import evaluation_report, write_evaluation_report
from scanpath_diffusion.splits import MODES, Fold, SplitPlan

from conftest import encode_corpus, tiny_config


def write(path, text):
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# sentence / scanpath files

def test_sentence_round_trip(tmp_path):
    sentences = {"s1": ("the", "dog"), "s2": ("a", "cat", "sat")}
    path = tmp_path / "sent.csv"
    save_sentences(sentences, path)
    assert load_sentences(path) == sentences


def test_sentence_duplicate_id(tmp_path):
    path = write(tmp_path / "s.csv", "sentence_id,text\ns1,a b\ns1,c d\n")
    with pytest.raises(CorpusFormatError) as err:
        load_sentences(path)
    assert err.value.line_no == 3


def test_sentence_empty_text(tmp_path):
    path = write(tmp_path / "s.csv", "sentence_id,text\ns1,   \n")
    with pytest.raises(CorpusFormatError):
        load_sentences(path)


def test_sentence_bad_header(tmp_path):
    path = write(tmp_path / "s.csv", "id,words\ns1,a b\n")
    with pytest.raises(CorpusFormatError) as err:
        load_sentences(path)
    assert err.value.line_no == 1


def test_corpus_round_trip(tmp_path):
    corpus = synthetic_corpus(n_sentences=4, seed=2)
    spath = tmp_path / "sent.csv"
    cpath = tmp_path / "scan.csv"
    save_sentences(corpus.sentences, spath)
    save_corpus(corpus, cpath)
    again = load_corpus(cpath, spath)
    assert again.sentences == corpus.sentences
    assert again.by_key() == corpus.by_key()


def test_corpus_groups_rows_in_order(tmp_path):
    spath = write(tmp_path / "s.csv", "sentence_id,text\ns1,a b c\n")
    cpath = write(tmp_path / "c.csv",
                  "reader_id,sentence_id,fixation_word_index\n"
                  "r1,s1,1\nr2,s1,3\nr1,s1,2\nr1,s1,3\n")
    corpus = load_corpus(cpath, spath)
    assert corpus.by_key()[("r1", "s1")].fixations == (1, 2, 3)
    assert corpus.by_key()[("r2", "s1")].fixations == (3,)


def test_corpus_unknown_sentence(tmp_path):
    spath = write(tmp_path / "s.csv", "sentence_id,text\ns1,a b\n")
    cpath = write(tmp_path / "c.csv",
                  "reader_id,sentence_id,fixation_word_index\nr1,s9,1\n")
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(cpath, spath)
    assert err.value.line_no == 2


def test_corpus_fixation_out_of_range(tmp_path):
    spath = write(tmp_path / "s.csv", "sentence_id,text\ns1,a b\n")
    cpath = write(tmp_path / "c.csv",
                  "reader_id,sentence_id,fixation_word_index\nr1,s1,3\n")
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(cpath, spath)
    assert "out of range" in str(err.value)


def test_corpus_non_integer_fixation(tmp_path):
    spath = write(tmp_path / "s.csv", "sentence_id,text\ns1,a b\n")
    cpath = write(tmp_path / "c.csv",
                  "reader_id,sentence_id,fixation_word_index\nr1,s1,x\n")
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(cpath, spath)
    assert err.value.line_no == 2


def test_corpus_field_count(tmp_path):
    spath = write(tmp_path / "s.csv", "sentence_id,text\ns1,a b\n")
    cpath = write(tmp_path / "c.csv",
                  "reader_id,sentence_id,fixation_word_index\nr1,s1\n")
    with pytest.raises(CorpusFormatError):
        load_corpus(cpath, spath)


SCANPATH_HEADER_LINE = "reader_id,sentence_id,fixation_word_index\n"


@pytest.mark.parametrize("text, line_no, message", [
    ("", 1, "missing header"),
    ("reader,sentence,fixation\nr1,s1,1\n", 1,
     "expected header ['reader_id', 'sentence_id', 'fixation_word_index'], "
     "got ['reader', 'sentence', 'fixation']"),
    (SCANPATH_HEADER_LINE + "r1,s1,1\nr1,s1\n", 3, "expected 3 fields, got 2"),
    (SCANPATH_HEADER_LINE + "r1,s1,1\nr1,s1,2,x\n", 3, "expected 3 fields, got 4"),
    (SCANPATH_HEADER_LINE + "r1,s1,1\nr1,s9,1\n", 3, "unknown sentence_id 's9'"),
    (SCANPATH_HEADER_LINE + "r1,s1,1\nr1,s1,1.0\n", 3,
     "fixation_word_index '1.0' is not an integer"),
    (SCANPATH_HEADER_LINE + "r1,s1,1\nr1,s1,\n", 3, "fixation_word_index '' is not an integer"),
    # an optional "-" and ASCII digits, nothing else that int() reads
    (SCANPATH_HEADER_LINE + "r1,s1,1\nr1,s1,1_0\n", 3,
     "fixation_word_index '1_0' is not an integer"),
    (SCANPATH_HEADER_LINE + "r1,s1, 2\n", 2, "fixation_word_index ' 2' is not an integer"),
    (SCANPATH_HEADER_LINE + "r1,s1,2 \n", 2, "fixation_word_index '2 ' is not an integer"),
    (SCANPATH_HEADER_LINE + "r1,s1,+2\n", 2, "fixation_word_index '+2' is not an integer"),
    (SCANPATH_HEADER_LINE + "r1,s1,\u0662\n", 2,
     "fixation_word_index '\u0662' is not an integer"),
    (SCANPATH_HEADER_LINE + "r1,s1,-\n", 2, "fixation_word_index '-' is not an integer"),
    (SCANPATH_HEADER_LINE + "r1,s1,--1\n", 2, "fixation_word_index '--1' is not an integer"),
    (SCANPATH_HEADER_LINE + "r1,s1,-1\n", 2, "fixation_word_index -1 out of range 1..2"),
    (SCANPATH_HEADER_LINE + "r1,s1,1\nr1,s1,3\n", 3, "fixation_word_index 3 out of range 1..2"),
    (SCANPATH_HEADER_LINE + "r1,s1,0\n", 2, "fixation_word_index 0 out of range 1..2"),
    # the first bad row wins, whatever the checks that find the later ones
    (SCANPATH_HEADER_LINE + "r1,s1,3\nr1,s9,1\n", 2, "fixation_word_index 3 out of range 1..2"),
    (SCANPATH_HEADER_LINE + "r1,s1,x\nr1,s1\n", 2, "fixation_word_index 'x' is not an integer"),
    (SCANPATH_HEADER_LINE + "r1,s1,5\nr1,s1,y\nr1,s9,1\nr1\n", 2,
     "fixation_word_index 5 out of range 1..2"),
    (SCANPATH_HEADER_LINE + "r1,s1,1\nr1,s1,y\nr1,s1,5\n", 3,
     "fixation_word_index 'y' is not an integer"),
    # within a row, the checks go: field count, sentence, integer, range
    (SCANPATH_HEADER_LINE + "r1,s9,x\n", 2, "unknown sentence_id 's9'"),
    # blank lines are skipped but counted
    (SCANPATH_HEADER_LINE + "r1,s1,1\n\n\nr1,s1,7\n", 5, "fixation_word_index 7 out of range 1..2"),
    (SCANPATH_HEADER_LINE + "\nr1,s1\n", 3, "expected 3 fields, got 2"),
])
def test_corpus_errors_name_the_first_bad_row(tmp_path, text, line_no, message):
    spath = write(tmp_path / "s.csv", "sentence_id,text\ns1,a b\n")
    cpath = write(tmp_path / "c.csv", text)
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(cpath, spath)
    assert err.value.line_no == line_no
    assert str(err.value) == f"{cpath}:{line_no}: {message}"


def test_corpus_read_error_comes_after_earlier_bad_rows(tmp_path):
    # a field over csv's size limit stops the read; a bad row before it is
    # still the error reported, and without one the read error comes out
    spath = write(tmp_path / "s.csv", "sentence_id,text\ns1,a b\n")
    huge = "x" * (csv.field_size_limit() + 1)
    cpath = write(tmp_path / "c.csv", SCANPATH_HEADER_LINE + f"r1,s9,1\nr1,s1,{huge}\n")
    with pytest.raises(CorpusFormatError, match=r":2: unknown sentence_id 's9'$"):
        load_corpus(cpath, spath)
    cpath = write(tmp_path / "c.csv", SCANPATH_HEADER_LINE + f"r1,s1,1\nr1,s1,{huge}\n")
    with pytest.raises(csv.Error, match="field larger than field limit"):
        load_corpus(cpath, spath)


def test_corpus_reads_every_integer_form(tmp_path):
    """ASCII digits, leading zeros included; the forms that int() reads
    besides are rejected (test_corpus_errors_name_the_first_bad_row)."""
    spath = write(tmp_path / "s.csv", "sentence_id,text\ns1,a b c d\n")
    cpath = write(tmp_path / "c.csv", SCANPATH_HEADER_LINE +
                  "r1,s1,3\nr1,s1,03\nr1,s1,0004\nr1,s1,2\n\nr2,s1,1\n")
    corpus = load_corpus(cpath, spath)
    assert [(r.reader_id, r.fixations) for r in corpus.records] == [
        ("r1", (3, 3, 4, 2)), ("r2", (1,))]
    assert all(type(f) is int for r in corpus.records for f in r.fixations)


def test_corpus_groups_interleaved_rows(tmp_path):
    spath = write(tmp_path / "s.csv", "sentence_id,text\ns1,a b c\ns2,d e\n")
    cpath = write(tmp_path / "c.csv", SCANPATH_HEADER_LINE +
                  "r1,s1,1\nr1,s1,2\nr2,s1,3\nr1,s2,2\nr1,s1,3\nr2,s1,1\n"
                  '"r,3",s2,1\n')
    corpus = load_corpus(cpath, spath)
    assert [(r.reader_id, r.sentence_id, r.fixations) for r in corpus.records] == [
        ("r1", "s1", (1, 2, 3)), ("r2", "s1", (3, 1)), ("r1", "s2", (2,)), ("r,3", "s2", (1,))]


def test_sentence_and_predictor_errors_name_the_first_bad_row(tmp_path):
    path = write(tmp_path / "s.csv", "sentence_id,text\ns1,a\ns1,b\ns2\n")
    with pytest.raises(CorpusFormatError, match=r":3: duplicate sentence_id 's1'$"):
        load_sentences(path)
    path = write(tmp_path / "s.csv", "sentence_id,text\ns1,a\n\ns2\ns1,b\n")
    with pytest.raises(CorpusFormatError, match=r":4: expected 2 fields, got 1$"):
        load_sentences(path)
    path = write(tmp_path / "p.csv", "sentence_id,word_index,f\ns1,1,a\ns1,x,b\ns1\n")
    with pytest.raises(CorpusFormatError, match=r":3: word_index 'x' is not an integer$"):
        load_predictors(path)
    path = write(tmp_path / "p.csv", "sentence_id,word_index,f\ns1,1,a\ns1,1_0,b\n")
    with pytest.raises(CorpusFormatError, match=r":3: word_index '1_0' is not an integer$"):
        load_predictors(path)
    path = write(tmp_path / "p.csv", "sentence_id,word_index,f\ns1,1,a\ns1\ns1,x,b\n")
    with pytest.raises(CorpusFormatError, match=r":3: expected 3 fields, got 1$"):
        load_predictors(path)


def test_record_validation_at_construction():
    with pytest.raises(ValidationError):
        Corpus(sentences={"s1": ("a",)},
               records=[ScanpathRecord("r", "s2", (1,))])
    with pytest.raises(ValidationError):
        Corpus(sentences={"s1": ("a",)},
               records=[ScanpathRecord("r", "s1", ())])
    with pytest.raises(ValidationError):
        Corpus(sentences={"s1": ("a",)},
               records=[ScanpathRecord("r", "s1", (2,))])


def test_subset_keys():
    corpus = synthetic_corpus(n_sentences=4, seed=0)
    keys = [("r1", "s00"), ("r2", "s03")]
    sub = corpus.subset(keys)
    assert {(r.reader_id, r.sentence_id) for r in sub.records} == set(keys)
    assert sub.sentences == corpus.sentences


# ---------------------------------------------------------------------------
# predictors

def test_predictors_load(tmp_path):
    path = write(tmp_path / "p.csv",
                 "sentence_id,word_index,frequency,length\n"
                 "s1,1,12.5,3\ns1,2,7.0,5\n")
    table = load_predictors(path)
    assert table[("s1", 1)] == {"frequency": "12.5", "length": "3"}
    assert table[("s1", 2)]["length"] == "5"


def test_predictors_need_extra_columns(tmp_path):
    path = write(tmp_path / "p.csv", "sentence_id,word_index\ns1,1\n")
    with pytest.raises(CorpusFormatError):
        load_predictors(path)


def test_predictors_reject_duplicate_key(tmp_path):
    path = write(tmp_path / "p.csv",
                 "sentence_id,word_index,freq\ns1,1,5\ns2,1,4\ns1,1,7\n")
    with pytest.raises(CorpusFormatError) as err:
        load_predictors(path)
    assert err.value.line_no == 4
    assert "duplicate row for sentence 's1' word 1 (first at line 2)" in str(err.value)


def test_predictors_word_range_checked_against_sentences(tmp_path, caplog):
    sentences = {"s1": ("a", "b", "c")}
    head = "sentence_id,word_index,freq\n"
    for bad in ("s1,4,3", "s1,0,3"):
        path = write(tmp_path / "p.csv", head + "s1,1,5\n" + bad + "\n")
        with pytest.raises(CorpusFormatError) as err:
            load_predictors(path, sentences)
        assert err.value.line_no == 3
        assert "outside 1..3 of sentence 's1'" in str(err.value)
    # rows for sentences outside the set stay, with one warning for all of them
    path = write(tmp_path / "p.csv", head + "s1,3,5\nnope,1,2\nnope,99,2\n")
    with caplog.at_level("WARNING", logger="scanpath_diffusion.corpus"):
        table = load_predictors(path, sentences)
    assert set(table) == {("s1", 3), ("nope", 1), ("nope", 99)}
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and "2 predictor rows" in warnings[0]


# ---------------------------------------------------------------------------
# table bytes: header line, CRLF endings, shortest round-trip floats

TABLE_SENTENCES = {"s1": ("a", "b", "c"), "s2": ("x,y", "z")}
TABLE_TRUE = Corpus(sentences=TABLE_SENTENCES, records=[
    ScanpathRecord("r1", "s1", (1, 2, 3)), ScanpathRecord("r2", "s1", (1, 3))])
TABLE_PRED = Corpus(sentences=TABLE_SENTENCES, records=[
    ScanpathRecord("model", "s1", (1, 2))])
NAN_ROWS = b"".join(
    b"%s,nan,nan,2,undefined\r\n" % name.encode()
    for name in ("regression_rate", "normalized_fixation_count", "progressive_saccade_len",
                 "regressive_saccade_len", "skipping_rate", "first_pass_count"))
TABLE_BYTES = {
    "schedule-dump": b"t,beta,alpha,alpha_bar\r\n1,0.0001,0.9999,0.9999\r\n"
                     b"2,0.01005,0.98995,0.989851005\r\n3,0.02,0.98,0.9700539848999999\r\n",
    "sentences": b'sentence_id,text\r\ns1,a b c\r\ns2,"x,y z"\r\n',
    "scanpaths": b"reader_id,sentence_id,fixation_word_index\r\n"
                 b"r1,s1,1\r\nr1,s1,2\r\nr1,s1,3\r\nr2,s1,1\r\nr2,s1,3\r\n",
    "nld_per_scanpath": b"reader_id,sentence_id,true_len,pred_len,levenshtein,nld\r\n"
                        b"r1,s1,3,2,1,0.3333333333333333\r\nr2,s1,2,2,1,0.5\r\n",
    "reader_correlations": b"measure,pearson_r,p_value,n_readers,note\r\n" + NAN_ROWS,
}


@pytest.mark.parametrize("table", [*TABLE_BYTES, "metrics"])
def test_table_file_bytes(table, tmp_path, capsys, tiny_vocab, small_corpus):
    path = tmp_path / "table.csv"
    if table == "schedule-dump":
        assert main(["schedule-dump", "--kind", "linear", "--t-max", "3"]) == 0
        data = capsys.readouterr().out.encode()
    elif table == "sentences":
        save_sentences(TABLE_SENTENCES, path)
    elif table == "scanpaths":
        save_corpus(TABLE_TRUE, path)
    elif table == "metrics":
        model = init_model(tiny_config(v_bert=len(tiny_vocab)), np.random.default_rng(7))
        instances = encode_corpus(small_corpus, tiny_vocab, model.config.max_len)
        result = train(model, instances, steps=2, batch=3, lr=1e-3, seed=5,
                       metrics_path=path)
    else:
        path = write_evaluation_report(evaluation_report(TABLE_TRUE, TABLE_PRED),
                                       tmp_path)[table]
    if table != "schedule-dump":
        data = path.read_bytes()
    if table != "metrics":
        assert data == TABLE_BYTES[table]
        return
    header, *lines = data.split(b"\r\n")
    assert header == b"step,t,l_vlb,l_emb,l_round,total,grad_norm"
    assert lines[-1] == b"" and b"\n" not in b"".join(lines)
    rows = [line.decode().split(",") for line in lines[:-1]]
    assert [row[0] for row in rows] == ["1", "2"]
    for row, values in zip(rows, result.rows):
        assert all(repr(float(cell)) == cell for cell in row[1:])
        assert [float(cell) for cell in row[1:]] == list(values.values())[1:]


# ---------------------------------------------------------------------------
# frame filtering

def test_filter_encodable_drops_and_warns(caplog):
    sentences = {
        "short": ("a", "b"),
        "long": tuple("word%d" % i for i in range(30)),
    }
    records = [
        ScanpathRecord("r1", "short", (1, 2)),
        ScanpathRecord("r1", "long", (1,)),
        ScanpathRecord("r2", "short", tuple([1] * 40)),
    ]
    corpus = Corpus(sentences=sentences, records=records)
    vocab = build_vocab(sentences.values())
    with caplog.at_level("WARNING"):
        kept, toks = filter_encodable(corpus, vocab, max_len=16)
    assert set(kept.sentences) == set(toks) == {"short"}
    assert toks["short"] == tokenize_sentence(sentences["short"], vocab)
    assert [(r.reader_id, r.sentence_id) for r in kept.records] == [("r1", "short")]
    assert sum("dropping sentence" in r.message for r in caplog.records) == 1
    assert sum("dropping scanpath" in r.message for r in caplog.records) == 1


def test_filter_encodable_boundary():
    # 2 pieces + 1 fixation + 4 markers = 7 exactly fits a frame of 7
    sentences = {"s": ("a", "b")}
    corpus = Corpus(sentences=sentences,
                    records=[ScanpathRecord("r", "s", (1,))])
    vocab = build_vocab(sentences.values())
    assert filter_encodable(corpus, vocab, 7)[0].records
    assert filter_encodable(corpus, vocab, 6) == (Corpus(sentences={}), {})


# ---------------------------------------------------------------------------
# splits

def many_reader_corpus(n_readers=6, n_sentences=12):
    base = synthetic_corpus(n_sentences=n_sentences, seed=4)
    records = []
    for i in range(n_readers):
        for sid, words in base.sentences.items():
            records.append(ScanpathRecord(
                f"reader{i}", sid, tuple(range(1, len(words) + 1))
            ))
    return Corpus(sentences=dict(base.sentences), records=records)


@pytest.mark.parametrize("mode", MODES)
def test_split_fold_isolation(mode):
    corpus = many_reader_corpus()
    plan = make_splits(corpus, mode, 3, seed=0)
    assert plan.n_folds == 3
    for fold in plan.folds:
        train_keys = set(fold.train)
        test_keys = set(fold.test)
        assert train_keys and test_keys
        assert not train_keys & test_keys
        if mode == "new_sentence":
            train_sents = {s for _, s in train_keys}
            test_sents = {s for _, s in test_keys}
            assert not train_sents & test_sents
        elif mode == "new_reader":
            train_readers = {r for r, _ in train_keys}
            test_readers = {r for r, _ in test_keys}
            assert not train_readers & test_readers
        else:  # new_reader_new_sentence
            train_readers = {r for r, _ in train_keys}
            train_sents = {s for _, s in train_keys}
            for r, s in test_keys:
                assert r not in train_readers
                assert s not in train_sents


def test_split_new_sentence_covers_all_sentences():
    corpus = synthetic_corpus(n_sentences=10, seed=1)
    plan = make_splits(corpus, "new_sentence", 5, seed=0)
    covered = set()
    for fold in plan.folds:
        covered |= {s for _, s in fold.test}
    assert covered == set(corpus.sentences)


def test_split_deterministic_under_seed():
    corpus = synthetic_corpus(n_sentences=10, seed=1)
    a = make_splits(corpus, "new_sentence", 4, seed=9)
    b = make_splits(corpus, "new_sentence", 4, seed=9)
    c = make_splits(corpus, "new_sentence", 4, seed=10)
    assert a.folds == b.folds
    assert a.folds != c.folds


def test_split_unknown_mode():
    corpus = synthetic_corpus(n_sentences=4, seed=0)
    with pytest.raises(ValidationError):
        make_splits(corpus, "leave_one_out", 2, seed=0)


def test_split_plan_round_trip(tmp_path):
    corpus = many_reader_corpus(n_readers=4, n_sentences=8)
    plan = make_splits(corpus, "new_reader", 2, seed=1)
    path = tmp_path / "plan.json"
    save_split_plan(plan, path)
    again = load_split_plan(path)
    assert again.mode == plan.mode
    assert again.seed == plan.seed
    assert again.folds == plan.folds


def test_load_split_plan_rejects_fold_count_mismatch(tmp_path):
    plan = make_splits(many_reader_corpus(n_readers=4, n_sentences=8), "new_reader", 2, seed=1)
    path = tmp_path / "plan.json"
    save_split_plan(plan, path)
    doc = json.loads(path.read_text())
    doc["n_folds"] = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="plan.json: malformed split plan.*n_folds"):
        load_split_plan(path)


# The three-branch make_splits and the hand-built plan writer that the
# single holdout rule replaced, kept as references.

_ref_log = logging.getLogger("split_reference")


def _ref_chunks(ids, k: int, rng) -> list[list[str]]:
    ids = sorted(ids)
    if len(ids) < k:
        raise ValidationError(f"cannot make {k} folds from {len(ids)} units")
    order = rng.permutation(len(ids))
    shuffled = [ids[i] for i in order]
    return [list(part) for part in np.array_split(shuffled, k)]


def _ref_make_splits(corpus, mode, k, seed):
    if mode not in MODES:
        raise ValidationError(f"unknown split mode {mode!r}; expected one of {MODES}")
    if k < 2:
        raise ValidationError(f"need at least 2 folds, got {k}")
    if not corpus.records:
        raise ValidationError("cannot split an empty corpus")
    rng = np.random.default_rng(seed)
    keys = [(rec.reader_id, rec.sentence_id) for rec in corpus.records]
    sentence_ids = {rec.sentence_id for rec in corpus.records}
    reader_ids = corpus.readers

    if mode == "new_sentence":
        sent_chunks = _ref_chunks(sentence_ids, k, rng)
        reader_chunks = [[] for _ in range(k)]
    elif mode == "new_reader":
        reader_chunks = _ref_chunks(reader_ids, k, rng)
        sent_chunks = [[] for _ in range(k)]
    else:
        reader_chunks = _ref_chunks(reader_ids, k, rng)
        sent_chunks = _ref_chunks(sentence_ids, k, rng)

    folds = []
    for i in range(k):
        held_r = set(reader_chunks[i])
        held_s = set(sent_chunks[i])
        if mode == "new_sentence":
            test = [key for key in keys if key[1] in held_s]
            train = [key for key in keys if key[1] not in held_s]
        elif mode == "new_reader":
            test = [key for key in keys if key[0] in held_r]
            train = [key for key in keys if key[0] not in held_r]
        else:
            test = [key for key in keys if key[0] in held_r and key[1] in held_s]
            train = [key for key in keys if key[0] not in held_r and key[1] not in held_s]
        if not test:
            _ref_log.warning("fold %d has an empty test set", i)
        folds.append(Fold(
            test_readers=tuple(sorted(held_r)),
            test_sentences=tuple(sorted(held_s)),
            train=tuple(train),
            test=tuple(test),
        ))
    return SplitPlan(mode=mode, seed=seed, n_folds=k, folds=tuple(folds))


def _ref_save_split_plan(plan, path):
    doc = {
        "mode": plan.mode,
        "seed": plan.seed,
        "n_folds": plan.n_folds,
        "folds": [
            {
                "test_readers": list(f.test_readers),
                "test_sentences": list(f.test_sentences),
                "train": [list(key) for key in f.train],
                "test": [list(key) for key in f.test],
            }
            for f in plan.folds
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def ragged_reader_corpus():
    """Seven readers, each missing some sentences, so not every
    (reader, sentence) pair exists."""
    full = many_reader_corpus(n_readers=7, n_sentences=11)
    return Corpus(sentences=full.sentences,
                  records=[rec for i, rec in enumerate(full.records) if i % 5 != 2])


@pytest.mark.parametrize("make_corpus", [
    lambda: synthetic_corpus(n_sentences=10, seed=1),
    many_reader_corpus,
    ragged_reader_corpus,
], ids=["2-reader", "6-reader", "7-reader-ragged"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("mode", MODES)
def test_split_plan_matches_three_branch_reference(tmp_path, make_corpus, k, mode):
    corpus = make_corpus()
    for seed in (0, 1, 7, 2023):
        try:
            want = _ref_make_splits(corpus, mode, k, seed)
        except ValidationError as exc:  # 3 folds from 2 readers
            with pytest.raises(ValidationError, match=str(exc)):
                make_splits(corpus, mode, k, seed)
            continue
        got = make_splits(corpus, mode, k, seed)
        assert got == want
        _ref_save_split_plan(want, tmp_path / "want.json")
        save_split_plan(got, tmp_path / "got.json")
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()
