"""Corpus file formats, validation, and cross-validation splits."""

import numpy as np
import pytest

from scanpath_diffusion import (Corpus, CorpusFormatError, ScanpathRecord,
                                ValidationError, build_vocab, filter_encodable,
                                init_model, load_corpus, load_predictors,
                                load_sentences, load_split_plan, make_splits,
                                save_corpus, save_sentences, save_split_plan,
                                synthetic_corpus, train)
from scanpath_diffusion.cli import main
from scanpath_diffusion.reports import evaluation_report, write_evaluation_report
from scanpath_diffusion.splits import MODES

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
        kept = filter_encodable(corpus, vocab, max_len=16)
    assert set(kept.sentences) == {"short"}
    assert [(r.reader_id, r.sentence_id) for r in kept.records] == [("r1", "short")]
    assert sum("dropping sentence" in r.message for r in caplog.records) == 1
    assert sum("dropping scanpath" in r.message for r in caplog.records) == 1


def test_filter_encodable_boundary():
    # 2 pieces + 1 fixation + 4 markers = 7 exactly fits a frame of 7
    sentences = {"s": ("a", "b")}
    corpus = Corpus(sentences=sentences,
                    records=[ScanpathRecord("r", "s", (1,))])
    vocab = build_vocab(sentences.values())
    assert filter_encodable(corpus, vocab, 7).records
    assert not filter_encodable(corpus, vocab, 6).sentences


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
