import json

import numpy as np
import pytest

from reviewpt import data as D
from reviewpt.data import (
    CROSS_REVIEW,
    DataFormatError,
    SAME_REVIEW,
    align_answer,
    encode_asc,
    encode_bio,
    encode_mrc,
    gold_chunks,
    load_asc,
    load_bio,
    load_mrc,
    load_reviews,
    make_dk_examples,
    read_dk_shard,
    write_dk_shard,
)
from reviewpt.tokenizer import CLS_ID, MASK_ID, PAD_ID, SEP_ID, SPECIALS, Vocabulary, build_vocab, encode

CORPUS = [
    "the battery life is great . it charges fast and lasts long .",
    "this laptop comes with an internal disk drive . you get 500gb storage .",
    "the screen is bright . the speakers are weak but usable .",
    "boot time is quick . the solid state drive makes a difference .",
    "the keyboard feels solid . the touchpad is precise and smooth .",
    "excellent value for students . i highly recommend this machine .",
]


@pytest.fixture(scope="module")
def vocab():
    return build_vocab(CORPUS * 30, 300)


# -- review loading ------------------------------------------------------------


def test_load_reviews_blank_line_blocks(tmp_path):
    path = tmp_path / "reviews.txt"
    path.write_text("first review line one\nstill first\n\nsecond review\n\n\nthird one\n", encoding="utf-8")
    docs = load_reviews(path)
    assert len(docs) == 3
    assert docs[0] == "first review line one still first"


def test_load_reviews_only_blank_lines(tmp_path):
    path = tmp_path / "blank.txt"
    path.write_text("\n\n   \n\n", encoding="utf-8")
    assert load_reviews(path) == []


def test_load_reviews_crlf_equals_lf(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("one\n\ntwo\n", encoding="utf-8")
    b.write_bytes(b"one\r\n\r\ntwo\r\n")
    assert load_reviews(a) == load_reviews(b)


def test_load_reviews_line_mode(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_text("one review\nanother review\n", encoding="utf-8")
    assert len(load_reviews(path, line_mode=True)) == 2


def test_load_reviews_missing_file():
    with pytest.raises(DataFormatError, match="no/such/file"):
        load_reviews("no/such/file.txt")


# -- DK generation --------------------------------------------------------------


def test_dk_examples_duplicate_factor_count(vocab):
    reviews = CORPUS + CORPUS  # 12 usable reviews
    examples = list(make_dk_examples(reviews, vocab, max_len=48, duplicate_factor=5, seed=1))
    assert len(examples) == 5 * len(reviews)


def test_dk_single_sentence_review_token_split(vocab):
    reviews = ["battery great battery great battery", "screen bright screen bright screen"]
    examples = list(make_dk_examples(reviews, vocab, max_len=32, duplicate_factor=2, seed=0))
    assert len(examples) == 4  # token-level fallback, never dropped


def test_dk_too_few_reviews_errors(vocab):
    with pytest.raises(ValueError):
        list(make_dk_examples(["only one review"], vocab, duplicate_factor=1))


def test_dk_reproducible_for_seed(vocab):
    a = list(make_dk_examples(CORPUS, vocab, max_len=48, duplicate_factor=2, seed=7))
    b = list(make_dk_examples(CORPUS, vocab, max_len=48, duplicate_factor=2, seed=7))
    for x, y in zip(a, b):
        assert np.array_equal(x.packed.ids, y.packed.ids)
        assert x.mlm_targets == y.mlm_targets
        assert x.pair_label == y.pair_label
    c = list(make_dk_examples(CORPUS, vocab, max_len=48, duplicate_factor=2, seed=8))
    assert any(not np.array_equal(x.packed.ids, z.packed.ids) for x, z in zip(a, c))


def test_dk_never_masks_specials(vocab):
    examples = list(make_dk_examples(CORPUS * 4, vocab, max_len=48, duplicate_factor=3, seed=3))
    for ex in examples:
        ids = ex.packed.ids
        for pos, original in ex.mlm_targets:
            assert pos != 0 and pos != ex.packed.sep_index and pos != ex.packed.end_index
            assert original >= 5
            assert ids[pos] == MASK_ID or ids[pos] >= 5  # never replaced by a special
        assert ids[0] == CLS_ID
        assert ids[ex.packed.sep_index] == SEP_ID and ids[ex.packed.end_index] == SEP_ID


def test_dk_masking_statistics(vocab):
    # Monte-Carlo check of the corruption rule over >= 100k candidate positions
    reviews = CORPUS * 60  # 360 reviews
    examples = list(make_dk_examples(reviews, vocab, max_len=64, duplicate_factor=25, seed=123))
    candidates = 0
    masked = 0
    n_mask = n_rand = n_keep = 0
    n_cross = 0
    for ex in examples:
        ids = ex.packed.ids
        real = [p for p in range(ex.packed.end_index + 1) if ids[p] not in (CLS_ID, SEP_ID)]
        candidates += len(real)
        masked += len(ex.mlm_targets)
        for pos, original in ex.mlm_targets:
            if ids[pos] == MASK_ID:
                n_mask += 1
            elif ids[pos] == original:
                n_keep += 1
            else:
                n_rand += 1
        n_cross += ex.pair_label == CROSS_REVIEW
    assert candidates >= 100_000
    frac = masked / candidates
    assert abs(frac - 0.15) < 0.005
    assert abs(n_mask / masked - 0.8) < 0.02
    assert abs(n_rand / masked - 0.1) < 0.02
    assert abs(n_keep / masked - 0.1) < 0.02
    assert abs(n_cross / len(examples) - 0.5) < 0.02


def test_dk_shard_round_trip(tmp_path, vocab):
    examples = list(make_dk_examples(CORPUS, vocab, max_len=48, duplicate_factor=2, seed=5))
    path = tmp_path / "dk.dksh"
    count = write_dk_shard(path, examples, seed=5)
    assert count == len(examples)
    header = path.read_bytes()[:16]
    assert header[:4] == b"DKSH"
    loaded, seed = read_dk_shard(path)
    assert seed == 5 and len(loaded) == len(examples)
    for a, b in zip(examples, loaded):
        assert np.array_equal(a.packed.ids, b.packed.ids)
        assert np.array_equal(a.packed.segments, b.packed.segments)
        assert np.array_equal(a.packed.pad_mask, b.packed.pad_mask)
        assert a.packed.sep_index == b.packed.sep_index
        assert a.mlm_targets == b.mlm_targets
        assert a.pair_label == b.pair_label


@pytest.mark.parametrize("where", ["header", "record length", "record payload", "last record"])
def test_truncated_dk_shard_raises_data_format_error(tmp_path, vocab, where):
    examples = list(make_dk_examples(CORPUS, vocab, max_len=48, duplicate_factor=1, seed=5))
    path = tmp_path / "dk.dksh"
    write_dk_shard(path, examples, seed=5)
    blob = path.read_bytes()
    keep = {"header": 10, "record length": 18, "record payload": 30, "last record": len(blob) - 3}[where]
    path.write_bytes(blob[:keep])
    with pytest.raises(DataFormatError):
        read_dk_shard(path)


def test_dk_shard_bad_magic(tmp_path):
    path = tmp_path / "junk.dksh"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(DataFormatError, match="magic"):
        read_dk_shard(path)


# -- MRC loading -----------------------------------------------------------------


def squad_blob(context, qas):
    return {"version": "1.1", "data": [{"title": "t", "paragraphs": [{"context": context, "qas": qas}]}]}


def write_squad(tmp_path, blob, name="gold.json"):
    path = tmp_path / name
    path.write_text(json.dumps(blob), encoding="utf-8")
    return path


REVIEW_CTX = (
    "This machine is a strong buy for anyone wanting a dependable workhorse . "
    "It ships with an internal hard drive . You get 500GB of storage which is plenty ."
)


def test_load_mrc_answer_span_matches_context(tmp_path):
    start = REVIEW_CTX.index("500GB")
    blob = squad_blob(
        REVIEW_CTX,
        [
            {
                "id": "q2",
                "question": "How large is the internal hard drive ?",
                "answers": [{"text": "500GB", "answer_start": start}],
            }
        ],
    )
    examples = load_mrc(write_squad(tmp_path, blob))
    assert len(examples) == 1
    ex = examples[0]
    s, e = ex.answer_char_span
    assert ex.context[s:e] == "500GB"
    assert ex.golds == ["500GB"]


def test_load_mrc_empty_qas(tmp_path):
    path = write_squad(tmp_path, squad_blob("some context .", []))
    assert load_mrc(path) == []


def test_load_mrc_missing_field_named(tmp_path):
    blob = {"data": [{"paragraphs": [{"context": "x", "qas": [{"id": "1", "answers": []}]}]}]}
    with pytest.raises(DataFormatError, match="question"):
        load_mrc(write_squad(tmp_path, blob))


def test_load_mrc_rejects_mismatched_answer(tmp_path):
    blob = squad_blob(
        "the battery is great .",
        [
            {"id": "bad1", "question": "q ?", "answers": [{"text": "screen", "answer_start": 4}]},
            {"id": "bad2", "question": "q ?", "answers": [{"text": "battery", "answer_start": 9999}]},
            {"id": "ok", "question": "q ?", "answers": [{"text": "battery", "answer_start": 4}]},
        ],
    )
    report = D.LoadReport(rejected_ids=[])
    examples = load_mrc(write_squad(tmp_path, blob), report)
    assert [e.id for e in examples] == ["ok"]
    assert report.rejected == 2
    assert set(report.rejected_ids) == {"bad1", "bad2"}


def test_load_mrc_keeps_all_golds(tmp_path):
    blob = squad_blob(
        "you get 500GB of storage .",
        [
            {
                "id": "q",
                "question": "how much ?",
                "answers": [
                    {"text": "500GB", "answer_start": 8},
                    {"text": "500GB of storage", "answer_start": 8},
                ],
            }
        ],
    )
    (ex,) = load_mrc(write_squad(tmp_path, blob))
    assert ex.answer_text == "500GB"  # first gold trains
    assert len(ex.golds) == 2  # all golds evaluate


# -- answer alignment ----------------------------------------------------------------


def test_align_answer_exact_token(vocab):
    enc = encode(vocab, "the battery is great")
    start = "the battery is great".index("great")
    s, e = align_answer(enc, (start, start + len("great")))
    assert s == e
    assert enc.offsets[s] == (start, start + 5)


def test_align_answer_spans_subword_pieces():
    v = Vocabulary(list(SPECIALS) + ["500", "##gb", "you", "get"])
    enc = encode(v, "you get 500gb")
    s, e = align_answer(enc, (8, 13))
    assert (s, e) == (2, 3)  # both pieces of "500gb"


def test_align_answer_snaps_out_mid_token(vocab):
    enc = encode(vocab, "the battery is great")
    # span starts mid-way through "battery"
    s, e = align_answer(enc, (6, 11))
    covered = (enc.offsets[s][0], enc.offsets[e][1])
    assert covered[0] <= 4 + 2 and covered[1] >= 11


def test_align_answer_whitespace_only_errors(vocab):
    text = "the  battery"
    enc = encode(vocab, text)
    with pytest.raises(ValueError, match="unalignable span"):
        align_answer(enc, (3, 4))  # the double-space gap


def test_encode_mrc_packs_and_offsets(tmp_path, vocab):
    start = REVIEW_CTX.index("500GB")
    blob = squad_blob(
        REVIEW_CTX,
        [{"id": "q", "question": "how large is the drive ?", "answers": [{"text": "500GB", "answer_start": start}]}],
    )
    (raw,) = load_mrc(write_squad(tmp_path, blob))
    ex = encode_mrc(raw, vocab, max_len=96)
    assert ex is not None
    p = ex.packed
    assert p.sep_index < ex.start_token <= ex.end_token < p.end_index
    cs = p.doc_offsets[ex.start_token - p.doc_start][0]
    ce = p.doc_offsets[ex.end_token - p.doc_start][1]
    assert "500gb" in REVIEW_CTX[cs:ce].lower()


def test_encode_mrc_truncated_answer_dropped(tmp_path, vocab):
    start = REVIEW_CTX.index("500GB")
    blob = squad_blob(
        REVIEW_CTX,
        [{"id": "q", "question": "how large ?", "answers": [{"text": "500GB", "answer_start": start}]}],
    )
    (raw,) = load_mrc(write_squad(tmp_path, blob))
    assert encode_mrc(raw, vocab, max_len=16) is None


# -- BIO loading -------------------------------------------------------------------


def test_load_bio_two_sentences(tmp_path):
    path = tmp_path / "x.bio"
    path.write_text(
        "the\tO\nbattery\tB\nlife\tI\nrocks\tO\n\nscreen\tB\nglows\tO\n",
        encoding="utf-8",
    )
    examples = load_bio(path)
    assert len(examples) == 2
    assert examples[0].labels == ["O", "B", "I", "O"]
    assert examples[1].words == ["screen", "glows"]


def test_load_bio_unknown_label_line_number(tmp_path):
    path = tmp_path / "bad.bio"
    path.write_text("the\tO\nbattery\tX\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=":2"):
        load_bio(path)


def test_load_bio_repairs_illegal_inside(tmp_path):
    path = tmp_path / "fix.bio"
    path.write_text("the\tO\nbattery\tI\nlife\tI\n", encoding="utf-8")
    (ex,) = load_bio(path)
    assert ex.labels == ["O", "B", "I"]


def test_encode_bio_ignores_continuation_pieces(vocab):
    ex = D.BioExample(words=["the", "battery", "rocks"], labels=["O", "B", "O"])
    enc = encode_bio(ex, vocab, max_len=24)
    assert enc.label_mask.sum() == 3  # one labeled position per word
    first_positions = np.where(enc.label_mask)[0]
    assert enc.token_labels[first_positions].tolist() == [2, 0, 2]  # O, B, O
    # continuation pieces and specials carry no label
    assert not enc.label_mask[0]
    assert not enc.label_mask[enc.packed.end_index]


def test_gold_chunks_rules():
    assert gold_chunks(["B", "I", "I", "O", "B"]) == [(0, 2), (4, 4)]
    assert gold_chunks(["O", "O"]) == []
    assert gold_chunks(["O", "I", "I"]) == [(1, 2)]
    assert gold_chunks(["B", "B"]) == [(0, 0), (1, 1)]


# -- ASC loading ------------------------------------------------------------------------


def asc_line(**kw):
    row = {"sentence": "the battery is great", "term": "battery", "from": 4, "to": 11, "polarity": "positive"}
    row.update(kw)
    return json.dumps(row)


def test_load_asc_drops_conflict(tmp_path):
    path = tmp_path / "asc.jsonl"
    lines = [
        asc_line(),
        asc_line(polarity="negative"),
        asc_line(polarity="conflict"),
        asc_line(polarity="neutral"),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    examples = load_asc(path)
    assert len(examples) == 3
    assert all(e.polarity != "conflict" for e in examples)


def test_load_asc_unknown_polarity_line_number(tmp_path):
    path = tmp_path / "asc.jsonl"
    path.write_text(asc_line() + "\n" + asc_line(polarity="meh") + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=":2"):
        load_asc(path)


def test_encode_asc_packs_pair(vocab):
    (ex,) = load_asc_from_lines([asc_line()], vocab)
    assert ex.packed.ids[0] == CLS_ID
    assert int((ex.packed.ids == SEP_ID).sum()) == 2
    assert ex.label == 0


def load_asc_from_lines(lines, vocab, max_len=32):
    import io, tempfile, os

    fd, path = tempfile.mkstemp(suffix=".jsonl")
    with os.fdopen(fd, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    try:
        return [encode_asc(e, vocab, max_len) for e in load_asc(path)]
    finally:
        os.unlink(path)
