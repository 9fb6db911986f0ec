import numpy as np
import pytest

from reviewpt.decoding import decode_bio, decode_span, predict_polarity
from reviewpt.tokenizer import SPECIALS, Vocabulary, encode, pack_pair

VOCAB = Vocabulary(list(SPECIALS) + ["what", "is", "the", "battery", "life", "great", "and", "long"])


def make_packed(question="what is", doc="the battery life is great", max_len=16):
    return pack_pair(encode(VOCAB, question), encode(VOCAB, doc), max_len)


def peaked(n, idx, value=0.9):
    v = np.full(n, (1.0 - value) / (n - 1))
    v[idx] = value
    return v


def test_decode_span_peaked_same_position():
    p = make_packed()
    n = len(p.ids)
    pos = p.doc_start + 1
    pred = decode_span(peaked(n, pos), peaked(n, pos), p)
    assert (pred.start, pred.end) == (pos, pos)
    assert pred.text == "battery"


def test_decode_span_constraint_forces_document_side():
    p = make_packed()
    n = len(p.ids)
    l1 = peaked(n, 1, 0.9)  # global max on the question side
    l1[p.doc_start + 2] = 0.05  # best document position
    pred = decode_span(l1, peaked(n, p.doc_start + 2), p)
    assert pred.start == p.doc_start + 2
    assert pred.start > p.sep_index


def test_decode_span_greedy_not_joint():
    # l2's global max sits BEFORE s; greedy decoding takes the later secondary max
    p = make_packed(question="what", doc="the battery life is great", max_len=14)
    n = len(p.ids)
    s = p.doc_start + 2
    l1 = peaked(n, s)
    l2 = np.zeros(n)
    l2[p.doc_start] = 0.6  # before s: ineligible once s is fixed
    e2 = s + 1
    l2[e2] = 0.3
    pred = decode_span(l1, l2, p)
    assert pred.start == s
    assert pred.end == e2


def test_decode_span_text_is_contiguous_substring():
    p = make_packed()
    n = len(p.ids)
    pred = decode_span(peaked(n, p.doc_start), peaked(n, p.end_index - 1), p)
    assert pred.text in p.doc_text
    assert pred.text == "the battery life is great"


def test_decode_span_empty_document_errors():
    p = make_packed()
    p.end_index = p.doc_start  # no document tokens left
    with pytest.raises(ValueError, match="empty document"):
        decode_span(np.ones(len(p.ids)), np.ones(len(p.ids)), p)


def test_decode_span_safety_over_random_logits():
    p = make_packed()
    n = len(p.ids)
    rng = np.random.default_rng(42)
    for _ in range(2000):
        l1 = rng.random(n)
        l2 = rng.random(n)
        pred = decode_span(l1, l2, p)
        assert p.sep_index < pred.start <= pred.end < p.end_index


def test_decode_span_tie_breaks_lowest_index():
    p = make_packed()
    n = len(p.ids)
    l = np.zeros(n)
    l[p.doc_start] = 0.5
    l[p.doc_start + 2] = 0.5
    pred = decode_span(l, l, p)
    assert pred.start == p.doc_start


def bio_probs(labels, n, word_positions):
    l3 = np.zeros((n, 3))
    l3[:, 2] = 1.0  # default O everywhere
    for pos, lab in zip(word_positions, labels):
        l3[pos] = 0.0
        l3[pos, "BIO".index(lab)] = 1.0
    return l3


def test_decode_bio_rule_application():
    p = make_packed(question="what", doc="the battery life is great", max_len=16)
    word_positions = [p.doc_start + i for i in range(5)]
    l3 = bio_probs(["B", "I", "I", "O", "B"], len(p.ids), word_positions)
    assert decode_bio(l3, p) == [(0, 2), (4, 4)]


def test_decode_bio_all_outside():
    p = make_packed(question="what", doc="the battery life", max_len=12)
    word_positions = [p.doc_start + i for i in range(3)]
    l3 = bio_probs(["O", "O", "O"], len(p.ids), word_positions)
    assert decode_bio(l3, p) == []


def test_decode_bio_stray_inside_promoted():
    p = make_packed(question="what", doc="the battery life", max_len=12)
    word_positions = [p.doc_start + i for i in range(3)]
    l3 = bio_probs(["O", "I", "I"], len(p.ids), word_positions)
    assert decode_bio(l3, p) == [(1, 2)]


def test_decode_bio_word_map_from_packed_subwords():
    vocab = Vocabulary(list(SPECIALS) + ["bat", "##tery", "works"])
    from reviewpt.tokenizer import pack_single

    enc = encode(vocab, "battery works")
    p = pack_single(enc, 8)
    l3 = np.zeros((8, 3))
    l3[:, 2] = 1.0
    l3[1] = [1.0, 0.0, 0.0]  # B on first piece of "battery"
    l3[2] = [0.0, 0.0, 1.0]  # continuation piece labeled O: ignored
    chunks = decode_bio(l3, p)
    assert chunks == [(0, 0)]


def test_decode_bio_chunk_count_bounded_by_begin_labels():
    rng = np.random.default_rng(9)
    p = make_packed(question="what", doc="the battery life is great and long", max_len=20)
    word_positions = [p.doc_start + i for i in range(7)]
    for _ in range(200):
        l3 = rng.random((len(p.ids), 3))
        l3 /= l3.sum(axis=-1, keepdims=True)
        chunks = decode_bio(l3, p)
        labels = ["BIO"[int(np.argmax(l3[pos]))] for pos in word_positions]
        n_b = labels.count("B")
        n_promoted = sum(
            1 for i, lab in enumerate(labels) if lab == "I" and (i == 0 or labels[i - 1] == "O")
        )
        assert len(chunks) <= n_b + n_promoted


def test_predict_polarity():
    assert predict_polarity(np.array([0.7, 0.2, 0.1])) == "positive"
    assert predict_polarity(np.array([0.4, 0.4, 0.2])) == "positive"  # tie by order
    assert predict_polarity(np.array([0.0, 0.0, 1.0])) == "neutral"
    assert predict_polarity(np.array([0.1, 0.8, 0.1])) == "negative"
