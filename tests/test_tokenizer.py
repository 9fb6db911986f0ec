import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewpt import tokenizer as tok
from reviewpt.tokenizer import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    SPECIALS,
    Vocabulary,
    build_vocab,
    decode,
    encode,
    load_vocab,
    pack_pair,
    pack_single,
    save_vocab,
)

REVIEW_SENTENCES = [
    "the battery life is great and it charges fast .",
    "this laptop comes with an internal disk drive .",
    "you get 500gb which is also a great feature .",
    "the screen is bright but the speakers are weak .",
    "i highly recommend you get one before they are gone .",
    "excellent value and a must buy for students .",
    "the keyboard feels solid and the touchpad is precise .",
    "boot time is quick thanks to the solid state drive .",
]


def synthetic_review_corpus(n_sentences=1000, seed=5):
    """Varied review-like sentences with a few hundred distinct words."""
    rng = np.random.default_rng(seed)
    syllables = [c + v for c in "bcdfghjklmnprstvwz" for v in "aeiou"]
    words = ["".join(rng.choice(syllables, size=rng.integers(2, 6))) for _ in range(1200)]
    sentences = []
    for _ in range(n_sentences):
        n = rng.integers(5, 12)
        sentences.append(" ".join(rng.choice(words, size=n)) + " .")
    return sentences


@pytest.fixture(scope="module")
def vocab():
    return build_vocab(REVIEW_SENTENCES * 40, 200)


def test_empty_corpus_errors():
    with pytest.raises(ValueError, match="empty corpus"):
        build_vocab([], 100)
    with pytest.raises(ValueError, match="empty corpus"):
        build_vocab([""], 100)


def test_single_letter_corpus_merges():
    v = build_vocab(["aaa aaa"], 8)
    assert v.tokens[:5] == list(SPECIALS)
    assert "a" in v.id_of and "##a" in v.id_of
    merged = [t for t in v.tokens[5:] if len(t.lstrip("#")) > 1]
    assert merged, "expected a merged multi-character piece"


def test_vocab_exact_size_and_special_layout(vocab):
    assert len(vocab) == 200
    assert vocab.tokens[:5] == list(SPECIALS)
    for i, t in enumerate(vocab.tokens):
        assert vocab.id_of[t] == i  # round-trip invariant


def test_vocab_thousand_sentences_exact_target_size():
    v = build_vocab(synthetic_review_corpus(), 2000)
    assert len(v) == 2000
    assert v.tokens[:5] == list(SPECIALS)
    assert len(set(v.tokens)) == 2000


def test_merge_ties_go_to_the_largest_pair():
    # base is the 5 specials plus a, ##b, c, ##d: the next two entries are the two merges
    assert build_vocab(["ab ab cd cd"], 11).tokens[9:] == ["cd", "ab"]
    assert build_vocab(["ab ab ab cd cd"], 11).tokens[9:] == ["ab", "cd"]


def test_vocab_too_small_target_errors():
    with pytest.raises(ValueError, match="target_size"):
        build_vocab(["abcdefgh ijklmnop"], 6)


def test_encode_longest_match_shares_word_index():
    v = Vocabulary(list(SPECIALS) + ["500", "##gb", "5", "##0", "##g", "##b"])
    e = encode(v, "500GB")
    assert [v.tokens[i] for i in e.ids] == ["500", "##gb"]
    assert e.words == [0, 0]
    assert e.offsets == [(0, 3), (3, 5)]


def test_encode_empty_string(vocab):
    e = encode(vocab, "")
    assert len(e) == 0 and e.offsets == [] and e.words == []


def test_encode_unknown_word_becomes_single_unk():
    v = Vocabulary(list(SPECIALS) + ["the"])
    e = encode(v, "qwzx")
    assert e.ids == [tok.UNK_ID]
    assert e.offsets == [(0, 4)]


def test_encode_mid_word_fallback_to_unk():
    # first chars match but the tail has no continuation piece
    v = Vocabulary(list(SPECIALS) + ["qw"])
    e = encode(v, "qwzx")
    assert e.ids == [tok.UNK_ID]
    assert e.offsets == [(0, 4)]


def test_offsets_cover_every_nonspace_char(vocab):
    text = "The Battery LIFE is great ,  and 500gb helps ."
    e = encode(vocab, text)
    covered = set()
    for s, eo in e.offsets:
        for i in range(s, eo):
            assert i not in covered, "offsets overlap"
            covered.add(i)
    expected = {i for i, c in enumerate(text) if not c.isspace()}
    assert covered == expected


def test_regex_whitespace_is_str_isspace_on_every_code_point():
    # word splitting uses the regex class; the offsets contract is stated with str.isspace
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    by_regex = [m.start() for m in re.finditer(r"\s", text)]
    assert by_regex == [i for i, c in enumerate(text) if c.isspace()]


def words_and_lower_by_loop(text):
    """The per-character loops ``_words_with_spans`` and ``_lower`` replaced."""
    lowered = "".join(c.lower() if len(c.lower()) == 1 else c for c in text)
    out = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        out.append((text[i:j], i, j))
        i = j
    return out, lowered


@given(st.one_of(st.text(max_size=40), st.text(alphabet=st.characters(codec="ascii"), max_size=40)))
def test_words_and_lower_match_the_character_loops(text):
    assert (tok._words_with_spans(text), tok._lower(text)) == words_and_lower_by_loop(text)


def test_words_and_lowercase_keep_offsets_outside_ascii():
    # U+0130 lowercases to two characters, so it is kept as is; U+00A0 and U+3000 are whitespace
    text = "Caf\u00e9\u00a0\u0130stanbul\u3000OK"
    lowered = tok._lower(text)
    assert lowered == "caf\u00e9\u00a0\u0130stanbul\u3000ok"
    assert tok._words_with_spans(lowered) == [("caf\u00e9", 0, 4), ("\u0130stanbul", 5, 13), ("ok", 14, 16)]


def test_offset_fidelity(vocab):
    text = "The battery life is GREAT ."
    e = encode(vocab, text)
    for (s, eo), tid in zip(e.offsets, e.ids):
        surface = vocab.tokens[tid]
        if surface == tok.UNK:
            continue
        assert text[s:eo].lower() == surface.removeprefix(tok.CONT)


def test_decode_round_trip(vocab):
    text = "the battery life is great and it charges fast ."
    e = encode(vocab, text)
    assert decode(vocab, e.ids) == " ".join(text.split())


def test_encode_is_deterministic(vocab):
    a = encode(vocab, "the battery is great")
    b = encode(vocab, "the battery is great")
    assert a.ids == b.ids and a.offsets == b.offsets


@settings(max_examples=50, deadline=None)
@given(st.text(alphabet=st.characters(codec="ascii", exclude_categories=("Cc", "Cs")), max_size=60))
def test_encode_total_function_property(text):
    v = build_vocab(REVIEW_SENTENCES, 200)
    e = encode(v, text)
    n_words = len(text.split())
    assert len(e.ids) == len(e.offsets) == len(e.words)
    assert len({w for w in e.words}) <= n_words
    last = (0, 0)
    for s, eo in e.offsets:
        assert s >= last[1] and eo > s  # non-overlapping, non-decreasing
        last = (s, eo)


def test_pack_pair_layout():
    v = Vocabulary(list(SPECIALS) + ["aa", "bb", "cc", "dd", "ee"])
    left = encode(v, "aa bb")
    right = encode(v, "cc dd ee")
    assert len(left.ids) == 2 and len(right.ids) == 3
    p = pack_pair(left, right, 10)
    assert len(p.ids) == 10
    assert p.ids[0] == CLS_ID
    assert p.sep_index == 3
    assert p.ids[3] == SEP_ID and p.ids[7] == SEP_ID
    assert p.end_index == 7
    assert list(p.ids[8:]) == [PAD_ID, PAD_ID]
    assert list(p.segments[:4]) == [0, 0, 0, 0]
    assert list(p.segments[4:8]) == [1, 1, 1, 1]
    assert list(p.pad_mask) == [1] * 8 + [0] * 2


def test_pack_pair_truncates_right_keeps_final_sep(vocab):
    left = encode(vocab, "battery")
    right = encode(vocab, " ".join(["great"] * 50))
    p = pack_pair(left, right, 16)
    assert p.ids[p.end_index] == SEP_ID
    assert p.end_index == 15
    assert int((p.ids == SEP_ID).sum()) == 2


def test_pack_pair_left_too_long_errors(vocab):
    left = encode(vocab, " ".join(["great"] * 20))
    right = encode(vocab, "battery")
    with pytest.raises(ValueError, match="left too long"):
        pack_pair(left, right, len(left.ids))


def test_pack_single_one_sep(vocab):
    e = encode(vocab, "the screen is bright")
    p = pack_single(e, 16)
    assert p.ids[0] == CLS_ID
    assert int((p.ids == SEP_ID).sum()) == 1
    assert p.ids[p.end_index] == SEP_ID
    assert all(p.ids[i] == PAD_ID for i in range(p.end_index + 1, 16))


def test_no_tokens_after_final_sep_property(vocab):
    rng = np.random.default_rng(3)
    texts = REVIEW_SENTENCES
    for _ in range(25):
        l = encode(vocab, texts[rng.integers(len(texts))])
        r = encode(vocab, texts[rng.integers(len(texts))])
        p = pack_pair(l, r, 24)
        assert p.ids[0] == CLS_ID
        after = p.ids[p.end_index + 1 :]
        assert np.all(after == PAD_ID)
        assert int((p.ids == SEP_ID).sum()) == 2


def test_vocab_file_round_trip(tmp_path, vocab):
    path = tmp_path / "vocab.txt"
    save_vocab(vocab, path)
    loaded = load_vocab(path)
    assert loaded.tokens == vocab.tokens
    assert loaded.digest() == vocab.digest()
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[3] == tok.SEP  # line number = id
