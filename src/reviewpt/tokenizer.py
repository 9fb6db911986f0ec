"""Subword vocabulary construction, greedy segmentation, and input packing.

The vocabulary is learned from a corpus by iterative pair merging over
within-word character pieces; continuation pieces carry a ``##`` prefix.
Segmentation is greedy longest-match per whitespace word with per-character
fallback, and every token remembers the character span it came from so that
extracted answers can be read back out of the original text.

All ids are dense; the five reserved tokens occupy ids 0-4 in a fixed order
so checkpoints stay stable across vocabulary rebuilds.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIALS = (PAD, UNK, CLS, SEP, MASK)
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)
CONT = "##"
_WORD = re.compile(r"\S+")


@dataclass
class Vocabulary:
    tokens: list[str]
    id_of: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.id_of = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self):
        return len(self.tokens)

    def digest(self) -> bytes:
        """32-byte fingerprint of the exact token list (file-format bytes)."""
        return hashlib.sha256(("\n".join(self.tokens) + "\n").encode("utf-8")).digest()


@dataclass
class Encoding:
    """Token ids plus, per token, the source char span and source word index."""

    ids: list[int]
    offsets: list[tuple[int, int]]
    words: list[int]
    text: str

    def __len__(self):
        return len(self.ids)


@dataclass
class PackedInput:
    """A model-ready sequence: [CLS] left [SEP] (right [SEP]) padded to max_len.

    Padding to ``max_len`` is how inputs are stored, not how they are run:
    a batch is collated at ``[: end_index + 1]`` of its longest example, so
    the encoder never sees a position that is padding in every row.

    ``sep_index`` is the position of the first [SEP]; ``end_index`` the final
    one, so ``end_index + 1 == pad_mask.sum()``.  Document tokens (the
    span-extraction side) live at positions ``doc_start .. end_index-1`` and,
    when the packing came from an Encoding, keep their char offsets / word
    indices into ``doc_text``.
    """

    ids: np.ndarray
    segments: np.ndarray
    pad_mask: np.ndarray
    sep_index: int
    end_index: int
    doc_start: int
    doc_offsets: list[tuple[int, int]] | None = None
    doc_words: list[int] | None = None
    doc_text: str | None = None


def _lower(text: str) -> str:
    # length-preserving lowercase so char offsets stay valid
    if text.isascii():
        return text.lower()
    return "".join(c.lower() if len(c.lower()) == 1 else c for c in text)


def _words_with_spans(text: str):
    """Whitespace words of ``text`` with their (start, end) char spans.

    Words split where ``str.isspace`` is true: the regex whitespace class
    matches exactly those code points.
    """
    return [(m.group(), m.start(), m.end()) for m in _WORD.finditer(text)]


def build_vocab(corpus, target_size: int) -> Vocabulary:
    """Learn a subword vocabulary of ``target_size`` entries from documents.

    Starts from the five specials plus every observed single character in
    its positional role (word-initial piece or ``##`` continuation piece),
    then repeatedly merges the most frequent adjacent pair until the target
    size is reached or no pair occurs at least twice.
    """
    word_freq: Counter[str] = Counter()
    for doc in corpus:
        for w, _, _ in _words_with_spans(_lower(doc)):
            word_freq[w] += 1
    if not word_freq:
        raise ValueError("empty corpus")

    alphabet: set[str] = set()
    for w in word_freq:
        alphabet.add(w[0])
        alphabet.update(CONT + c for c in w[1:])
    base = list(SPECIALS) + sorted(alphabet)
    if target_size < len(base):
        raise ValueError(
            f"target_size {target_size} is below the {len(base)} entries needed "
            "for specials plus observed single characters"
        )

    # word -> list of current pieces; merge bookkeeping is incremental
    seqs: dict[str, list[str]] = {
        w: [w[0]] + [CONT + c for c in w[1:]] for w in word_freq
    }
    pair_counts: Counter[tuple[str, str]] = Counter()
    pair_words: dict[tuple[str, str], set[str]] = {}
    for w, seq in seqs.items():
        f = word_freq[w]
        for pair in zip(seq, seq[1:]):
            pair_counts[pair] += f
            pair_words.setdefault(pair, set()).add(w)

    def merged_surface(a: str, b: str) -> str:
        return a + b[len(CONT):]

    tokens = list(base)
    known = set(tokens)
    while len(tokens) < target_size and pair_counts:
        freq = max(pair_counts.values())
        if freq < 2:
            break
        # the most frequent pair; ties go to the largest pair
        a, b = max(pair for pair, count in pair_counts.items() if count == freq)
        new = merged_surface(a, b)
        touched = list(pair_words.get((a, b), ()))
        for w in touched:
            seq = seqs[w]
            f = word_freq[w]
            for pair in zip(seq, seq[1:]):
                pair_counts[pair] -= f
                if pair_counts[pair] <= 0:
                    del pair_counts[pair]
                ws = pair_words.get(pair)
                if ws is not None:
                    ws.discard(w)
            merged = []
            i = 0
            while i < len(seq):
                if i + 1 < len(seq) and seq[i] == a and seq[i + 1] == b:
                    merged.append(new)
                    i += 2
                else:
                    merged.append(seq[i])
                    i += 1
            seqs[w] = merged
            for pair in zip(merged, merged[1:]):
                pair_counts[pair] += f
                pair_words.setdefault(pair, set()).add(w)
        if new not in known:
            tokens.append(new)
            known.add(new)
    return Vocabulary(tokens)


def encode(vocab: Vocabulary, text: str) -> Encoding:
    """Greedy longest-match segmentation of ``text``.

    A word no prefix of which matches any piece becomes a single [UNK]
    covering the whole word.  Offsets index the ORIGINAL text; matching is
    done on a length-preserving lowercased copy.
    """
    lowered = _lower(text)
    ids: list[int] = []
    offsets: list[tuple[int, int]] = []
    words: list[int] = []
    for wi, (word, start, _end) in enumerate(_words_with_spans(lowered)):
        pieces: list[tuple[int, int, int]] = []  # (id, rel_start, rel_end)
        pos = 0
        ok = True
        while pos < len(word):
            end = len(word)
            match = None
            while pos < end:
                cand = word[pos:end] if pos == 0 else CONT + word[pos:end]
                tid = vocab.id_of.get(cand)
                if tid is not None:
                    match = (tid, pos, end)
                    break
                end -= 1
            if match is None:
                ok = False
                break
            pieces.append(match)
            pos = match[2]
        if ok:
            for tid, s, e in pieces:
                ids.append(tid)
                offsets.append((start + s, start + e))
                words.append(wi)
        else:
            ids.append(UNK_ID)
            offsets.append((start, start + len(word)))
            words.append(wi)
    return Encoding(ids=ids, offsets=offsets, words=words, text=text)


def decode(vocab: Vocabulary, ids) -> str:
    """Invert :func:`encode` up to whitespace normalization, case, and [UNK]."""
    parts: list[str] = []
    for tid in ids:
        tok = vocab.tokens[int(tid)]
        if tok == PAD:
            continue
        if tok.startswith(CONT):
            if parts:
                parts[-1] += tok[len(CONT):]
            else:
                parts.append(tok[len(CONT):])
        else:
            parts.append(tok)
    return " ".join(parts)


def _pad(ids: list[int], segments: list[int], max_len: int, **fields) -> PackedInput:
    """The real ``ids`` and ``segments`` padded to ``max_len``; ``pad_mask`` marks the real positions."""
    n = len(ids)
    if n > max_len:
        raise ValueError(f"{n} tokens do not fit max_len {max_len}")
    pad = max_len - n
    ids_arr = np.array(ids + [PAD_ID] * pad, dtype=np.int64)
    seg_arr = np.array(segments + [0] * pad, dtype=np.int64)
    mask = np.zeros(max_len, dtype=np.int64)
    mask[:n] = 1
    return PackedInput(ids=ids_arr, segments=seg_arr, pad_mask=mask, end_index=n - 1, **fields)


def pack_ids(left_ids, right_ids, max_len: int) -> PackedInput:
    """Assemble [CLS] left [SEP] right [SEP], truncating the right side to fit."""
    left_ids = list(left_ids)
    if len(left_ids) + 3 > max_len:
        raise ValueError("left too long")
    kept = list(right_ids)[: max_len - 3 - len(left_ids)]
    sep_index = 1 + len(left_ids)
    return _pad(
        [CLS_ID] + left_ids + [SEP_ID] + kept + [SEP_ID],
        [0] * (sep_index + 1) + [1] * (len(kept) + 1),
        max_len,
        sep_index=sep_index,
        doc_start=sep_index + 1,
    )


def pack_pair(left: Encoding, right: Encoding, max_len: int) -> PackedInput:
    """Pack a (question/aspect, document) pair; only the right side truncates."""
    packed = pack_ids(left.ids, right.ids, max_len)
    kept = packed.end_index - packed.doc_start
    packed.doc_offsets = right.offsets[:kept]
    packed.doc_words = right.words[:kept]
    packed.doc_text = right.text
    return packed


def pack_single(enc: Encoding, max_len: int) -> PackedInput:
    """Pack a single sentence as [CLS] x [SEP] (sequence-labeling mode)."""
    if max_len < 3:
        raise ValueError("max_len too small")
    kept = min(len(enc.ids), max_len - 2)
    return _pad(
        [CLS_ID] + list(enc.ids[:kept]) + [SEP_ID],
        [0] * (kept + 2),
        max_len,
        sep_index=kept + 1,
        doc_start=1,
        doc_offsets=enc.offsets[:kept],
        doc_words=enc.words[:kept],
        doc_text=enc.text,
    )


def save_vocab(vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for t in vocab.tokens:
            f.write(t + "\n")


def load_vocab(path) -> Vocabulary:
    with open(path, encoding="utf-8") as f:
        tokens = [line.rstrip("\n") for line in f if line.rstrip("\n")]
    if tokens[:5] != list(SPECIALS):
        raise ValueError(f"vocabulary file {path} does not start with the reserved tokens")
    return Vocabulary(tokens)
