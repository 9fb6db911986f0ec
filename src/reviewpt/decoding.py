"""Decode head outputs into task answers.

Span decoding follows the greedy two-stage rule: pick the start over
document positions only, then the end at or after the start.  Special and
pad positions are never eligible, so the answer is always a contiguous
substring of the original document text, recovered through character
offsets rather than detokenization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import POLARITIES, gold_chunks, word_starts
from .tokenizer import PackedInput


@dataclass
class SpanPrediction:
    start: int
    end: int
    text: str
    score: float


def decode_span(l1, l2, packed: PackedInput) -> SpanPrediction:
    """Greedy start-then-end decoding constrained to the document side."""
    l1 = np.asarray(l1)
    l2 = np.asarray(l2)
    lo, hi = packed.doc_start, packed.end_index  # valid positions are [lo, hi)
    if hi <= lo:
        raise ValueError("empty document")
    s = lo + int(np.argmax(l1[lo:hi]))
    e = s + int(np.argmax(l2[s:hi]))
    text = ""
    if packed.doc_offsets is not None and packed.doc_text is not None:
        cs = packed.doc_offsets[s - lo][0]
        ce = packed.doc_offsets[e - lo][1]
        text = packed.doc_text[cs:ce]
    return SpanPrediction(start=s, end=e, text=text, score=float(l1[s] * l2[e]))


def decode_bio(l3, packed: PackedInput) -> list[tuple[int, int]]:
    """Word-level aspect chunks from per-position B/I/O scores.

    ``l3`` is [|x|, 3], as :func:`reviewpt.model.tag_logits` returns one
    row.  Each word takes the argmax label of its FIRST subword token (see
    :func:`reviewpt.data.word_starts`); the labels are chunked by
    :func:`reviewpt.data.gold_chunks`.
    """
    l3 = np.asarray(l3)
    return gold_chunks(["BIO"[int(np.argmax(l3[pos]))] for pos in word_starts(packed)])


def predict_polarity(l4) -> str:
    """Argmax polarity; exact ties resolve in fixed label order."""
    l4 = np.asarray(l4)
    return POLARITIES[int(np.argmax(l4))]
