"""Loaders and generators for the four training-example streams.

Domain-knowledge (DK) examples are synthesized from raw reviews: each pass
splits a review in two, optionally swaps the tail with a different review's
tail, and corrupts 15% of real token positions under the 80/10/10
mask/random/keep rule.  MRC examples come from SQuAD-1.1-format JSON, BIO
tagging examples from word<TAB>label files, and aspect-polarity examples
from JSON lines; each loader validates what it reads and reports what it
drops.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass, replace

import numpy as np

from .tokenizer import (
    CLS_ID,
    MASK_ID,
    PAD_ID,
    SEP_ID,
    Encoding,
    PackedInput,
    Vocabulary,
    _pad,
    encode,
    pack_ids,
    pack_pair,
    pack_single,
)


class DataFormatError(Exception):
    """Raised when an input file violates its documented schema."""


SAME_REVIEW = 0
CROSS_REVIEW = 1
PAIR_LABELS = ("same_review", "cross_review")

POLARITIES = ("positive", "negative", "neutral")
BIO_LABELS = ("B", "I", "O")

MASK_FRACTION = 0.15
MASK_SPLIT = (0.8, 0.1, 0.1)  # [MASK] / random token / keep original


@dataclass
class DkExample:
    packed: PackedInput
    mlm_targets: list[tuple[int, int]]  # (position, original token id)
    pair_label: int


@dataclass
class MrcExample:
    id: str
    question: str
    context: str
    answer_text: str
    answer_char_span: tuple[int, int]
    golds: list[str]
    packed: PackedInput | None = None
    start_token: int = -1
    end_token: int = -1


@dataclass
class BioExample:
    words: list[str]
    labels: list[str]
    packed: PackedInput | None = None
    token_labels: np.ndarray | None = None
    label_mask: np.ndarray | None = None


@dataclass
class AscExample:
    id: str
    term: str
    sentence: str
    polarity: str
    packed: PackedInput | None = None

    @property
    def label(self) -> int:
        return POLARITIES.index(self.polarity)


@dataclass
class LoadReport:
    loaded: int = 0
    rejected: int = 0
    rejected_ids: list[str] | None = None


# -- raw reviews --------------------------------------------------------------


def load_reviews(path, line_mode: bool = False) -> list[str]:
    """One document per blank-line-separated block (or per line)."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise DataFormatError(f"cannot read review corpus {path}: {e}") from e
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    if line_mode:
        docs = [line.strip() for line in text.split("\n")]
    else:
        docs = [" ".join(block.split()) for block in re.split(r"\n\s*\n", text)]
    return [d for d in docs if d]


_SENT_BOUNDARY = re.compile(r"(?<=[.!?])\s+")


def split_sentences(text: str) -> list[str]:
    parts = [p.strip() for p in _SENT_BOUNDARY.split(text)]
    return [p for p in parts if p]


# -- domain-knowledge generation ----------------------------------------------


def _split_two_sides(sent_ids: list[list[int]], rng: np.random.Generator) -> tuple[list[int], list[int]]:
    """Split token sequences at a random sentence boundary, else mid-token."""
    if len(sent_ids) >= 2:
        j = int(rng.integers(1, len(sent_ids)))
        left = [t for s in sent_ids[:j] for t in s]
        right = [t for s in sent_ids[j:] for t in s]
        if left and right:
            return left, right
    flat = [t for s in sent_ids for t in s]
    j = int(rng.integers(1, len(flat)))
    return flat[:j], flat[j:]


def _apply_masking(
    ids: np.ndarray,
    end_index: int,
    vocab_size: int,
    rng: np.random.Generator,
) -> list[tuple[int, int]]:
    """Corrupt real-token positions in place; returns (position, original) pairs."""
    candidates = [
        p
        for p in range(end_index + 1)
        if ids[p] not in (CLS_ID, SEP_ID, PAD_ID)
    ]
    targets: list[tuple[int, int]] = []
    for p in candidates:
        if rng.random() >= MASK_FRACTION:
            continue
        original = int(ids[p])
        targets.append((p, original))
        r = rng.random()
        if r < MASK_SPLIT[0]:
            ids[p] = MASK_ID
        elif r < MASK_SPLIT[0] + MASK_SPLIT[1]:
            # uniform over non-reserved ids so corruption never fakes structure
            ids[p] = int(rng.integers(5, vocab_size))
        # else keep the original token
    return targets


def make_dk_examples(
    reviews: list[str],
    vocab: Vocabulary,
    max_len: int = 320,
    duplicate_factor: int = 5,
    seed: int = 0,
):
    """Yield DK examples; each pass re-splits and re-masks every review.

    Reviews with fewer than 2 tokens are skipped.  The cross-review partner
    is drawn from a different review (by index) and contributes its own
    random tail.
    """
    if len(reviews) < 2:
        raise ValueError("need at least 2 reviews for cross-review pairs")
    if duplicate_factor < 1:
        raise ValueError("duplicate_factor must be >= 1")
    per_review: list[list[list[int]]] = []
    for text in reviews:
        sents = split_sentences(text) or [text]
        per_review.append([encode(vocab, s).ids for s in sents])

    usable = [i for i, sents in enumerate(per_review) if sum(len(s) for s in sents) >= 2]
    if len(usable) < 2:
        raise ValueError("need at least 2 usable reviews (>= 2 tokens each)")

    left_budget = max_len - 4  # keep at least one slot for the second side
    for pass_idx in range(duplicate_factor):
        rng = np.random.default_rng([seed, pass_idx])
        for i in usable:
            left, right = _split_two_sides(per_review[i], rng)
            if rng.random() < 0.5:
                choices = [j for j in usable if j != i]
                partner = int(choices[rng.integers(0, len(choices))])
                _, right = _split_two_sides(per_review[partner], rng)
                label = CROSS_REVIEW
            else:
                label = SAME_REVIEW
            left = left[:left_budget]
            packed = pack_ids(left, right, max_len)
            targets = _apply_masking(packed.ids, packed.end_index, len(vocab), rng)
            yield DkExample(packed=packed, mlm_targets=targets, pair_label=label)


# -- DK shard files ------------------------------------------------------------

DK_MAGIC = b"DKSH"
DK_VERSION = 1


def write_dk_shard(path, examples, seed: int) -> int:
    """Length-prefixed records after a 16-byte header; returns record count."""
    records = []
    for ex in examples:
        payload = json.dumps(
            {
                "ids": ex.packed.ids[: ex.packed.end_index + 1].tolist(),
                "seg": ex.packed.segments[: ex.packed.end_index + 1].tolist(),
                "sep": ex.packed.sep_index,
                "len": len(ex.packed.ids),
                "mlm": [[p, o] for p, o in ex.mlm_targets],
                "pair": ex.pair_label,
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        records.append(payload)
    with open(path, "wb") as f:
        f.write(DK_MAGIC + struct.pack("<III", DK_VERSION, seed & 0xFFFFFFFF, len(records)))
        for payload in records:
            f.write(struct.pack("<I", len(payload)))
            f.write(payload)
    return len(records)


def _read(f, n: int) -> bytes:
    """Exactly ``n`` bytes of ``f``; a shorter read means the file was cut off."""
    data = f.read(n)
    if len(data) != n:
        raise DataFormatError(f"{f.name} is truncated: wanted {n} bytes, got {len(data)}")
    return data


def read_dk_shard(path) -> tuple[list[DkExample], int]:
    """Returns (examples, seed); raises DataFormatError on a bad header or a truncated file."""
    with open(path, "rb") as f:
        head = f.read(16)
        if len(head) != 16 or head[:4] != DK_MAGIC:
            raise DataFormatError(f"{path} is not a DK shard (bad magic)")
        version, seed, count = struct.unpack("<III", head[4:16])
        if version != DK_VERSION:
            raise DataFormatError(f"unsupported DK shard version {version}")
        out = []
        for _ in range(count):
            (n,) = struct.unpack("<I", _read(f, 4))
            rec = json.loads(_read(f, n).decode("utf-8"))
            packed = _pad(rec["ids"], rec["seg"], rec["len"], sep_index=rec["sep"], doc_start=rec["sep"] + 1)
            out.append(
                DkExample(
                    packed=packed,
                    mlm_targets=[(p, o) for p, o in rec["mlm"]],
                    pair_label=rec["pair"],
                )
            )
    return out, seed


# -- MRC (SQuAD 1.1 format) ----------------------------------------------------


def load_mrc(path, report: LoadReport | None = None) -> list[MrcExample]:
    """Parse a SQuAD-1.1 JSON file into (question, first-answer) examples.

    Records whose answer text disagrees with the context slice (or whose
    offset is out of range) are rejected and counted in ``report``.
    """
    try:
        with open(path, encoding="utf-8") as f:
            blob = json.load(f)
    except OSError as e:
        raise DataFormatError(f"cannot read MRC file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise DataFormatError(f"{path} is not valid JSON: {e}") from e
    if report is None:
        report = LoadReport(rejected_ids=[])
    if report.rejected_ids is None:
        report.rejected_ids = []

    def need(d, key, where):
        if key not in d:
            raise DataFormatError(f"missing field {key!r} in {where}")
        return d[key]

    out: list[MrcExample] = []
    for article in need(blob, "data", "top level"):
        for para in need(article, "paragraphs", "article"):
            context = need(para, "context", "paragraph")
            for qa in need(para, "qas", "paragraph"):
                qid = str(need(qa, "id", "qa"))
                question = need(qa, "question", f"qa {qid}")
                answers = need(qa, "answers", f"qa {qid}")
                if not answers:
                    continue
                first = answers[0]
                text = need(first, "text", f"answer of {qid}")
                start = int(need(first, "answer_start", f"answer of {qid}"))
                if start < 0 or start + len(text) > len(context) or context[start : start + len(text)] != text:
                    report.rejected += 1
                    report.rejected_ids.append(qid)
                    continue
                out.append(
                    MrcExample(
                        id=qid,
                        question=question,
                        context=context,
                        answer_text=text,
                        answer_char_span=(start, start + len(text)),
                        golds=[a["text"] for a in answers if "text" in a],
                    )
                )
                report.loaded += 1
    return out


def align_answer(enc: Encoding, char_span: tuple[int, int]) -> tuple[int, int]:
    """Minimal token interval overlapping [start, end); snaps outward."""
    cs, ce = char_span
    hit = [i for i, (s, e) in enumerate(enc.offsets) if s < ce and e > cs]
    if not hit:
        raise ValueError("unalignable span")
    return hit[0], hit[-1]


def encode_mrc(ex: MrcExample, vocab: Vocabulary, max_len: int) -> MrcExample | None:
    """Tokenize and pack one example; None if the answer falls outside the pack."""
    q_enc = encode(vocab, ex.question)
    c_enc = encode(vocab, ex.context)
    try:
        s_tok, e_tok = align_answer(c_enc, ex.answer_char_span)
    except ValueError:
        return None
    packed = pack_pair(q_enc, c_enc, max_len)
    kept = len(packed.doc_offsets)
    if e_tok >= kept:
        return None  # answer truncated away
    return replace(
        ex,
        packed=packed,
        start_token=packed.doc_start + s_tok,
        end_token=packed.doc_start + e_tok,
    )


def span_valid_mask(packed: PackedInput) -> np.ndarray:
    """Positions eligible as answer pointers: the document side only."""
    mask = np.zeros(len(packed.ids), dtype=bool)
    mask[packed.doc_start : packed.end_index] = True
    return mask


# -- BIO tagging -----------------------------------------------------------------


def load_bio(path) -> list[BioExample]:
    """word<TAB>label lines, blank line between sentences; repairs I-after-O."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
    except OSError as e:
        raise DataFormatError(f"cannot read BIO file {path}: {e}") from e
    out: list[BioExample] = []
    words: list[str] = []
    labels: list[str] = []

    def flush():
        if words:
            fixed = []
            prev = "O"
            for lab in labels:
                if lab == "I" and prev == "O":
                    lab = "B"  # illegal I start promoted
                fixed.append(lab)
                prev = lab
            out.append(BioExample(words=list(words), labels=fixed))
            words.clear()
            labels.clear()

    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            flush()
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 2:
            raise DataFormatError(f"{path}:{lineno}: expected word<TAB>label")
        word, label = parts
        if label not in BIO_LABELS:
            raise DataFormatError(f"{path}:{lineno}: unknown label {label!r}")
        words.append(word)
        labels.append(label)
    flush()
    return out


def word_starts(packed: PackedInput) -> list[int]:
    """Position of the first token of each document word, in word order."""
    words = packed.doc_words or []
    return [packed.doc_start + t for t, w in enumerate(words) if t == 0 or w != words[t - 1]]


def encode_bio(ex: BioExample, vocab: Vocabulary, max_len: int) -> BioExample:
    """Pack a sentence; labels sit on word-initial tokens, rest are ignored."""
    enc = encode(vocab, " ".join(ex.words))
    packed = pack_single(enc, max_len)
    n = len(packed.ids)
    token_labels = np.zeros(n, dtype=np.int64)
    label_mask = np.zeros(n, dtype=bool)
    for w_idx, pos in enumerate(word_starts(packed)):
        token_labels[pos] = BIO_LABELS.index(ex.labels[w_idx])
        label_mask[pos] = True
    return replace(ex, packed=packed, token_labels=token_labels, label_mask=label_mask)


def gold_chunks(labels: list[str]) -> list[tuple[int, int]]:
    """Word-index chunks (start, end) inclusive from a B/I/O label sequence."""
    chunks = []
    start = None
    for i, lab in enumerate(labels):
        if lab == "B":
            if start is not None:
                chunks.append((start, i - 1))
            start = i
        elif lab == "I":
            if start is None:
                start = i  # stray leading I starts a chunk
        else:
            if start is not None:
                chunks.append((start, i - 1))
                start = None
    if start is not None:
        chunks.append((start, len(labels) - 1))
    return chunks


# -- aspect sentiment ---------------------------------------------------------------


def load_asc(path) -> list[AscExample]:
    """JSON lines {sentence, term, from, to, polarity}; conflict rows dropped."""
    out: list[AscExample] = []
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        raise DataFormatError(f"cannot read ASC file {path}: {e}") from e
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataFormatError(f"{path}:{lineno}: invalid JSON: {e}") from e
        for key in ("sentence", "term", "polarity"):
            if key not in row:
                raise DataFormatError(f"{path}:{lineno}: missing field {key!r}")
        polarity = row["polarity"]
        if polarity == "conflict":
            continue
        if polarity not in POLARITIES:
            raise DataFormatError(f"{path}:{lineno}: unknown polarity {polarity!r}")
        out.append(
            AscExample(
                id=str(row.get("id", lineno)),
                term=row["term"],
                sentence=row["sentence"],
                polarity=polarity,
            )
        )
    return out


def encode_asc(ex: AscExample, vocab: Vocabulary, max_len: int) -> AscExample:
    packed = pack_pair(encode(vocab, ex.term), encode(vocab, ex.sentence), max_len)
    return replace(ex, packed=packed)
