"""Post-training and fine-tuning toolkit for review comprehension tasks.

A small transformer encoder, trained from scratch at desk scale: joint
post-training on domain reviews (masked-token prediction + cross-review
pair detection) and reading-comprehension data via sub-batch gradient
accumulation, then per-task fine-tuning heads for extractive span answers,
aspect extraction, and aspect sentiment classification.
"""

from .autograd import (
    Tensor,
    cross_entropy,
    dropout,
    gelu,
    layer_norm,
    matmul,
    no_grad,
    softmax_rows,
)
from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .data import (
    AscExample,
    BioExample,
    DataFormatError,
    DkExample,
    MrcExample,
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
from .decoding import SpanPrediction, decode_bio, decode_span, predict_polarity
from .metrics import EvalReport, acc_macro_f1, chunk_f1, em_f1, normalize_answer, squad_eval
from .model import (
    ModelConfig,
    ModelParameters,
    class_logits,
    encode_batch,
    init_parameters,
    preset_config,
    span_logits,
    tag_logits,
)
from .optim import AdamState, adam_step
from .tokenizer import (
    Encoding,
    PackedInput,
    Vocabulary,
    build_vocab,
    decode,
    encode,
    load_vocab,
    pack_pair,
    pack_single,
    save_vocab,
)
from .training import (
    FineTuneConfig,
    NumericError,
    PostTrainConfig,
    dk_loss,
    evaluate_task,
    finetune,
    mrc_loss,
    posttrain_run,
    posttrain_step,
)

__version__ = "0.1.0"
