"""Fixed command-word vocabulary and text tokenization."""

from __future__ import annotations

import numpy as np

from ffusion.errors import DataError

PAD_ID = 0
UNK_ID = 1
BOS_ID = 2
EOS_ID = 3

SPECIALS = ("<pad>", "<unk>", "<bos>", "<eos>")

# 16 command words: the 12 that occur in the four driving sentences, in
# sentence order, plus 4 reserved words so the id space is stable if the
# sentence set grows.
WORDS = (
    "stop", "ahead", "pedestrian",
    "lane", "clear", "go", "straight",
    "caution", "obstacle", "turn", "left", "right",
    "slow", "yield", "merge", "wait",
)

# Token id i is VOCABULARY[i]. Checkpoints do not record the vocabulary, so
# the text branch's embedding table has one row per entry of this tuple.
VOCABULARY = SPECIALS + WORDS
WORD_IDS = {word: i for i, word in enumerate(VOCABULARY)}


def encode(text: str, length: int) -> np.ndarray:
    """Tokenize to exactly `length` ids: BOS, words, EOS, then PAD.

    Unknown words map to UNK. Empty text is a contract violation; a failed
    text sensor is handled upstream by the health monitor, not here.
    """
    tokens = text.split()
    if not tokens:
        raise DataError("cannot tokenize empty text")
    if len(tokens) > length - 2:
        raise DataError(
            f"text has {len(tokens)} words, limit is {length - 2} after BOS/EOS"
        )
    ids = [BOS_ID] + [WORD_IDS.get(w, UNK_ID) for w in tokens] + [EOS_ID]
    ids.extend([PAD_ID] * (length - len(ids)))
    return np.asarray(ids, dtype=np.int64)
