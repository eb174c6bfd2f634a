"""Fixed command-word vocabulary and text tokenization."""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Vocab:
    """Bijective word <-> id map over 4 specials + 16 command words."""

    words: tuple = field(default=SPECIALS + WORDS)

    def __post_init__(self):
        if len(self.words) != len(set(self.words)):
            raise DataError("vocabulary contains duplicate words")
        if self.words[:4] != SPECIALS:
            raise DataError(f"vocabulary must start with the specials {SPECIALS}")
        if any((not w) or w != w.strip() or " " in w for w in self.words):
            raise DataError("vocabulary words must be non-empty and whitespace-free")

    @property
    def size(self) -> int:
        return len(self.words)

    def word_to_id(self, word: str) -> int:
        try:
            return self.words.index(word)
        except ValueError:
            return UNK_ID

    def encode(self, text: str, length: int) -> np.ndarray:
        """Tokenize to exactly `length` ids: BOS, words, EOS, then PAD.

        Unknown words map to UNK. Empty text is a contract violation; a
        failed text sensor is handled upstream by the health monitor, not
        here.
        """
        tokens = text.split()
        if not tokens:
            raise DataError("cannot tokenize empty text")
        if len(tokens) > length - 2:
            raise DataError(
                f"text has {len(tokens)} words, limit is {length - 2} after BOS/EOS"
            )
        ids = [BOS_ID] + [self.word_to_id(w) for w in tokens] + [EOS_ID]
        ids.extend([PAD_ID] * (length - len(ids)))
        return np.asarray(ids, dtype=np.int64)


DEFAULT_VOCAB = Vocab()
