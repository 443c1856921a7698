"""WordPiece vocabulary and tokenizer.

Greedy longest-match-first subword splitting with "##" continuation pieces.
A word that cannot be covered becomes a single [UNK]; there is no
lowercasing or other normalization, the corpus is taken as-is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CorpusFormatError, ValidationError

UNK = "[UNK]"
PAD = "[PAD]"
CLS = "[CLS]"
SEP = "[SEP]"

_REQUIRED = (UNK, PAD, CLS, SEP)

# Continuation prefix for non-initial subword pieces.
CONT = "##"


@dataclass(frozen=True)
class Vocabulary:
    """Token table with fixed ids (0-based position in the source list)."""

    tokens: tuple[str, ...]
    ids: dict[str, int]

    @property
    def pad_id(self) -> int:
        return self.ids[PAD]

    @property
    def cls_id(self) -> int:
        return self.ids[CLS]

    @property
    def sep_id(self) -> int:
        return self.ids[SEP]

    def __len__(self) -> int:
        return len(self.tokens)

    @classmethod
    def from_tokens(cls, tokens) -> "Vocabulary":
        tokens = tuple(tokens)
        ids: dict[str, int] = {}
        for i, tok in enumerate(tokens):
            if tok in ids:
                raise ValidationError(f"duplicate vocab token {tok!r} at ids {ids[tok]} and {i}")
            ids[tok] = i
        missing = [t for t in _REQUIRED if t not in ids]
        if missing:
            raise ValidationError(f"vocab is missing required specials: {missing}")
        return cls(tokens=tokens, ids=ids)

    @classmethod
    def from_file(cls, path) -> "Vocabulary":
        """Load a vocab file with one token per line (line number = id)."""
        tokens = []
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                tok = line.rstrip("\n")
                if tok == "":
                    raise CorpusFormatError(path, line_no, "empty vocab line")
                tokens.append(tok)
        try:
            return cls.from_tokens(tokens)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self.tokens:
                fh.write(tok + "\n")


def tokenize_word(word: str, vocab: Vocabulary) -> list[str]:
    """Split one word into pieces, greedy longest-match-first.

    Falls back to a single [UNK] when any position has no matching piece,
    so one word never mixes real pieces with [UNK].
    """
    if word == "":
        raise ValidationError("cannot tokenize an empty word")
    pieces = []
    start = 0
    while start < len(word):
        end = len(word)
        found = None
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = CONT + piece
            if piece in vocab.ids:
                found = piece
                break
            end -= 1
        if found is None:
            return [UNK]
        pieces.append(found)
        start = end
    return pieces


@dataclass(frozen=True)
class TokenizedSentence:
    """A sentence split into subword pieces, aligned back to its words.

    word_index holds the 1-based source-word index of every piece, so all
    pieces of word j share the value j; words themselves are unsplit
    whitespace tokens of the sentence text.
    """

    words: tuple[str, ...]
    pieces: tuple[str, ...]
    piece_ids: tuple[int, ...]
    word_index: tuple[int, ...]

    @property
    def word_count(self) -> int:
        return len(self.words)


def tokenize_sentence(words, vocab: Vocabulary) -> TokenizedSentence:
    """Tokenize a word sequence; every word yields at least one piece."""
    words = tuple(words)
    if not words:
        raise ValidationError("cannot tokenize an empty sentence")
    pieces = []
    word_index = []
    for j, word in enumerate(words, start=1):
        for piece in tokenize_word(word, vocab):
            pieces.append(piece)
            word_index.append(j)
    return TokenizedSentence(
        words=words,
        pieces=tuple(pieces),
        piece_ids=tuple(vocab.ids[p] for p in pieces),
        word_index=tuple(word_index),
    )


def build_vocab(sentences, extra_tokens=()) -> Vocabulary:
    """Build a whole-word vocabulary covering the given sentences.

    Convenience for synthetic corpora and demos: specials first, then every
    distinct word in first-seen order, then extra_tokens. Real experiments
    normally load a subword vocab file instead.
    """
    tokens = list(_REQUIRED)
    seen = set(tokens)
    for words in sentences:
        for word in words:
            if word not in seen:
                seen.add(word)
                tokens.append(word)
    for tok in extra_tokens:
        if tok not in seen:
            seen.add(tok)
            tokens.append(tok)
    return Vocabulary.from_tokens(tokens)
