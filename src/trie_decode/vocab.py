"""Token inventory and deterministic text <-> token conversion.

Seven special tokens occupy fixed ids 0..6: start/end of sequence, the four
markup delimiters, and unknown.  A vocabulary may additionally register
*extra* reserved specials (e.g. mention-flagging markers), which occupy the
ids directly after the core specials.  Ordinary tokens follow, so in a
vocabulary file the token on 1-based line ``n`` has id ``n + 6`` when no
extra specials are registered.

Encoding splits on whitespace and then applies greedy longest-match against
the ordinary token table inside each word; characters that match nothing
become a single ``UNK`` each.  Specials are never produced from raw text.
Decoding joins token strings with single spaces, so ``decode(encode(t)) == t``
whenever every whitespace-separated word of ``t`` is itself an ordinary
vocabulary token.
"""

from __future__ import annotations

import codecs
import io
from typing import Iterable, Iterator, NamedTuple, Sequence

TokenId = int

SOS: TokenId = 0
EOS: TokenId = 1
MENTION_OPEN: TokenId = 2
MENTION_CLOSE: TokenId = 3
LINK_OPEN: TokenId = 4
LINK_CLOSE: TokenId = 5
UNK: TokenId = 6

# bytes :func:`read_lines` reads from a path at a time: smaller chunks cost more
# calls, larger ones hold more text at once
_CHUNK_BYTES = 1 << 16

CORE_SPECIAL_STRINGS: tuple[str, ...] = ("<s>", "</s>", "[", "]", "(", ")", "<unk>")
NUM_CORE_SPECIALS: int = len(CORE_SPECIAL_STRINGS)


class InputError(ValueError):
    """A bad input; ``line`` is the 1-based line of its file, when it came from one."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class VocabularyError(InputError):
    """Raised for malformed vocabularies or undecodable token ids."""


class TokenSpan(NamedTuple):
    """A token together with its character extent in the encoded text."""

    token: TokenId
    start: int
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length


class Vocabulary:
    """Immutable token inventory.

    Safe for concurrent readers: all state is fixed at construction.

    Args:
        tokens: ordinary token strings, in id order; a refused one's error
            gives its 1-based place as its ``line``, as in a vocabulary file.
        extra_specials: reserved strings given ids ``7 .. 7+len-1``; like the
            core specials they are never produced by :func:`encode`.
    """

    __slots__ = ("tokens", "extra_specials", "_table", "_strings", "_max_len")

    def __init__(self, tokens: Iterable[str], extra_specials: Iterable[str] = ()) -> None:
        toks = tuple(tokens)
        extras = tuple(extra_specials)
        reserved = set(CORE_SPECIAL_STRINGS)
        for s in extras:
            self._check_token_string(s, kind="extra special")
            if s in reserved:
                raise VocabularyError(f"duplicate special string: {s!r}")
            reserved.add(s)
        seen: set[str] = set()
        for place, t in enumerate(toks, start=1):
            self._check_token_string(t, "token", place)
            if t in reserved or t in seen:
                raise VocabularyError(f"duplicate token string: {t!r}", place)
            seen.add(t)
        self.tokens = toks
        self.extra_specials = extras
        base = NUM_CORE_SPECIALS + len(extras)
        self._table = {t: base + i for i, t in enumerate(toks)}
        self._strings = dict(enumerate(CORE_SPECIAL_STRINGS + extras + toks))
        self._max_len = max((len(t) for t in toks), default=0)

    @staticmethod
    def _check_token_string(s: str, kind: str, place: int | None = None) -> None:
        if not s:
            raise VocabularyError(f"empty {kind} string", place)
        if any(c.isspace() for c in s):
            raise VocabularyError(f"{kind} string contains whitespace: {s!r}", place)

    @property
    def size(self) -> int:
        """Total id count, specials included."""
        return len(self._strings)

    @property
    def ordinary_base(self) -> TokenId:
        """Id of the first ordinary token."""
        return NUM_CORE_SPECIALS + len(self.extra_specials)

    def ordinary_id(self, token: str) -> TokenId:
        try:
            return self._table[token]
        except KeyError:
            raise VocabularyError(f"not an ordinary vocabulary token: {token!r}") from None

    def extra_special_id(self, special: str) -> TokenId:
        try:
            return NUM_CORE_SPECIALS + self.extra_specials.index(special)
        except ValueError:
            raise VocabularyError(f"not a registered extra special: {special!r}") from None

    def string_of(self, token_id: TokenId) -> str:
        if not 0 <= token_id < len(self._strings):
            raise VocabularyError(f"token id out of range: {token_id}")
        return self._strings[token_id]

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self.tokens == other.tokens and self.extra_specials == other.extra_specials

    def __hash__(self) -> int:
        return hash((self.tokens, self.extra_specials))

    def __repr__(self) -> str:
        return f"Vocabulary({len(self.tokens)} tokens, extra_specials={self.extra_specials!r})"


def encode(text: str, vocab: Vocabulary) -> list[TokenId]:
    """Deterministic, total encoding of ``text`` to token ids.

    Greedy longest-match inside each whitespace word; an unmatched character
    becomes one UNK.  A word that is itself a token is looked up once: it is
    no longer than the longest token, so greedy matching would take it whole
    at its first probe.
    """
    table = vocab._table
    max_len = vocab._max_len
    out: list[TokenId] = []
    for word in text.split():
        tid = table.get(word)
        if tid is not None:
            out.append(tid)
            continue
        i, n = 0, len(word)
        while i < n:
            for length in range(min(max_len, n - i), 0, -1):
                tid = table.get(word[i : i + length])
                if tid is not None:
                    out.append(tid)
                    i += length
                    break
            else:
                out.append(UNK)
                i += 1
    return out


def encode_with_offsets(text: str, vocab: Vocabulary) -> list[TokenSpan]:
    """The ids of :func:`encode`, each with its character extent in ``text``.

    Each id spans its string's length, and UNK one character; the extents
    follow one another through ``text``, skipping the whitespace that
    ``str.split`` cuts on (``str.isspace`` agrees with it).
    """
    strings = vocab._strings
    out: list[TokenSpan] = []
    pos = 0
    for tid in encode(text, vocab):
        while text[pos].isspace():
            pos += 1
        length = 1 if tid == UNK else len(strings[tid])
        out.append(TokenSpan(tid, pos, length))
        pos += length
    return out


def decode(tokens: Sequence[TokenId], vocab: Vocabulary) -> str:
    """Join token strings with single spaces.

    Raises:
        VocabularyError: if any id is out of range (corrupt sequence).
    """
    try:
        return " ".join(map(vocab._strings.__getitem__, tokens))
    except KeyError as exc:
        raise VocabularyError(f"token id out of range: {exc.args[0]}") from None


def read_lines(source: str | Iterable[str]) -> Iterator[str]:
    r"""Lines of the UTF-8 file at path ``source``, or of an iterable of lines, without newlines.

    A path is read as a text-mode handle iterates: ``\n``, ``\r\n`` and ``\r`` end a line, and every
    other separator (``\f``, ``\x1c``, U+2028, ...) stays inside its line.  It is read
    ``_CHUNK_BYTES`` at a time, so no whole file is held.  A path that is not UTF-8 yields
    every line before its first bad byte, then raises :class:`InputError` naming the path and
    that byte's line: an earlier line a caller refuses is named first.
    """
    if isinstance(source, str):
        return _path_lines(source)
    return (line.rstrip("\n") for line in source)


def _path_lines(path: str) -> Iterator[str]:
    """The lines of :func:`read_lines` for a path: each chunk is decoded, its line ends made newlines, then cut."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    newlines = io.IncrementalNewlineDecoder(None, translate=True)  # holds back a \r that may open a \r\n
    part: list[str] = []  # the pieces read of the line not yet ended: joined once, however many chunks
    count = 0  # the lines yielded
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_CHUNK_BYTES)
            try:
                text, error = decoder.decode(chunk, final=not chunk), None
            except UnicodeDecodeError as exc:  # the text before the bad byte decodes, and is the last
                text, error, chunk = exc.object[: exc.start].decode(), exc, b""
            text = newlines.decode(text, final=not chunk)
            lines = text.split("\n")
            if len(lines) > 1:
                lines[0] = "".join([*part, lines[0]])
                part = []
            part.append(lines.pop())
            count += len(lines)
            yield from lines
            if error is not None:
                bad = error.object[error.start]
                raise InputError(f"{path}:{count + 1}: not UTF-8 (can't decode byte {bad:#04x}: {error.reason})")
            if not chunk:
                break
    last = "".join(part)
    if last:  # the last line, without a newline
        yield last


def read_rows(source: str | Iterable[str]) -> Iterator[tuple[int, str]]:
    """``(1-based line number, line)`` for each non-blank line of :func:`read_lines`."""
    for lineno, line in enumerate(read_lines(source), start=1):
        if line and not line.isspace():  # the rule of str.strip, with no copy
            yield lineno, line


def load_vocabulary(source: str | Iterable[str], extra_specials: Iterable[str] = ()) -> Vocabulary:
    """Build a vocabulary from a file path or an iterable of lines.

    One ordinary token per line, UTF-8; specials are implicit and not listed.
    A blank line is an error, not skipped as by :func:`read_rows`: ids follow line positions.
    The tokens are checked once every line is read, so a bad byte anywhere is named first,
    and then the first refused token, with its line.
    """
    return Vocabulary([raw.strip() for raw in read_lines(source)], extra_specials)
