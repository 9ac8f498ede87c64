"""Generator words: parsing, printing and evaluation.

Grammar: a word is one or more terms; a term is a base symbol (R, S, T or
-I) with an optional signed integer exponent after "^".  Juxtaposition
means left-to-right matrix product; "*" separators and whitespace are
ignored.  Example: "RS^2RS" = R * S^2 * R * S.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from lgorb.errors import WordParseError
from lgorb.matgroup import GMatrix

_TOKEN = re.compile(r"\s*\*?\s*(-I|[RST])(?:\^(-?\d+))?")


@dataclass(frozen=True)
class GeneratorWord:
    """A product of named generator powers, kept in written order."""

    tokens: tuple[tuple[str, int], ...]

    def __str__(self) -> str:
        return "".join(
            base if exp == 1 else f"{base}^{exp}" for base, exp in self.tokens
        )

    def evaluate(self, matrices: dict[str, GMatrix]) -> GMatrix:
        result = None
        for base, exp in self.tokens:
            if base not in matrices:
                raise WordParseError(f"unknown generator name {base!r}")
            factor = matrices[base] ** exp
            result = factor if result is None else result * factor
        if result is None:
            raise WordParseError("empty word evaluates to nothing")
        return result


def parse_word(text: str) -> GeneratorWord:
    """Parse a generator word; raises WordParseError naming the bad token."""
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise WordParseError(f"unexpected token at position {pos}: {rest[:10]!r}")
        base = match.group(1)
        try:
            exp = int(match.group(2) or 1)
        except ValueError:  # more digits than int() reads
            raise WordParseError(f"exponent at position {match.start(2)} is too long") from None
        tokens.append((base, exp))
        pos = match.end()
    if not tokens:
        raise WordParseError("empty word")
    return GeneratorWord(tuple(tokens))
