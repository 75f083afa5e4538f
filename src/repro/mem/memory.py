"""Flat, word-addressable architectural memory.

The simulators use :class:`WordMemory` as the *committed* (safe) state of
the machine.  Speculative values live in caches and overflow areas until
their owning thread commits; only then are they written here.  This is what
lets the test suite check serialisability and TLS sequential semantics: the
final contents of the :class:`WordMemory` must equal those produced by a
reference (serial) execution.

Values default to zero, like real DRAM after initialisation, and the store
is sparse so simulating a 4 GB address space costs memory only for the words
actually touched.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.mem.address import words_of_line


class WordMemory:
    """A sparse map from word address to 32-bit value.

    The memory is deliberately minimal: it has no timing and no notion of
    speculation.  Higher layers (caches, overflow areas, the BDM) provide
    those.
    """

    __slots__ = ("_words",)

    def __init__(self) -> None:
        self._words: Dict[int, int] = {}

    def load(self, word_address: int) -> int:
        """Return the value of a word (0 if never written)."""
        return self._words.get(word_address, 0)

    def store(self, word_address: int, value: int) -> None:
        """Write a word.  Storing 0 still records the word as touched."""
        self._words[word_address] = value & 0xFFFFFFFF

    def load_line(self, line_address: int) -> Tuple[int, ...]:
        """Return the 16 word values of a line, in address order."""
        get = self._words.get
        return tuple([get(w, 0) for w in words_of_line(line_address)])

    def snapshot(self) -> Dict[int, int]:
        """Return a copy of the touched-word map (for state comparison)."""
        return dict(self._words)

    def __len__(self) -> int:
        return len(self._words)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WordMemory):
            return NotImplemented
        return self._nonzero() == other._nonzero()

    def _nonzero(self) -> Dict[int, int]:
        """Touched words with zero-valued entries dropped.

        Two memories are architecturally equal if they agree on every
        word's value, and untouched words read as zero; so equality must
        ignore explicitly stored zeros.
        """
        return {a: v for a, v in self._words.items() if v != 0}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WordMemory({len(self._words)} words touched)"
