"""Distributed prefix text search over a P-Grid (paper §6 extension).

:class:`PrefixTextIndex` publishes words into the grid's leaf-level index
using the order/prefix-preserving :class:`~repro.text.encoding.TextEncoder`
and answers two query shapes:

* :meth:`lookup` — exact word search via the Fig. 2 depth-first search;
* :meth:`prefix_search` — enumerate indexed words starting with a prefix,
  via the breadth-first search (a short prefix maps to a short key whose
  interval spans many leaves, so multiple responsible peers must be
  visited — exactly the trie behaviour §6 sketches).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.grid import PGrid
from repro.core.peer import Address
from repro.core.search import SearchEngine
from repro.core.storage import DataItem
from repro.core.updates import UpdateEngine
from repro.text.encoding import TextEncoder


@dataclass
class TextSearchResult:
    """Words found for a query plus its message cost."""

    query: str
    words: list[str]
    messages: int
    found: bool


class PrefixTextIndex:
    """Word index over a constructed P-Grid."""

    def __init__(
        self,
        grid: PGrid,
        *,
        key_bits: int | None = None,
    ) -> None:
        self.grid = grid
        self.encoder = TextEncoder()
        self.search = SearchEngine(grid)
        self.updates = UpdateEngine(grid, search=self.search)
        # Keys longer than the deepest peer path are fine (prefix relation
        # still holds), but very long keys waste work; default to a couple
        # of levels past maxl.
        self.key_bits = key_bits if key_bits is not None else (
            grid.config.maxl + 2 * self.encoder.bits_per_char
        )
        if self.key_bits < self.encoder.bits_per_char:
            raise ValueError(
                f"key_bits must fit at least one character "
                f"({self.encoder.bits_per_char} bits), got {self.key_bits}"
            )

    # -- publishing ------------------------------------------------------------

    def word_key(self, word: str) -> str:
        """The binary key a word is indexed under."""
        if not word:
            raise ValueError("cannot index the empty word")
        return self.encoder.encode_truncated(word.lower(), self.key_bits)

    def publish(
        self,
        word: str,
        holder: Address,
        *,
        recbreadth: int = 2,
    ) -> int:
        """Index *word* as provided by *holder*, propagating from the
        holder itself; returns messages spent.

        The word itself travels as the item payload so that truncated keys
        can still be filtered exactly at the leaves.
        """
        key = self.word_key(word)
        # Truncated keys can alias several words at the same holder; the
        # item payload therefore accumulates the full word set for the key.
        existing = self.grid.peer(holder).store.get_item(key)
        words = set(existing.value) if existing is not None else set()
        words.add(word.lower())
        item = DataItem(key=key, value=tuple(sorted(words)))
        return self.updates.publish(holder, item, holder, recbreadth=recbreadth).messages

    def publish_corpus(
        self, words_by_holder: dict[Address, list[str]], *, recbreadth: int = 2
    ) -> int:
        """Publish several holders' word lists; returns total messages."""
        total = 0
        for holder, words in sorted(words_by_holder.items()):
            for word in words:
                total += self.publish(word, holder, recbreadth=recbreadth)
        return total

    # -- queries -----------------------------------------------------------------

    def lookup(self, word: str, *, start: Address) -> TextSearchResult:
        """Exact word lookup via depth-first search."""
        key = self.word_key(word)
        result = self.search.query_from(start, key)
        target = word.lower()
        words = sorted(
            {
                candidate
                for ref in result.data_refs
                for candidate in self._words_of(ref.holder, ref.key)
                if candidate == target
            }
        )
        return TextSearchResult(
            query=word,
            words=words,
            messages=result.messages,
            found=bool(words),
        )

    def prefix_search(
        self, prefix: str, *, start: Address, recbreadth: int = 3
    ) -> TextSearchResult:
        """Enumerate indexed words with the given prefix.

        Uses the breadth-first search so that all leaves under the encoded
        prefix are visited; collected index entries are resolved to words at
        their holders and filtered exactly (truncation can alias words that
        share the truncated prefix).
        """
        if not prefix:
            raise ValueError("prefix must be non-empty")
        key = self.encoder.encode_truncated(prefix.lower(), self.key_bits)
        result = self.search.query_breadth(start, key, recbreadth)
        words: set[str] = set()
        target = prefix.lower()
        for responder in result.responders:
            for ref in self.grid.peer(responder).store.lookup(key):
                for word in self._words_of(ref.holder, ref.key):
                    if word.startswith(target):
                        words.add(word)
        return TextSearchResult(
            query=prefix,
            words=sorted(words),
            messages=result.messages,
            found=bool(words),
        )

    def _words_of(self, holder: Address, key: str) -> tuple[str, ...]:
        """Resolve an index entry to the words stored at its holder."""
        item = self.grid.peer(holder).store.get_item(key)
        if item is None:
            return ()
        if isinstance(item.value, str):
            return (item.value,)
        if isinstance(item.value, (tuple, list)):
            return tuple(word for word in item.value if isinstance(word, str))
        return ()
