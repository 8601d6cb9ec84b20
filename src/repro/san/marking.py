"""Markings of a stochastic activity network.

A *marking* assigns a non-negative token count to every place.  The
engine stores markings as immutable tuples (hashable, usable as state
identifiers), while gate predicates and functions receive a
:class:`MarkingView` -- a small mutable mapping keyed by place name --
so model code reads naturally::

    def predicate(m):
        return m["active"] <= eta and m["pending"] == 0

    def function(m):
        m["active"] = 14
        m["spares"] = 2
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

from repro.errors import ModelError

__all__ = ["PlaceIndex", "Marking", "MarkingView"]


class PlaceIndex:
    """Bidirectional mapping between place names and tuple positions."""

    def __init__(self, names: Iterable[str]):
        self._names: Tuple[str, ...] = tuple(names)
        if len(set(self._names)) != len(self._names):
            raise ModelError(f"duplicate place names: {self._names}")
        self._index: Dict[str, int] = {n: i for i, n in enumerate(self._names)}

    @property
    def names(self) -> Tuple[str, ...]:
        """Place names in tuple order."""
        return self._names

    def __len__(self) -> int:
        return len(self._names)

    def position(self, name: str) -> int:
        """Tuple position of the place called ``name``."""
        try:
            return self._index[name]
        except KeyError:
            raise ModelError(f"unknown place {name!r}; places are {self._names}")

    def positions(self, names: Iterable[str]) -> Tuple[int, ...]:
        """Tuple positions of several places, resolved once (gate code
        that reads many places per marking should index
        :meth:`MarkingView.freeze` with these instead of looking each
        name up on every call)."""
        return tuple(self.position(name) for name in names)

    def __contains__(self, name: str) -> bool:
        return name in self._index


Marking = Tuple[int, ...]
"""An immutable marking: token counts in :class:`PlaceIndex` order."""


class MarkingView:
    """Mutable, name-keyed view of a marking used inside gate code."""

    __slots__ = ("_places", "_index", "_tokens")

    def __init__(self, places: PlaceIndex, marking: Sequence[int]):
        self._places = places
        self._index = places._index
        self._tokens = list(marking)

    def __getitem__(self, place: str) -> int:
        try:
            position = self._index[place]
        except KeyError:
            position = self._places.position(place)  # raises ModelError
        return self._tokens[position]

    def __setitem__(self, place: str, tokens: int) -> None:
        if tokens != int(tokens) or tokens < 0:
            raise ModelError(
                f"place {place!r} assigned invalid token count {tokens!r}"
            )
        self._tokens[self._places.position(place)] = int(tokens)

    def __contains__(self, place: str) -> bool:
        return place in self._places

    def add(self, place: str, tokens: int = 1) -> None:
        """Add ``tokens`` to ``place`` (may be negative, but the result
        must stay non-negative)."""
        self[place] = self[place] + tokens

    def remove(self, place: str, tokens: int = 1) -> None:
        """Remove ``tokens`` from ``place``."""
        self.add(place, -tokens)

    def freeze(self) -> Marking:
        """Immutable snapshot of the current token counts."""
        return tuple(self._tokens)

    def as_dict(self) -> Dict[str, int]:
        """Name-keyed copy (for debugging and reports)."""
        return {name: self._tokens[i] for i, name in enumerate(self._places.names)}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"MarkingView({inner})"
