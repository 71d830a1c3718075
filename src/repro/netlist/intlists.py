"""Lists of int lists, held flat.

The compiled slot program's reader lists (gate indices per slot) and a
collapsed fault set's classes (fault indices per class) are thousands
of short int lists.  Held as Python lists they are thousands of objects
the cyclic garbage collector tracks and rescans for as long as the
program lives.  :class:`IntLists` keeps them as one flat list and one
offset list - two tracked objects however many lists there are - and
hands out each list on demand.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate
from typing import Iterable, Iterator, List

__all__ = ["IntLists"]


class IntLists(Sequence):
    """``lists[k]`` is a fresh list of the ints of list ``k``.

    Compares equal to any sequence of int sequences with the same
    contents, so a plain list of lists can stand in for one.
    """

    __slots__ = ("_flat", "_starts")

    def __init__(self, flat: List[int], starts: List[int]):
        self._flat = flat
        self._starts = starts

    @classmethod
    def grouped(cls, keys: Sequence, values: Sequence, count: int) -> "IntLists":
        """``count`` lists; list ``k`` holds every ``values[i]`` with
        ``keys[i] == k``, in the order they appear."""
        order = sorted(range(len(keys)), key=keys.__getitem__)
        sizes = [0] * count
        for key in keys:
            sizes[key] += 1
        return cls([values[i] for i in order], list(accumulate(sizes, initial=0)))

    @classmethod
    def of(cls, lists: Iterable[Sequence[int]]) -> "IntLists":
        """The same lists, held flat."""
        lists = [list(ints) for ints in lists]
        flat = [value for ints in lists for value in ints]
        return cls(flat, list(accumulate(map(len, lists), initial=0)))

    def __len__(self) -> int:
        return len(self._starts) - 1

    def __getitem__(self, index: int) -> List[int]:
        starts = self._starts
        if index < 0:
            index += len(starts) - 1
        if not 0 <= index < len(starts) - 1:
            raise IndexError("list index out of range")
        return self._flat[starts[index]:starts[index + 1]]

    def __iter__(self) -> Iterator[List[int]]:
        flat, starts = self._flat, self._starts
        for index in range(len(starts) - 1):
            yield flat[starts[index]:starts[index + 1]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or len(other) != len(self):
            return False
        return all(mine == list(theirs) for mine, theirs in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def sizes(self) -> List[int]:
        """The length of every list."""
        starts = self._starts
        return [end - start for start, end in zip(starts, starts[1:])]

    def size(self, index: int) -> int:
        """The length of list ``index``."""
        return self._starts[index + 1] - self._starts[index]

    def __repr__(self) -> str:
        return f"IntLists({list(self)!r})"
