"""Partitions, bipartitions, Young-diagram statistics and enumeration.

It imports nothing from the package, so the numeric paths load it without
the exact engine `field`; the spectral vectors at the indeterminates are
`macdonald.spectral_vector`."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

__all__ = [
    "Partition",
    "Bipartition",
    "P",
    "partitions_of",
    "partitions_up_to",
    "subpartitions",
]


class Partition:
    """Weakly decreasing sequence of positive integers; trailing zeros dropped."""

    __slots__ = ("parts", "_hash", "_conj")

    def __init__(self, parts=()):
        if isinstance(parts, Partition):
            # a copy: the parts are clean and checked already
            self.parts, self._hash, self._conj = (parts.parts, parts._hash,
                                                  parts._conj)
            return
        if isinstance(parts, int):
            parts = (parts,) if parts else ()
        cleaned = tuple(int(p) for p in parts if p)
        if any(cleaned[i] < cleaned[i + 1] for i in range(len(cleaned) - 1)):
            raise ValueError(f"not weakly decreasing: {parts}")
        if any(p < 0 for p in cleaned):
            raise ValueError(f"negative part in {parts}")
        self.parts = cleaned
        self._hash = hash(cleaned)
        self._conj = None

    # -- basic structure ---------------------------------------------------
    def __len__(self):
        return len(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """1-based part with zero padding: part(i) = lambda_i."""
        if i < 1:
            raise IndexError("parts are 1-based")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if other == 0:
            return not self.parts
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __bool__(self):
        return bool(self.parts)

    def __str__(self):
        return f"({','.join(map(str, self.parts))})" if self.parts else "0"

    __repr__ = __str__

    # -- diagram statistics --------------------------------------------------
    def conjugate(self) -> "Partition":
        """The transposed diagram, built once per partition."""
        if not self.parts:
            return self
        if self._conj is None:
            cols = [0] * self.parts[0]
            for p in self.parts:
                for j in range(p):
                    cols[j] += 1
            self._conj = Partition(cols)
        return self._conj

    def cells(self) -> Iterator[tuple[int, int]]:
        """Young-diagram cells (i, j), 1-based."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def arm(self, i: int, j: int) -> int:
        return self.part(i) - j

    def leg(self, i: int, j: int) -> int:
        return self.conjugate().part(j) - i

    def n_stat(self) -> int:
        """sum (i-1) lambda_i; asserted against the conjugate-binomial form."""
        a = sum((i - 1) * p for i, p in enumerate(self.parts, start=1))
        b = sum(c * (c - 1) // 2 for c in self.conjugate().parts)
        assert a == b
        return a

    # -- orders ----------------------------------------------------------------
    def contains(self, other: "Partition") -> bool:
        other = Partition(other)
        return all(other.part(i) <= self.part(i)
                   for i in range(1, len(other) + 1))

    def dominates(self, other: "Partition") -> bool:
        other = Partition(other)
        if self.size != other.size:
            raise ValueError("dominance requires equal weight")
        run_s = run_o = 0
        for i in range(1, max(len(self), len(other)) + 1):
            run_s += self.part(i)
            run_o += other.part(i)
            if run_s < run_o:
                return False
        return True

    def complement(self, N: int, n: int) -> "Partition":
        """Complement inside the n x N box: (N - lambda_n, ..., N - lambda_1)."""
        if len(self) > n or self.part(1) > N:
            raise ValueError(f"{self} does not fit in ({N}^{n})")
        return Partition(tuple(N - self.part(i) for i in range(n, 0, -1)))


def P(*parts) -> Partition:
    if len(parts) == 1 and isinstance(parts[0], (tuple, list, Partition)):
        return Partition(parts[0])
    return Partition(parts)


class Bipartition(NamedTuple):
    first: Partition
    second: Partition


@lru_cache(maxsize=None)
def _partitions_of(n: int, max_length: int, max_part: int) -> tuple[Partition, ...]:
    if n == 0:
        return (Partition(),)
    if max_length == 0 or max_part == 0:
        return ()
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_of(n - first, max_length - 1, first):
            out.append(Partition((first,) + rest.parts))
    return tuple(out)


def partitions_of(n: int, max_length: int | None = None) -> tuple[Partition, ...]:
    """Partitions of n (length-capped), in decreasing lexicographic order."""
    ml = n if max_length is None else min(max_length, n)
    return _partitions_of(n, ml, n)


def partitions_up_to(max_size: int, max_length: int | None = None) -> Iterator[Partition]:
    """Every partition with |lambda| <= max_size and l(lambda) <= max_length, once."""
    for n in range(max_size + 1):
        yield from partitions_of(n, max_length)


def subpartitions(lam: Partition) -> Iterator[Partition]:
    """All mu contained in lam."""
    lam = Partition(lam)
    if not lam:
        yield Partition()
        return

    def rec(i: int, prev: int, acc: tuple[int, ...]):
        if i > len(lam):
            yield Partition(acc)
            return
        for p in range(min(lam.part(i), prev), -1, -1):
            yield from rec(i + 1, p, acc + (p,))

    yield from rec(1, lam.part(1), ())
