"""Partitions, bipartitions, Young-diagram statistics and spectral vectors."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from .field import fe

__all__ = [
    "Partition",
    "Bipartition",
    "P",
    "partitions_of",
    "partitions_up_to",
    "subpartitions",
    "spectral_vector",
    "bipartite_spectral_vector",
]


class Partition:
    """Weakly decreasing sequence of positive integers; trailing zeros dropped."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts=()):
        if isinstance(parts, Partition):
            parts = parts.parts
        elif isinstance(parts, int):
            parts = (parts,) if parts else ()
        cleaned = tuple(int(p) for p in parts if p)
        if any(cleaned[i] < cleaned[i + 1] for i in range(len(cleaned) - 1)):
            raise ValueError(f"not weakly decreasing: {parts}")
        if any(p < 0 for p in cleaned):
            raise ValueError(f"negative part in {parts}")
        self.parts = cleaned
        self._hash = hash(cleaned)

    # -- basic structure ---------------------------------------------------
    def __len__(self):
        return len(self.parts)

    @property
    def length(self) -> int:
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

    def __lt__(self, other):  # lexicographic; refines dominance
        return self.parts < Partition(other).parts

    def __bool__(self):
        return bool(self.parts)

    def __str__(self):
        return f"({','.join(map(str, self.parts))})" if self.parts else "0"

    __repr__ = __str__

    # -- diagram statistics --------------------------------------------------
    def conjugate(self) -> "Partition":
        if not self.parts:
            return self
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def cells(self) -> Iterator[tuple[int, int]]:
        """Young-diagram cells (i, j), 1-based."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def arm(self, i: int, j: int) -> int:
        return self.part(i) - j

    def leg(self, i: int, j: int) -> int:
        return self.conjugate().part(j) - i

    def arm_leg(self, i: int, j: int) -> tuple[int, int, int, int]:
        """(arm, leg, arm-colength, leg-colength) of cell (i, j), generalised."""
        return (self.arm(i, j), self.leg(i, j), j - 1, i - 1)

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

    @property
    def size(self) -> int:
        return self.first.size + self.second.size

    def contains(self, other: "Bipartition") -> bool:
        return self.first.contains(other.first) and self.second.contains(other.second)

    def __str__(self):
        return f"[{self.first},{self.second}]"


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


def spectral_vector(lam: Partition, n: int, q=None, t=None) -> list:
    """The point (q^{lambda_i} t^{n-i})_{i=1..n}; symbolic if q, t omitted."""
    lam = Partition(lam)
    if len(lam) > n:
        raise ValueError(f"l({lam}) > {n}")
    if q is None:
        q = fe("q")
    if t is None:
        t = fe("t")
    return [q ** lam.part(i) * t ** (n - i) for i in range(1, n + 1)]


def bipartite_spectral_vector(blam: Bipartition, n: int, q=None, p=None, t=None) -> list:
    """Entries q^{lam1_i} p^{lam2_i} t^{n-i} for the bipartition (lam1, lam2)."""
    lam1, lam2 = Partition(blam.first), Partition(blam.second)
    if len(lam1) > n or len(lam2) > n:
        raise ValueError("component length exceeds n")
    if q is None:
        q = fe("q")
    if p is None:
        p = fe("p")
    if t is None:
        t = fe("t")
    return [q ** lam1.part(i) * p ** lam2.part(i) * t ** (n - i)
            for i in range(1, n + 1)]
