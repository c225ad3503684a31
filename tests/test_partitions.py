import pytest

from oracles import bipartite_spectral_vector
from selbergkit.field import fe, var
from selbergkit.macdonald import spectral_vector
from selbergkit.partitions import (
    Bipartition, P, Partition, partitions_of, partitions_up_to, subpartitions,
)


def test_conjugate_paper_example():
    assert P(6, 4, 3, 1, 1).conjugate() == P(5, 3, 3, 2, 1, 1)


def test_conjugate_edge_cases():
    assert P().conjugate() == P()
    assert P(3).conjugate() == P(1, 1, 1)


def test_conjugate_involution():
    for lam in partitions_up_to(10):
        assert lam.conjugate().conjugate() == lam


def test_arm_leg():
    lam = P(6, 4, 3, 1, 1)
    assert (lam.arm(1, 1), lam.leg(1, 1)) == (5, 4)
    # generalised to cells outside the diagram
    assert (P(2, 1).arm(2, 2), P(2, 1).leg(2, 2)) == (-1, -1)
    assert (P(3, 1).arm(1, 2), P(3, 1).leg(1, 2)) == (1, 0)


def test_n_stat():
    assert P(3, 1).n_stat() == 1
    assert P().n_stat() == 0
    assert P(2, 2, 1).n_stat() == 4


def test_n_stat_three_forms_agree():
    # n(lam) also equals the sum of leg-colengths over all cells
    for lam in partitions_up_to(8):
        by_cells = sum(i - 1 for (i, j) in lam.cells())
        assert lam.n_stat() == by_cells


def test_enumerate_small():
    assert [str(x) for x in partitions_up_to(2, 2)] == ["0", "(1)", "(2)", "(1,1)"]
    assert list(partitions_up_to(0, 5)) == [P()]
    assert len(list(partitions_up_to(6, 6))) == 30


def test_enumerate_no_duplicates():
    seen = list(partitions_up_to(7))
    assert len(seen) == len(set(seen))


def test_spectral_vectors():
    q, t, p = var("q"), var("t"), var("p")
    assert spectral_vector(P(), 2) == [t, fe(1)]
    assert spectral_vector(P(2, 1), 2) == [q ** 2 * t, q]
    bp = Bipartition(P(1), P(1))
    assert bipartite_spectral_vector(bp, 1) == [q * p]
    with pytest.raises(ValueError):
        spectral_vector(P(1, 1, 1), 2)


def test_containment_dominance_complement():
    assert P(2, 1).contains(P(1, 1))
    assert not P(1, 1).contains(P(2))
    assert P(3, 1).dominates(P(2, 2))
    assert not P(2, 2).dominates(P(3, 1))
    assert P(2, 1).complement(3, 2) == P(2, 1)
    with pytest.raises(ValueError):
        P(4, 1).complement(3, 2)


def test_dominance_requires_equal_weight():
    with pytest.raises(ValueError):
        P(2).dominates(P(1))


def test_interleaving_inequality_pattern():
    # lam_i >= mu_{i-k+l} for i <= k computed two ways agrees
    import random
    rng = random.Random(7)
    pool = list(partitions_up_to(6))
    for _ in range(200):
        lam = rng.choice(pool)
        mu = rng.choice(pool)
        k = rng.randint(1, 4)
        l = rng.randint(k, k + 2)
        direct = all(lam.part(i) >= mu.part(i - k + l) for i in range(1, k + 1))
        shifted = all(lam.part(j + k - l) >= mu.part(j)
                      for j in range(l - k + 1, l + 1))
        assert direct == shifted


def test_subpartitions():
    subs = set(subpartitions(P(2, 1)))
    assert subs == {P(), P(1), P(2), P(1, 1), P(2, 1)}


def test_text_form():
    assert str(P(2, 1)) == "(2,1)"
    assert str(P()) == "0"


def test_copy_reuses_the_checked_parts():
    lam = P(3, 1, 1)
    conj = lam.conjugate()
    copy = Partition(lam)
    assert copy is not lam and copy == lam and hash(copy) == hash(lam)
    assert copy.parts is lam.parts
    # the conjugate is built once and carried into the copy
    assert lam.conjugate() is conj and copy.conjugate() is conj
    assert copy.leg(1, 1) == 2 and copy.leg(1, 2) == 0
    # a tuple is still cleaned and checked
    assert Partition((2, 0, 1, 0)) == P(2, 1)
    with pytest.raises(ValueError, match="not weakly decreasing"):
        Partition((1, 2))
    with pytest.raises(ValueError, match="negative"):
        Partition((2, -1))
