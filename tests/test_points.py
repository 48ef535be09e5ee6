from itertools import combinations

import pytest

import oracles as o
from conftest import failing_laws, pack, unpack
from relalg import (
    Carrier,
    all_or_nothing,
    bottom,
    compose,
    converse,
    decompose_to_pairs,
    enumerate_coreflexives,
    enumerate_relations,
    identity,
    is_atom,
    is_pair,
    is_particle,
    is_point,
    pair_rel,
    union_all,
)
from relalg.points import points

A3 = Carrier("A", 3)
B3 = Carrier("B", 3)


def test_points_are_single_diagonal_cells():
    pts = points(A3)
    assert [unpack(p) for p in pts] == [{(0, 0)}, {(1, 1)}, {(2, 2)}]
    assert all(is_point(p) for p in pts)
    assert [unpack(p) for p in pts] == [set(pt) for pt in o.opoints(3)]


def test_is_point_exhaustive_3x3():
    for r in enumerate_relations(A3, A3):
        want = len(unpack(r)) == 1 and next(iter(unpack(r)))[0] == next(iter(unpack(r)))[1]
        assert is_point(r) == want


def test_is_point_rejects_heterogeneous_type():
    with pytest.raises(ValueError, match="homogeneous"):
        is_point(pack(2, 3, [(0, 0)]))


def test_is_pair_exhaustive_3x3_matches_oracle():
    for r in enumerate_relations(A3, B3):
        assert is_pair(r) == o.ois_pair(unpack(r), 3, 3)


def test_is_pair_is_single_bit():
    assert is_pair(pack(2, 3, [(1, 2)]))
    assert not is_pair(pack(2, 3, []))
    assert not is_pair(pack(2, 3, [(0, 0), (1, 2)]))


def test_is_particle_is_symmetric_pair():
    assert is_particle(pack(3, 3, [(1, 1)], dst="A"))
    assert not is_particle(pack(3, 3, [(0, 1)], dst="A"))
    with pytest.raises(ValueError, match="homogeneous"):
        is_particle(pack(2, 3, [(0, 0)]))


def test_is_atom_both_lattices():
    single = pack(2, 2, [(0, 1)])
    assert is_atom(single)
    assert not is_atom(pack(2, 2, [(0, 0), (0, 1)]))
    assert is_atom(pack(2, 2, []))  # vacuously: nothing strictly below bottom
    assert is_atom(pack(2, 2, [(0, 0)], dst="A"), "coreflexives")
    # two diagonal bits form a coreflexive atom candidate that fails
    assert not is_atom(pack(2, 2, [(0, 0), (1, 1)], dst="A"), "coreflexives")
    with pytest.raises(ValueError, match="lattice"):
        is_atom(single, "ideals")
    with pytest.raises(ValueError, match="coreflexive"):
        is_atom(single, "coreflexives")


def _strict_nonempty_subsets(r: frozenset):
    members = sorted(r)
    for size in range(1, len(members)):
        yield from (frozenset(q) for q in combinations(members, size))


@pytest.mark.parametrize("na,nb", [(na, nb) for na in (1, 2, 3) for nb in (1, 2, 3)])
def test_is_atom_and_is_point_match_a_sub_relation_scan(na, nb):
    src, dst = Carrier("A", na), Carrier("A" if na == nb else "B", nb)
    for r in enumerate_relations(src, dst):
        pairs = unpack(r)
        below = list(_strict_nonempty_subsets(pairs))
        assert is_atom(r) == (not below), sorted(pairs)
        if na != nb:
            continue
        if not o.ois_coreflexive(pairs):
            with pytest.raises(ValueError, match="coreflexive"):
                is_atom(r, "coreflexives")
            assert not is_point(r)
            continue
        atom = not any(o.ois_coreflexive(q) for q in below)
        assert is_atom(r, "coreflexives") == atom, sorted(pairs)
        assert is_point(r) == (bool(pairs) and atom), sorted(pairs)


def test_off_diagonal_two_bit_is_atomic_among_coreflexives_but_not_coreflexive():
    # {(0,1),(1,0)} has no coreflexive strictly between bottom and itself,
    # but the lattice mode refuses non-coreflexive inputs outright
    with pytest.raises(ValueError):
        is_atom(pack(2, 2, [(0, 1), (1, 0)], dst="A"), "coreflexives")


def test_pair_rel_singles_out_one_cell():
    a = points(A3)[1]
    b = points(B3)[2]
    assert unpack(pair_rel(a, b)) == {(1, 2)}
    with pytest.raises(ValueError, match="must be a point"):
        pair_rel(pack(3, 3, [(0, 0), (1, 1)], dst="A"), b)


@pytest.mark.parametrize("na,nb", [(2, 2), (2, 3), (3, 3)])
def test_all_or_nothing_matches_oracle(na, nb):
    src, dst = Carrier("A", na), Carrier("B", nb)
    pts_a, pts_b = points(src), points(dst)
    for r in enumerate_relations(src, dst):
        for i, a in enumerate(pts_a):
            for j, b in enumerate(pts_b):
                assert all_or_nothing(r, a, b) == o.oall_or_nothing(unpack(r), i, j)


def test_all_or_nothing_rejects_foreign_points(block):
    c = points(Carrier("C", 3))[0]
    with pytest.raises(ValueError, match="frame"):
        all_or_nothing(block, c, points(B3)[0])


def test_decompose_matches_oracle_and_reassembles(block):
    got = [(unpack(a), unpack(b)) for a, b in decompose_to_pairs(block)]
    want = [({(i, i)}, {(j, j)}) for i, j in sorted(unpack(block))]
    assert got == want
    rebuilt = union_all(
        (pair_rel(a, b) for a, b in decompose_to_pairs(block)), block.src, block.dst
    )
    assert rebuilt == block


def _cells(decomposition):
    """Point pairs back to plain index pairs."""
    out = []
    for a, b in decomposition:
        ((i, _),) = unpack(a)
        ((j, _),) = unpack(b)
        out.append((i, j))
    return out


def test_decompose_respects_converse():
    src, dst = Carrier("A", 2), Carrier("B", 3)
    for r in enumerate_relations(src, dst):
        cells = _cells(decompose_to_pairs(r))
        assert set(cells) == unpack(r) == set(o.odecompose(unpack(r)))
        flipped = _cells(decompose_to_pairs(converse(r)))
        assert sorted(flipped) == sorted((j, i) for i, j in cells)


def test_decompose_respects_compose():
    src = Carrier("A", 2)
    mid = Carrier("B", 2)
    dst = Carrier("C", 2)
    for r in enumerate_relations(src, mid):
        for s in enumerate_relations(mid, dst):
            composed = union_all(
                (
                    pair_rel(a, d)
                    for a, b in decompose_to_pairs(r)
                    for c, d in decompose_to_pairs(s)
                    if compose(b, c)
                ),
                src,
                dst,
            )
            assert composed == compose(r, s)


def test_union_all_of_nothing_is_bottom():
    assert union_all([], A3, B3) == bottom(A3, B3)


def test_point_law_suite_small_carriers():
    for n in (1, 2, 3):
        carrier = Carrier("A", n)
        pts = points(carrier)
        assert len(pts) == carrier.size
        assert union_all(pts, carrier, carrier) == identity(carrier)
        for a in pts:
            for b in pts:
                assert not failing_laws(("point-compose",), a, b), (a, b)
        for p in enumerate_coreflexives(carrier):
            assert not failing_laws(("point-saturation",), p), p


def test_particle_point_equivalence_small_carriers():
    for n in (1, 2, 3):
        carrier = Carrier("A", n)
        for z in enumerate_relations(carrier, carrier):
            assert not failing_laws(("particle-point",), z), z
            assert is_particle(z) == (converse(z) == z and is_pair(z)), z


@pytest.mark.parametrize("na,nb", [(1, 1), (2, 2), (2, 3), (3, 3)])
def test_atom_pair_equivalence(na, nb):
    src, dst = Carrier("A", na), Carrier("B", nb)
    pts_a, pts_b = points(src), points(dst)
    for a in pts_a:
        for b in pts_b:
            assert not failing_laws(("pair-point-sandwich",), a, b), (a, b)
    for z in enumerate_relations(src, dst):
        assert not failing_laws(("pair-characterization", "pair-domains"), z), z
        if is_pair(z):
            assert any(pair_rel(a, b) == z for a in pts_a for b in pts_b), z
