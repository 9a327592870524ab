import functools
import itertools
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from weylstrat.lattice import (
    TorusPoint,
    gamma_x,
    kernel_from_file,
    kernel_preset,
    pq_map,
)
from weylstrat.relcoeff import coeff_table
from weylstrat.rootsys import _invert_rational
from weylstrat.subsys import class_leq, enumerate_classes
from conftest import cartan_inverse, inverse, label_mat, system


def test_presets():
    rs, _ = system("C", 2)
    sc = kernel_preset(rs, "sc")
    assert sc == ((Q(1), Q(0)), (Q(0), Q(1)))
    so5 = kernel_preset(rs, "so-odd")
    assert so5 == ((Q(1, 2), Q(0)), (Q(0), Q(1)))

    rs_b, _ = system("B", 3)
    so7 = kernel_preset(rs_b, "so-odd")
    assert so7[2][2] == Q(1, 2) and so7[0][0] == 1

    rs_a, _ = system("A", 2)
    with pytest.raises(ValueError):
        kernel_preset(rs_a, "so-odd")
    rs_c3, _ = system("C", 3)
    with pytest.raises(ValueError):
        kernel_preset(rs_c3, "so-odd")  # more than one short simple root
    with pytest.raises(ValueError):
        kernel_preset(rs, "nope")


def test_kernel_validation_and_file(tmp_path):
    rs, wg = system("C", 2)
    with pytest.raises(ValueError, match="linearly dependent"):
        pq_map(rs, ((Q(1), Q(2)), (Q(2), Q(4))))  # singular
    p = tmp_path / "kernel.txt"
    p.write_text("# SO(5) lattice\n1/2 0\n0 1\n")
    k = kernel_from_file(str(p))
    assert k == ((Q(1, 2), Q(0)), (Q(0), Q(1)))
    # a user-supplied identity matrix behaves exactly like the sc preset
    ident = tmp_path / "ident.txt"
    ident.write_text("1 0\n0 1\n")
    scales = pq_map(rs, kernel_from_file(str(ident)))
    assert all(q == 1 for q in scales)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(ValueError):
        kernel_from_file(str(empty))


@pytest.mark.parametrize(
    "family,rank", [("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4)]
)
def test_presets_pass_kernel_checks(family, rank):
    rs, _ = system(family, rank)
    presets = ["sc", "so-odd"] if family == "B" or rank == 2 else ["sc"]
    for name in presets:
        kernel = kernel_preset(rs, name)
        assert len(pq_map(rs, kernel)) == len(rs.roots)
        # and each generator pairs integrally with every simple root: K lies in the coweights
        for row in kernel:
            for i in range(rank):
                assert sum(row[j] * rs.cartan[j][i] for j in range(rank)).denominator == 1


@pytest.mark.parametrize("family,rank", [("B", 2), ("B", 3), ("B", 4), ("C", 2)])
def test_kernels_containing_coroots_give_p_one(family, rank, tmp_path):
    # each simple coroot lies in K, so 1 is in every projection lattice (1/q)Z: an int q
    rs, _ = system(family, rank)
    kernels = [kernel_preset(rs, name) for name in ("sc", "so-odd")]
    if family == "C":
        so5 = tmp_path / "so5.txt"
        so5.write_text("# SO(5) in the C2 numbering (first simple root short)\n1/2 0\n0 1\n")
        kernels.append(kernel_from_file(str(so5)))
    for kernel in kernels:
        assert all(type(q) is int and q >= 1 for q in pq_map(rs, kernel))
    # not vacuous: the SO(2n+1) kernel gives q = 2 on some roots
    assert set(pq_map(rs, kernels[1])) == {1, 2}


def test_pq_map_refuses_a_kernel_missing_the_coroot_lattice(tmp_path):
    # presets and files take one path through pq_map's kernel checks
    rs, _ = system("C", 2)
    path = tmp_path / "double.txt"
    path.write_text("2 0\n0 2\n")
    kernel = kernel_from_file(str(path))
    message = "kernel does not contain the coroot lattice (R^-1 is not integral)"
    with pytest.raises(ValueError) as exc:
        pq_map(rs, kernel)
    assert str(exc.value) == message


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 2), ("B", 3)])
def test_simply_connected_all_ones(family, rank):
    rs, wg = system(family, rank)
    scales = pq_map(rs, kernel_preset(rs, "sc"))
    assert all(q == 1 for q in scales)


def test_so5_ratios_with_brute_force_oracle():
    rs, wg = system("C", 2)
    kernel = kernel_preset(rs, "so-odd")
    scales = pq_map(rs, kernel)
    for i in range(len(rs.roots)):
        expected = 2 if rs.root_norms[i] == 2 else 1
        assert scales[i] == expected

    # independent oracle on simple roots: scan small integer solution vectors
    for j0 in range(2):
        vals = set()
        for k1, k2 in itertools.product(range(-6, 7), repeat=2):
            other = 1 - j0
            if k1 * kernel[0][other] + k2 * kernel[1][other] == 0:
                vals.add(k1 * kernel[0][j0] + k2 * kernel[1][j0])
        positive = sorted(v for v in vals if v > 0)
        gen = positive[0]
        assert Q(1, scales[rs.simple_indices[j0]]) == gen
        # generated lattice really is gen * Z within the scan window
        assert all(v % gen == 0 for v in vals)


def test_pq_constant_on_length_classes():
    rs, wg = system("B", 3)
    scales = pq_map(rs, kernel_preset(rs, "so-odd"))
    by_norm = {}
    for i, q in enumerate(scales):
        by_norm.setdefault(rs.root_norms[i], set()).add(q)
    assert all(len(v) == 1 for v in by_norm.values())


def test_gamma_x_identity_is_full():
    rs, wg = system("C", 2)
    scales = pq_map(rs, kernel_preset(rs, "sc"))
    sub = gamma_x(rs, scales, TorusPoint.make([0, 0]))
    assert sub.root_indices == frozenset(range(len(rs.roots)))


def test_spin5_so5_worked_example():
    rs, wg = system("C", 2)
    classes = {c.label: c for c in enumerate_classes(rs, wg)}
    sc_scales = pq_map(rs, kernel_preset(rs, "sc"))
    so_scales = pq_map(rs, kernel_preset(rs, "so-odd"))
    # X = half of the long simple coroot step: fixes exactly the long roots
    gx = gamma_x(rs, sc_scales, TorusPoint.make([0, Q(1, 2)]))
    assert gx.root_indices == classes["C1+C1"].root_indices
    assert gx.closed
    # Y = quarter step along the short coroot: fixes exactly the short roots
    gy = gamma_x(rs, so_scales, TorusPoint.make([Q(1, 4), 0]))
    assert gy.root_indices == classes["D2"].root_indices
    assert not gy.closed
    # the same Y under the simply connected kernel keeps only the orthogonal pair
    gy_sc = gamma_x(rs, sc_scales, TorusPoint.make([Q(1, 4), 0]))
    assert gy_sc.closed


@functools.cache
def _classes_and_scales(family, rank, kernel):
    rs, wg = system(family, rank)
    classes = {c.label: c for c in enumerate_classes(rs, wg)}
    return classes, pq_map(rs, kernel_preset(rs, kernel))


@functools.cache
def _class_table(family, rank, kernel, label):
    classes, scales = _classes_and_scales(family, rank, kernel)
    return coeff_table(system(family, rank)[1], classes[label], scales)


@settings(max_examples=30, deadline=None)
@pytest.mark.parametrize(
    "family,rank,kernel",
    [(f, r, "sc") for f, r in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2),
                               ("C", 3), ("D", 4)]]
    + [("B", 2, "so-odd"), ("B", 3, "so-odd"), ("C", 2, "so-odd")],
)
@given(data=st.data())
def test_gamma_x_is_its_class(family, rank, kernel, data):
    # Γ_x of a rational point is the listed class it names in all but its roots: the same
    # factors, closed flag and size, each below the other, and the same C and D tables
    rs, wg = system(family, rank)
    classes, scales = _classes_and_scales(family, rank, kernel)
    a = []
    for _ in range(rank):
        den = data.draw(st.sampled_from([1, 2, 3, 4, 6]))
        a.append(Q(data.draw(st.integers(0, den - 1)), den))
    gx = gamma_x(rs, scales, TorusPoint.make(a))
    if gx.label is None:
        return
    cls = classes[gx.label]
    assert (gx.factors, gx.closed, len(gx)) == (cls.factors, cls.closed, len(cls))
    assert class_leq(gx, cls) and class_leq(cls, gx)
    table = coeff_table(wg, gx, scales)
    want = _class_table(family, rank, kernel, gx.label)
    assert table.entries == want.entries
    assert table.dominant_values == want.dominant_values


def _random_point(rng, rank):
    def q():
        return Q(rng.randint(-8, 8), rng.randint(1, 8))

    return TorusPoint.make([q() for _ in range(rank)], [q() for _ in range(rank)])


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 3)])
def test_simply_connected_probes_are_closed(family, rank):
    rng = random.Random(5)
    rs, wg = system(family, rank)
    scales = pq_map(rs, kernel_preset(rs, "sc"))
    for _ in range(60):
        sub = gamma_x(rs, scales, _random_point(rng, rank))
        assert sub.closed


def test_gamma_x_equivariance():
    # coroot coordinates transform by the transposed label matrix of the inverse
    rng = random.Random(9)
    rs, wg = system("C", 2)
    scales = pq_map(rs, kernel_preset(rs, "so-odd"))
    n = rs.rank
    for _ in range(40):
        pt = _random_point(rng, n)
        w = wg.elements[rng.randrange(len(wg))]
        m = label_mat(rs, inverse(w))
        wa = tuple(sum(m[r][c] * pt.a_coords[r] for r in range(n)) for c in range(n))
        wb = tuple(sum(m[r][c] * pt.b_coords[r] for r in range(n)) for c in range(n))
        lhs = gamma_x(rs, scales, TorusPoint.make(wa, wb)).root_indices
        rhs = frozenset(w.perm[i] for i in gamma_x(rs, scales, pt).root_indices)
        assert lhs == rhs


def _sweep_kernels(rs, count, seed):
    """Seeded kernels R = M * (fundamental coweight rows) that pq_map accepts."""
    rng = random.Random(seed)
    n = rs.rank
    cinv = cartan_inverse(rs)
    kept = []
    for _ in range(2000):
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        rows = tuple(
            tuple(sum(m[i][k] * cinv[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        try:
            pq_map(rs, rows)
        except ValueError:
            continue
        kept.append(rows)
        if len(kept) == count:
            break
    return kept


@pytest.mark.parametrize(
    "family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3)]
)
def test_pq_map_matches_brute_force_on_random_kernels(family, rank):
    rs, _ = system(family, rank)
    kernels = _sweep_kernels(rs, 6, seed=11)
    assert len(kernels) == 6
    # some kept lattice lies strictly between the coroots and the coweights
    assert any(x.denominator != 1 for k in kernels for row in k for x in row)
    scales = [pq_map(rs, k) for k in kernels]
    # q > 1 needs every root to pair evenly with a^vee, which only B_n and C2 allow
    has_q = any(q > 1 for qk in scales for q in qk)
    assert has_q == (family == "B" or (family, rank) == ("C", 2))
    for kernel, qk in zip(kernels, scales):
        by_norm = {}
        for i, q in enumerate(qk):
            by_norm.setdefault(rs.root_norms[i], set()).add(q)
        assert all(len(v) == 1 for v in by_norm.values())
        # independent oracle: the t with k R = t e_j over a window of integral k. Each
        # e_j lies in K, so the generator t <= 1 has k = t * (row j of R^-1) in the window.
        den = math.lcm(*(x.denominator for row in kernel for x in row))
        scaled = [[int(x * den) for x in row] for row in kernel]
        inverse = _invert_rational([list(row) for row in kernel])
        bound = max(6, *(int(abs(x)) for row in inverse for x in row))
        found = [set() for _ in range(rank)]
        for k in itertools.product(range(-bound, bound + 1), repeat=rank):
            v = [sum(ki * row[j] for ki, row in zip(k, scaled)) for j in range(rank)]
            nonzero = [j for j in range(rank) if v[j]]
            if len(nonzero) == 1:
                found[nonzero[0]].add(Q(v[nonzero[0]], den))
        for j in range(rank):
            gen = min(t for t in found[j] if t > 0)
            assert Q(1, qk[rs.simple_indices[j]]) == gen
            assert all(t % gen == 0 for t in found[j])
