"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import itertools
import random
import time
from fractions import Fraction as Q

from weylstrat import costrat, relcoeff, repthy
from weylstrat.lattice import TorusPoint, gamma_x, kernel_preset, pq_map
from weylstrat.subsys import build_poset, enumerate_classes
from weylstrat.verify import computed_tables, load_corpus, normalize_label, verify_group

from conftest import apply_labels, system, tuple_count_oracle
from test_relcoeff import exhaustive_subset_sums, unreduced_coefficients
from test_repthy import kostant_multiplicity, su2_char_product, su2_decompose
from test_subsys import EXPECTED_EDGES

CORPUS_GROUPS = ["SU(2)", "SU(3)", "SU(4)", "SU(5)", "Sp(2)", "Sp(3)", "Spin(7)", "Spin(8)"]


def report(number, name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance criterion {number} failed: {name} {detail}"


def test_criterion_1_golden_tables():
    t0 = time.time()
    total_entries = 0
    mismatches = []
    for data in load_corpus():
        bad, _perm = verify_group(data)
        mismatches += bad
        total_entries += sum(
            1 for r in data["rows"] for pair in r["values"] for v in pair if v is not None
        )
    # spot values quoted for this criterion
    spin8 = computed_tables("D", 4, ["D3"])["D3"]
    sp3 = computed_tables("C", 3, ["C1+C2"])["C1+C2"]
    spots = (
        spin8[0].entries[(0, 0, 0, 0)] == 381
        and spin8[1].entries[(0, 0, 0, 0)] == 352
        and sp3[0].entries[(0, 0, 0)] == 54
        and sp3[1].entries[(0, 0, 0)] == 54
    )
    elapsed = time.time() - t0
    report(
        1,
        "golden-table reproduction",
        not mismatches and spots and elapsed < 300,
        f"{total_entries} entries, {len(mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_worked_example():
    rs, wg = system("A", 1)
    cls = {c.label: c for c in enumerate_classes(rs, wg)}["0"]
    t = relcoeff.coeff_table(rs, wg, cls)
    d = costrat.d_coeffs(rs, wg, t)
    full_c = {k: t.stabilizer_order * v for k, v in t.entries.items()}
    ok = (
        t.entries == {(0,): 3, (2,): -1}
        and d.entries == {(0,): 2, (2,): -1}
        and t.stabilizer_order == 2
        and full_c == {(0,): 6, (2,): -2}
    )
    report(2, "rank-one worked example", ok)


def test_criterion_3_classification_counts():
    details = []
    ok = True
    cases = [("A", r) for r in (1, 2, 3, 4)] + [
        ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 4),
    ]
    for family, rank in cases:
        rs, wg = system(family, rank)
        classes = enumerate_classes(rs, wg)
        expected = tuple_count_oracle(family, rank)
        ok &= len(classes) == expected
        details.append(f"{family}{rank}:{len(classes)}")
        for c in classes:
            factors = c.label.split("+") if c.label != "0" else []
            if family in ("A", "D"):
                want_closed = True
            elif family == "B":
                want_closed = sum(f.startswith("B") for f in factors) <= 1
            else:
                want_closed = not any(f.startswith("D") for f in factors)
            ok &= c.representative.closed == want_closed
    rs3, wg3 = system("A", 3)
    ok &= len(enumerate_classes(rs3, wg3)) == 5
    rsb, wgb = system("B", 3)
    closed_nonfull = {
        c.label for c in enumerate_classes(rsb, wgb) if c.representative.closed and c.label != "B3"
    }
    ok &= closed_nonfull == {"0", "A1", "B1", "A1+B1", "A2", "B2", "D2", "D2+B1", "D3"}
    report(3, "classification counts and closedness", ok, " ".join(details))


def test_criterion_4_hasse_posets():
    ok = True
    for (family, rank), expected in sorted(EXPECTED_EDGES.items()):
        rs, wg = system(family, rank)
        poset = build_poset(wg, enumerate_classes(rs, wg))
        ok &= set(poset.hasse_edges) == expected
    for family, rank, full in [("B", 3, "B3"), ("C", 3, "C3"), ("D", 4, "D4")]:
        rs, wg = system(family, rank)
        poset = build_poset(wg, enumerate_classes(rs, wg))
        labels = [c.label for c in poset.classes]
        for a in labels:
            ok &= poset.is_leq("0", a) and poset.is_leq(a, full)
            for b in labels:
                for c in labels:
                    if poset.is_leq(a, b) and poset.is_leq(b, c):
                        ok &= poset.is_leq(a, c)
    report(4, "Hasse posets match the figures", ok)


def test_criterion_5_brute_force_oracles():
    # (a) subset sums vs exhaustive enumeration
    ok_a = True
    for family, rank in [("A", 1), ("A", 2), ("B", 2)]:
        rs, wg = system(family, rank)
        for cls in enumerate_classes(rs, wg):
            members = cls.representative.root_indices
            complement = [i for i in range(len(rs.roots)) if i not in members]
            ok_a &= relcoeff.subset_sums(rs, complement) == exhaustive_subset_sums(
                rs, complement
            )
    # (b) reduced x stabilizer order vs the unreduced double Weyl sum
    ok_b = True
    for family, rank in [("A", 1), ("A", 2)]:
        rs, wg = system(family, rank)
        for cls in enumerate_classes(rs, wg):
            t = relcoeff.coeff_table(rs, wg, cls)
            ok_b &= {
                k: t.stabilizer_order * v for k, v in t.entries.items()
            } == unreduced_coefficients(rs, wg, cls)
    # (c) Freudenthal vs Kostant partition brute force
    ok_c = True
    for family, rank in [("A", 1), ("A", 2), ("B", 2)]:
        rs, wg = system(family, rank)
        for lam in itertools.product(range(5), repeat=rank):
            if sum(lam) > 4:
                continue
            ws = repthy.dominant_weight_system(rs, wg, lam)
            for mu, m in ws.dominant_entries.items():
                ok_c &= m == kostant_multiplicity(rs, wg, lam, mu)
    # (d) tensor multiplicities vs character polynomial products
    ok_d = True
    rs1, wg1 = system("A", 1)
    for k1 in range(7):
        for k2 in range(7):
            expected = su2_decompose(su2_char_product(k1, k2))
            for k3 in range(k1 + k2 + 3):
                ok_d &= repthy.tensor_coeff(rs1, wg1, (k1,), (k2,), (k3,)) == expected.get(k3, 0)
    report(
        5,
        "brute-force oracles",
        ok_a and ok_b and ok_c and ok_d,
        f"subset:{ok_a} unreduced:{ok_b} freudenthal:{ok_c} tensor:{ok_d}",
    )


def test_criterion_6_vanishing_sum_rule():
    ok = True
    checked = 0
    for data in load_corpus():
        rs, wg = system(data["family"], data["rank"])
        classes = {c.label: c for c in enumerate_classes(rs, wg)}
        for label in data["classes"]:
            ct = relcoeff.coeff_table(rs, wg, classes[normalize_label(label)])
            ok &= relcoeff.identity_value(rs, wg, ct) == 0
            checked += 1
    # spot value: the rank-2 unitary group, generic class
    rs3, wg3 = system("A", 2)
    generic = {c.label: c for c in enumerate_classes(rs3, wg3)}["0"]
    t0 = relcoeff.coeff_table(rs3, wg3, generic)
    terms = [t0.entries[k] * repthy.weyl_dim(rs3, k) for k in sorted(t0.entries)]
    ok &= terms == [15, 30, -48, -27, 30] and sum(terms) == 0
    report(6, "identity vanishing sum rule", ok, f"{checked} class tables")


def test_criterion_7_non_simply_connected_lattice():
    rs, wg = system("C", 2)
    classes = {c.label: c for c in enumerate_classes(rs, wg)}
    so = pq_map(rs, kernel_preset(rs, "so-odd"))
    sc = pq_map(rs, kernel_preset(rs, "sc"))
    ok = all(
        (r.p, r.q) == ((1, 2) if rs.root_norms[i] == 2 else (1, 1)) for i, r in enumerate(so)
    )
    gx = gamma_x(rs, sc, TorusPoint.make([0, Q(1, 2)]))
    ok &= gx.root_indices == classes["C1+C1"].representative.root_indices
    gy = gamma_x(rs, so, TorusPoint.make([Q(1, 4), 0]))
    ok &= gy.root_indices == classes["D2"].representative.root_indices

    rng = random.Random(17)
    closed_count = 0
    for family, rank in [("B", 2), ("C", 2), ("B", 3), ("C", 3)]:
        rs2, wg2 = system(family, rank)
        ratios = pq_map(rs2, kernel_preset(rs2, "sc"))
        for _ in range(50):
            a = [Q(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(rank)]
            b = [Q(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(rank)]
            sub = gamma_x(rs2, ratios, TorusPoint.make(a, b))
            ok &= sub.closed
            closed_count += 1
    report(7, "exp-kernel ratios and point probes", ok, f"{closed_count} probes closed")


def test_criterion_8_stable_k_rows():
    ok = True
    checked = 0
    for family, rank in [("A", 1), ("A", 2), ("B", 2)]:
        rs, wg = system(family, rank)
        for cls in enumerate_classes(rs, wg):
            d = costrat.d_coeffs(rs, wg, relcoeff.coeff_table(rs, wg, cls))
            bound = rs.labels_norm_sq([25 if rank == 1 else 12] * rank)
            stable = [
                lam
                for lam in repthy.dominant_labels_within(rs, bound)
                if costrat.is_stable(rs, wg, d, lam)
            ][:20]
            ok &= len(stable) == 20
            for lam in stable:
                on_orbit = {}
                for mu, dval in d.entries.items():
                    for w in wg.elements:
                        mu2 = apply_labels(rs, w, mu)
                        lam2 = tuple(a + b for a, b in zip(lam, mu2))
                        if all(x >= 0 for x in lam2):
                            on_orbit[lam2] = dval
                for lam2, dval in on_orbit.items():
                    ok &= costrat.k_entry(rs, wg, d, lam2, lam) == dval
                    checked += 1
                window = repthy.dominant_labels_within(rs, rs.labels_norm_sq([l + 3 for l in lam]))
                for lam2 in window:
                    if lam2 not in on_orbit:
                        ok &= costrat.k_entry(rs, wg, d, lam2, lam) == 0
                        checked += 1
    report(8, "stable-row K identity", ok, f"{checked} entries checked")
