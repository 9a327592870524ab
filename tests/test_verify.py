"""Fork resolution of the golden-table diff at D4."""

import pytest

from weylstrat.verify import _fork_permutations, _permute, computed_tables, load_corpus, verify_group

FORK_PERMS = _fork_permutations("D", 4)


def test_class_zero_tables_are_fork_invariant():
    # why the trivial class cannot pick the numbering
    ct = computed_tables("D", 4, ["0"])["0"]
    assert len(FORK_PERMS) == 6
    for perm in FORK_PERMS:
        for entries in (ct.entries, ct.dominant_values):
            assert {_permute(lam, perm): c for lam, c in entries.items()} == entries, perm


@pytest.mark.parametrize("perm", FORK_PERMS)
def test_relabelled_spin8_corpus_resolves_its_permutation(perm):
    data = load_corpus("Spin(8)")[0]
    rows = [{**row, "lambda": list(_permute(row["lambda"], perm))} for row in data["rows"]]
    bad, found = verify_group({**data, "rows": rows})
    assert bad == []
    assert found == perm
