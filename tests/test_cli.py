import json
import shlex
from pathlib import Path

import pytest

from weylstrat import relcoeff, repthy
from weylstrat.cli import run
from weylstrat.verify import load_corpus, normalize_label


def out_of(capsys):
    return capsys.readouterr().out


def test_subsystems_a3(capsys):
    assert run(["subsystems", "--family", "A", "--rank", "3"]) == 0
    lines = [l for l in out_of(capsys).splitlines() if l.strip()]
    assert len(lines) == 5
    assert all("closed" in l and "non-closed" not in l for l in lines)


def test_coeffs_csv_su2(capsys):
    assert run(["coeffs", "--family", "A", "--rank", "1", "--class", "0", "--format", "csv"]) == 0
    assert out_of(capsys) == "lambda_1,c_over_n\r\n0,3\r\n2,-1\r\n"


def test_coeffs_json_round_trip(capsys):
    code = run(["coeffs", "--family", "A", "--rank", "2", "--class", "A1", "--format", "json"])
    assert code == 0
    payload = json.loads(out_of(capsys))
    assert payload["group"] == {"family": "A", "rank": 2, "kernel": "sc"}
    assert payload["class"] == "A1"
    entries = {tuple(e["lambda"]): e["c_over_n"] for e in payload["entries"]}
    assert entries == {(0, 0): "20", (0, 3): "1", (1, 1): "-5", (3, 0): "1"}
    assert json.loads(json.dumps(payload)) == payload


def test_dcoeffs_includes_d_column(capsys):
    assert run(["dcoeffs", "--family", "A", "--rank", "1", "--class", "0", "--format", "json"]) == 0
    payload = json.loads(out_of(capsys))
    entries = {tuple(e["lambda"]): (e["c_over_n"], e["d"]) for e in payload["entries"]}
    assert entries == {(0,): ("3", "2"), (2,): ("-1", "-1")}


def test_full_class_alias(capsys):
    assert run(["coeffs", "--family", "A", "--rank", "1", "--class", "full", "--format", "json"]) == 0
    payload = json.loads(out_of(capsys))
    assert payload["class"] == "A1"
    assert payload["entries"] == [{"lambda": [0], "c_over_n": "1"}]


def test_deterministic_output(capsys):
    args = ["dcoeffs", "--family", "C", "--rank", "2", "--class", "A1", "--format", "json"]
    assert run(args) == 0
    first = out_of(capsys)
    assert run(args) == 0
    assert out_of(capsys) == first


def test_hasse_dot(capsys):
    assert run(["hasse", "--family", "B", "--rank", "2"]) == 0
    dot = out_of(capsys)
    assert dot.startswith("digraph hasse {")
    assert '"B1+B1" [shape=circle, style=solid' in dot
    assert '"0" -> "A1";' in dot


def test_pq_and_gammax(capsys):
    assert run(["pq", "--family", "C", "--rank", "2", "--kernel", "so-odd", "--format", "json"]) == 0
    payload = json.loads(out_of(capsys))
    qs = {tuple(r["labels"]): (r["p"], r["q"]) for r in payload["roots"]}
    assert qs[(2, -1)] == (1, 2)  # short simple root
    assert qs[(-2, 2)] == (1, 1)  # long simple root

    assert (
        run(
            ["gammax", "--family", "C", "--rank", "2", "--kernel", "so-odd",
             "--point", "A=1/4,0", "--format", "json"]
        )
        == 0
    )
    payload = json.loads(out_of(capsys))
    assert payload["class"] == "D2"
    assert payload["closed"] is False
    assert len(payload["root_indices"]) == 4


def test_kblock(capsys):
    base = ["kblock", "--family", "A", "--rank", "1", "--class", "0",
            "--cutoff", "5", "--format", "json"]
    assert run(base) == 0
    payload = json.loads(out_of(capsys))
    entries = {
        (tuple(e["lambda_row"]), tuple(e["lambda_col"])): e["value"]
        for e in payload["entries"]
    }
    assert entries[((2,), (4,))] == "-1"
    assert entries[((4,), (4,))] == "2"
    assert entries[((6,), (4,))] == "-1"
    assert run(base + ["--hbar", "1.0"]) == 0
    payload = json.loads(out_of(capsys))
    diag = next(
        e for e in payload["entries"] if e["lambda_row"] == [4] and e["lambda_col"] == [4]
    )
    assert float(diag["value_with_norms"]) == pytest.approx(2.0)  # equal norms cancel
    assert run(["kblock", "--family", "A", "--rank", "1", "--class", "0"]) == 2  # no cutoff
    capsys.readouterr()


def test_kblock_rank_six_cutoff_near_delta(capsys):
    # ||delta||^2 = 55 at D6, so the cutoff 8 (64) admits the column 0 alone
    argv = ["kblock", "--family", "D", "--rank", "6", "--class", "D6", "--cutoff", "8",
            "--format", "json"]
    assert run(argv) == 0
    payload = json.loads(out_of(capsys))
    assert {tuple(e["lambda_col"]) for e in payload["entries"]} == {(0,) * 6}


def test_usage_errors(tmp_path, capsys):
    assert run(["coeffs", "--family", "A", "--rank", "2", "--class", "Z9"]) == 2
    assert run(["coeffs", "--family", "B", "--rank", "1", "--class", "0"]) == 2
    assert run(["gammax", "--family", "A", "--rank", "2", "--point", "A=oops"]) == 2
    assert run(["coeffs", "--family", "A", "--rank", "2", "--class", "0",
                "--kernel", "/nonexistent/kernel.txt"]) == 2
    assert run(["nonsense"]) == 2
    capsys.readouterr()
    # each of these is one "error:" line on stderr, never a traceback
    undefined = tmp_path / "undefined.txt"
    undefined.write_text("1/0 0\n0 1\n")
    rank3 = tmp_path / "rank3.txt"
    rank3.write_text("1 0 0\n0 1 0\n0 0 1\n")
    doubled = tmp_path / "doubled.txt"  # misses the coroot lattice
    doubled.write_text("2 0\n0 2\n")
    third = tmp_path / "third.txt"  # outside the coweight lattice of A2
    third.write_text("1/3 0\n0 1\n")
    so5 = tmp_path / "so5.txt"  # SO(5) in the C2 numbering, outside B2's coweights
    so5.write_text("1/2 0\n0 1\n")
    pq = ["pq", "--family", "C", "--rank", "2"]
    kblock = ["kblock", "--family", "A", "--rank", "1", "--class", "0"]
    for argv in [
        pq + ["--kernel", str(undefined)],
        pq + ["--kernel", str(rank3)],
        pq + ["--kernel", str(doubled)],
        ["pq", "--family", "A", "--rank", "2", "--kernel", str(third)],
        ["pq", "--family", "B", "--rank", "2", "--kernel", str(so5)],
        pq + ["--kernel", str(tmp_path)],
        pq + ["--out", str(tmp_path)],
        kblock + ["--cutoff", "1/0"],
        kblock + ["--cutoff", "-3"],
        kblock + ["--cutoff", "5", "--hbar", "0"],
        kblock + ["--cutoff", "5", "--hbar", "nan"],
        kblock + ["--cutoff", "5", "--hbar", "inf"],
        kblock + ["--cutoff", "1e400"],
        ["kblock", "--family", "A", "--rank", "3", "--class", "0", "--cutoff", "10000"],
        # a norm ratio exp(hbar * exponent) past the largest float
        ["kblock", "--family", "B", "--rank", "2", "--class", "0", "--cutoff", "16",
         "--kernel", "so-odd", "--hbar", "10"],
        kblock + ["--cutoff", "5", "--hbar", "1e300"],
        kblock + ["--cutoff", "5", "--hbar", "1e308"],  # hbar * exponent is inf itself
        ["subsystems", "--family", "A", "--rank", "9"],  # past MAX_RANK
        ["gammax", "--family", "A", "--rank", "2", "--point", "A=1/2,0;A=0,0"],  # a repeated key
    ]:
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_subset_sum_support_budget(monkeypatch, capsys):
    # A3 supports: 201 weights for class 0, 27 for A2. The budget shrinks so the
    # refusal takes milliseconds; at full size it stops coeffs A8 --class A1
    monkeypatch.setattr(relcoeff, "MAX_SUPPORT", 100)
    assert run(["coeffs", "--family", "A", "--rank", "3", "--class", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: subset-sum support too large: more than 100 weights\n"
    assert run(["coeffs", "--family", "A", "--rank", "3", "--class", "A2"]) == 0
    assert out_of(capsys)


def test_d_tables_need_no_weight_system(monkeypatch, capsys):
    def refuse(*_args):
        raise AssertionError("Freudenthal weight system on the D-table path")

    monkeypatch.setattr(repthy, "dominant_weight_system", refuse)
    assert run(["verify", "--group", "Spin(7)"]) == 0
    assert out_of(capsys).strip().endswith("OK")
    assert run(["kblock", "--family", "B", "--rank", "3", "--class", "A1", "--cutoff", "8"]) == 0
    assert out_of(capsys)


def test_rank_four_bc_supported_outside_corpus(capsys):
    # no golden data for these, but the commands still compute them
    assert run(["subsystems", "--family", "B", "--rank", "4", "--format", "json"]) == 0
    payload = json.loads(out_of(capsys))
    assert any(c["label"] == "D2+B1" for c in payload["classes"])
    assert run(["coeffs", "--family", "C", "--rank", "4", "--class", "full",
                "--format", "json"]) == 0
    payload = json.loads(out_of(capsys))
    assert payload["class"] == "C4"
    assert payload["entries"] == [{"lambda": [0, 0, 0, 0], "c_over_n": "1"}]


def test_verify_single_group(capsys):
    assert run(["verify", "--group", "SU(2)"]) == 0
    out = out_of(capsys)
    assert "PASS SU(2)" in out and out.strip().endswith("OK")


def test_verify_detects_injected_fault(tmp_path, capsys):
    data = load_corpus("SU(3)")[0]
    data["rows"][0]["values"][0][0] = "999"
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(data))
    assert run(["verify", "--corpus", str(bad_path)]) == 1
    out = out_of(capsys)
    assert out.count("mismatch") == 1
    assert "expected=999" in out and "got=15" in out


def _corpus_shapes():
    su3 = load_corpus("SU(3)")[0]

    def edited(edit):
        data = json.loads(json.dumps(su3))
        edit(data)
        return data

    def repeat_first_row(data):
        # rows keyed by lambda would keep only the later, correct copy and pass
        data["rows"].append(json.loads(json.dumps(data["rows"][0])))
        data["rows"][0]["values"][0][0] = "999"

    return {
        "empty object": {},
        "top-level list": [su3],
        "row without values": edited(lambda d: d["rows"][0].pop("values")),
        "class of another rank": edited(lambda d: d.update(classes=["0", "A5"])),
        "values shorter than classes": edited(lambda d: d["rows"][1]["values"].pop()),
        "lambda of the wrong length": edited(lambda d: d["rows"][0]["lambda"].append(0)),
        "repeated lambda": edited(repeat_first_row),
    }


@pytest.mark.parametrize("shape", list(_corpus_shapes()))
def test_verify_rejects_malformed_corpus(shape, tmp_path, capsys):
    # exit 1 means only "verification mismatch": a bad file is one error line and exit 2
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(_corpus_shapes()[shape]))
    assert run(["verify", "--corpus", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err


def test_label_normalization():
    assert normalize_label("B1+A1") == "A1+B1"
    assert normalize_label("C1+D2") == "D2+C1"
    assert normalize_label("0") == "0"
    with pytest.raises(ValueError):
        normalize_label("Q7")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    assert run(["coeffs", "--family", "A", "--rank", "1", "--class", "0",
                "--format", "csv", "--out", str(target)]) == 0
    assert target.read_bytes() == b"lambda_1,c_over_n\r\n0,3\r\n2,-1\r\n"
    assert out_of(capsys) == ""


def readme_cli_examples():
    """Every `weylstrat ...` line of the README's CLI block, optional [...] parts kept."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [l for l in block.splitlines() if l.startswith("weylstrat ")]
    return [shlex.split(l.replace("[", "").replace("]", ""), comments=True)[1:] for l in lines]


def test_readme_cli_examples(capsys):
    examples = readme_cli_examples()
    assert len(examples) == 8
    for argv in examples:
        assert run(argv) == 0, argv
        assert out_of(capsys), argv
