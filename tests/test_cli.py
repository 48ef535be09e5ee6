import json
import re
from pathlib import Path

import pytest

from conftest import pack, run_python, unpack
from relalg import _MEMOIZED, Carrier, IsoWitness, from_dict, from_pairs, laws, rel, to_dict, verify_witness
from relalg.cli import _grid, main
from relalg.models import load_bundled, model_to_dict

FIXTURES = Path(__file__).parent / "fixtures"
BLOCK = str(FIXTURES / "block.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_rel(tmp_path, name, r):
    path = tmp_path / name
    path.write_text(json.dumps(to_dict(r)))
    return str(path)


# -- classify -----------------------------------------------------------------------


def test_classify_block(capsys):
    code, out, err = run_cli(capsys, "classify", BLOCK)
    assert code == 0 and err == ""
    payload = json.loads(out)
    got = payload["classification"]
    # rows 0 and 1 coincide, so the block is difunctional but not its own core
    assert got["difunctional"] and not got["core_relation"]
    assert not got["functional"] and not got["coreflexive"]
    # the emitted relation is loadable and identical
    assert unpack(from_dict(payload["relation"])) == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)}


def test_classify_pretty_grid(capsys):
    code, out, err = run_cli(capsys, "--pretty", "classify", BLOCK)
    assert code == 0
    assert " x" in out and " ." in out
    assert "difunctional: yes" in out.replace("  ", " ")


def test_pretty_grid_reads_the_rows_once(monkeypatch):
    # reading the rows per cell made --pretty cubic in the carrier size
    r = pack(16, 16, [(i, (3 * i) % 16) for i in range(16)])
    calls = []

    def counted(*args):
        calls.append(args)
        return rows(*args)

    rows = rel._rows
    monkeypatch.setattr(rel, "_rows", counted)
    grid = _grid(r)
    assert len(calls) == 1
    assert grid.splitlines()[2].split()[1:] == ["." if j != 3 else "x" for j in range(16)]


# -- index / core ---------------------------------------------------------------------


def test_index_policies(capsys):
    code, out, _ = run_cli(capsys, "index", BLOCK)
    payload = json.loads(out)
    assert code == 0 and payload["ok"]
    assert payload["index"]["pairs"] == [[0, 0], [2, 2]]
    code, out, _ = run_cli(capsys, "index", BLOCK, "--policy", "max")
    assert json.loads(out)["index"]["pairs"] == [[1, 1], [2, 2]]


def test_index_rejects_unknown_policy(capsys):
    code, _, _ = run_cli(capsys, "index", BLOCK, "--policy", "fancy")
    assert code == 2


def test_index_dot_output_is_deterministic(capsys):
    code, first, _ = run_cli(capsys, "index", BLOCK, "--dot")
    assert code == 0
    code, second, _ = run_cli(capsys, "index", BLOCK, "--dot")
    assert first == second
    assert first.startswith("digraph relation {")
    assert 'label="{0,1}";' in first          # the two merged sources cluster together
    assert "s0 -> t0 [color=crimson" in first  # index edge is highlighted
    assert "s0 -> t1;" in first                # ordinary edge is not
    assert "s2 -> t2 [color=crimson" in first


# a DOT string literal: quotes around characters other than an unescaped quote
DOT_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def test_dot_escapes_labels(capsys, tmp_path):
    a = Carrier("A", 2, ['x"y', "z\\"])
    b = Carrier("B", 2, ["p", 'q"'])
    path = write_rel(tmp_path, "labels.json", from_pairs(a, b, [(0, 0), (1, 0), (1, 1)]))
    code, out, _ = run_cli(capsys, "index", path, "--dot")
    assert code == 0
    literals = []
    for line in out.splitlines():
        literals += DOT_STRING.findall(line)
        assert '"' not in DOT_STRING.sub("", line), line
    texts = {re.sub(r"\\(.)", r"\1", lit[1:-1]) for lit in literals}
    assert {'x"y', "z\\", 'q"', '{"x\\"y"}', '{z\\}', '{"q\\""}'} <= texts


def test_core_quotient(capsys, tmp_path):
    path = write_rel(tmp_path, "top23.json", pack(2, 3, [(i, j) for i in range(2) for j in range(3)]))
    code, out, _ = run_cli(capsys, "core", path, "--mode", "quotient")
    payload = json.loads(out)
    assert code == 0
    assert payload["mode"] == "quotient"
    assert payload["core"]["src"]["size"] == 1 and payload["core"]["dst"]["size"] == 1
    assert all(payload["checks"].values())


def test_core_quotient_keeps_class_labels_distinct(capsys, tmp_path):
    a, b = Carrier("A", 3, ["a,b", "a", "b"]), Carrier("B", 2)
    path = write_rel(tmp_path, "commas.json", from_pairs(a, b, [(0, 0), (1, 1), (2, 1)]))
    code, out, err = run_cli(capsys, "core", path, "--mode", "quotient")
    assert (code, err) == (0, "")
    labels = json.loads(out)["core"]["src"]["labels"]
    assert labels == ['{"a,b"}', "{a,b}"]


def test_dot_draws_an_element_in_no_class_dashed(capsys, tmp_path):
    # row 1 and column 1 are empty: neither element is in a per-domain class
    path = write_rel(tmp_path, "corner.json", pack(2, 2, [(0, 0)]))
    code, out, err = run_cli(capsys, "index", path, "--dot")
    assert (code, err) == (0, "")
    assert out == (
        "digraph relation {\n  rankdir=LR;\n  node [shape=circle];\n"
        '  subgraph cluster_s0 {\n    label="{0}";\n    s0 [label="0"];\n  }\n'
        '  s1 [label="1", style=dashed];\n'
        '  subgraph cluster_t0 {\n    label="{0}";\n    t0 [label="0"];\n  }\n'
        '  t1 [label="1", style=dashed];\n'
        "  s0 -> t0 [color=crimson, penwidth=2.0];\n}\n"
    )


@pytest.mark.parametrize("mode", ["same-type", "quotient"])
@pytest.mark.parametrize("policy", ["min", "max", "random"])
def test_core_dot_is_an_unrecognized_argument(capsys, mode, policy):
    code, out, err = run_cli(capsys, "core", BLOCK, "--mode", mode, "--dot", "--policy", policy, "--seed", "3")
    assert (code, out) == (2, "")
    assert err.endswith("relalg: error: unrecognized arguments: --dot\n")


def test_index_pretty_prints_grids_and_checks(capsys):
    code, out, err = run_cli(capsys, "--pretty", "index", BLOCK)
    assert (code, err) == (0, "")
    assert out == (
        "      0   1   2\n  0   x   x   .\n  1   x   x   .\n  2   .   .   x\n"
        "index:\n"
        "      0   1   2\n  0   x   .   .\n  1   .   .   .\n  2   .   .   x\n"
        "  J ⊆ R: ok\n  R≺∘J∘R≻ = R: ok\n  J<∘R≺∘J< = J<: ok\n  J>∘R≻∘J> = J>: ok\n"
    )


def test_core_pretty_prints_mode_and_grid(capsys):
    code, out, err = run_cli(capsys, "--pretty", "core", BLOCK)
    assert (code, err) == (0, "")
    assert out == (
        "mode: same-type\ncore:\n      0   1   2\n  0   x   .   .\n  1   .   .   .\n  2   .   .   x\n"
        + _CORE_CHECKS
    )


# the ten equations of CoreDecomposition.verify, as --pretty core prints them
_CORE_CHECKS = (
    "  λ°∘λ = R≺: ok\n  λ∘λ° = λ<: ok\n  ρ°∘ρ = R≻: ok\n  ρ∘ρ° = ρ<: ok\n  C = λ∘R∘ρ°: ok\n"
    "  C is a core relation: ok\n  λ> = R<: ok\n  C< = λ<: ok\n  ρ> = R>: ok\n  C> = ρ<: ok\n"
)


def test_core_pretty_grid_fits_class_labels(capsys):
    code, out, err = run_cli(capsys, "--pretty", "core", "--mode", "quotient", BLOCK)
    assert (code, err) == (0, "")
    assert out == "mode: quotient\ncore:\n      {0,1} {2}\n{0,1}     x   .\n  {2}     .   x\n" + _CORE_CHECKS


def test_core_same_type_matches_index(capsys):
    _, core_out, _ = run_cli(capsys, "core", BLOCK)
    _, index_out, _ = run_cli(capsys, "index", BLOCK)
    assert json.loads(core_out)["core"]["pairs"] == json.loads(index_out)["index"]["pairs"]


# -- iso ------------------------------------------------------------------------------


def test_iso_self(capsys):
    code, out, _ = run_cli(capsys, "iso", BLOCK, BLOCK)
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphic"]
    r = pack(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
    w = IsoWitness(from_dict(payload["phi"]), from_dict(payload["psi"]))
    assert verify_witness(r, r, w)


def test_iso_negative_exits_one(capsys, tmp_path):
    a = write_rel(tmp_path, "one.json", pack(2, 2, [(0, 0)]))
    b = write_rel(tmp_path, "two.json", pack(2, 2, [(0, 0), (1, 1)], src="C", dst="D"))
    code, out, _ = run_cli(capsys, "iso", a, b)
    assert code == 1
    assert json.loads(out) == {"isomorphic": False}


def test_iso_settled_on_invariants_exits_one_past_the_search_limit(capsys, tmp_path):
    # both domains have 9 points, past isomorph.MAX_POINTS, but the pair
    # counts differ, so no search is refused
    a = write_rel(tmp_path, "diag.json", pack(9, 9, [(i, i) for i in range(9)]))
    b = write_rel(tmp_path, "more.json", pack(9, 9, [(i, i) for i in range(9)] + [(0, 1)], src="C", dst="D"))
    code, out, _ = run_cli(capsys, "iso", a, b)
    assert code == 1
    assert json.loads(out) == {"isomorphic": False}


def test_iso_past_the_search_limit_is_a_usage_error(capsys, tmp_path):
    # two 9-point permutations agree on every invariant, so only a search
    # could settle them, and it is refused
    a = write_rel(tmp_path, "diag.json", pack(9, 9, [(i, i) for i in range(9)]))
    b = write_rel(tmp_path, "cycle.json", pack(9, 9, [(i, (i + 1) % 9) for i in range(9)], src="C", dst="D"))
    code, out, err = run_cli(capsys, "iso", a, b)
    assert (code, out) == (2, "")
    assert err == "relalg: error: domains have 9 and 9 points (limit 8)\n"


# -- decompose / points -----------------------------------------------------------------


def test_decompose_lists_pairs_in_row_major_order(capsys):
    code, out, _ = run_cli(capsys, "decompose", BLOCK)
    payload = json.loads(out)
    assert code == 0
    assert payload["pairs"] == [[0, 0], [0, 1], [1, 0], [1, 1], [2, 2]]
    assert payload["count"] == 5


def test_points_command(capsys):
    code, out, _ = run_cli(capsys, "points", "2")
    payload = json.loads(out)
    assert code == 0
    assert [p["pairs"] for p in payload["points"]] == [[[0, 0]], [[1, 1]]]


def test_points_negative_size(capsys):
    code, _, err = run_cli(capsys, "points", "-1")
    assert code == 2
    assert "relalg: error:" in err and "non-negative" in err


def test_points_size_is_bounded(capsys):
    code, _, err = run_cli(capsys, "points", "257")
    assert code == 2
    assert "relalg: error:" in err and "at most 256" in err
    code, out, _ = run_cli(capsys, "points", "256")
    assert code == 0
    assert len(json.loads(out)["points"]) == 256


def test_a_command_that_runs_no_law_leaves_the_laws_unparsed():
    script = (
        "import sys\n"
        "from relalg.cli import main\n"
        "assert main(['points', '2']) == 0\n"
        "print('relalg.laws' in sys.modules, 'relalg.terms' in sys.modules)\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False"


# -- laws -------------------------------------------------------------------------------


def test_laws_small_run_is_green(capsys):
    code, out, _ = run_cli(capsys, "laws", "--max-size", "1", "--samples", "5")
    payload = json.loads(out)
    assert code == 0 and payload["ok"]
    assert payload["laws"] >= 60


def test_laws_manifest(capsys):
    code, out, _ = run_cli(capsys, "laws", "--manifest")
    payload = json.loads(out)
    assert code == 0
    assert payload["law_count"] >= 60
    assert payload["out_of_scope"]


def test_laws_filter(capsys):
    code, out, _ = run_cli(capsys, "laws", "--max-size", "1", "--filter", "cone-*")
    payload = json.loads(out)
    assert code == 0
    assert [r["law"] for r in payload["reports"]] == ["cone-rule"]


def test_laws_stats_go_to_stderr_and_leave_stdout_alone(capsys):
    argv = ("laws", "--max-size", "2", "--samples", "20", "--filter", "index-*")
    code, plain, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, *argv, "--stats")
    assert code == 0 and out == plain
    stats = json.loads(err)
    assert set(stats["memos"]) == {fn.__name__ for fn in _MEMOIZED}
    assert set(stats["memos"]["compose"]) == {"hits", "misses", "maxsize", "currsize"}
    assert stats["memos"]["compose"]["hits"] > 0
    assert stats["pools"] == len(laws._POOLS) > 0


def test_laws_filter_matching_nothing_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "laws", "--max-size", "1", "--filter", "no-such-law")
    assert code == 2 and out == ""
    assert "no law matches" in err


def test_laws_rejects_oversize(capsys):
    code, _, err = run_cli(capsys, "laws", "--max-size", "9")
    assert code == 2
    assert "max_size" in err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_laws_rejects_nonpositive_samples(capsys, samples):
    code, out, err = run_cli(
        capsys, "laws", "--samples", samples, "--max-size", "3", "--filter", "compose-assoc"
    )
    assert code == 2 and out == ""
    assert "samples must be at least 1" in err


# -- model ------------------------------------------------------------------------------


def test_model_bundled_pass(capsys):
    code, out, _ = run_cli(capsys, "model", "two_element")
    payload = json.loads(out)
    assert code == 0 and payload["ok"]
    assert all(payload["axioms"].values())


def test_model_bundled_failures_exit_one(capsys):
    code, out, _ = run_cli(capsys, "model", "three_element")
    payload = json.loads(out)
    assert code == 1 and not payload["ok"]
    assert payload["axioms"]["choice"] is False
    assert payload["counterexamples"]["choice"] == ["top"]


def test_model_bundled_product(capsys):
    code, out, _ = run_cli(capsys, "model", "product_two_two")
    payload = json.loads(out)
    assert code == 1 and not payload["ok"]
    assert [a for a, v in payload["axioms"].items() if not v] == ["cone"]
    assert payload["counterexamples"] == {"cone": ["bot|top"]}


def test_model_pretty_marks_failures(capsys):
    code, out, _ = run_cli(capsys, "--pretty", "model", "three_element")
    assert code == 1
    assert "FAIL  at id, id, id" in out


def test_model_corrupt_fixture_diagnostic(capsys):
    code, _, err = run_cli(capsys, "model", str(FIXTURES / "broken_assoc.json"))
    assert code == 2
    assert "[associativity]" in err and "(a, a, top)" in err


def test_model_over_256_elements_is_refused(capsys, tmp_path):
    names = [f"e{i}" for i in range(257)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "elements": names, "leq": [[x, x] for x in names], "compose": [names] * 257,
        "converse": names, "identity": "e0", "top": "e0", "bottom": "e0",
    }))
    code, out, err = run_cli(capsys, "model", str(path))
    assert code == 2 and out == ""
    assert "[size]" in err and "257 elements, more than the 256" in err


def test_model_verdicts_hold_under_python_O():
    """Result guards raise under -O too, and the model report is the same."""
    runs = [run_python(*flags, "-m", "relalg", "model", "desharnais13") for flags in ([], ["-O"])]
    assert [p.returncode for p in runs] == [1, 1], runs[1].stderr
    assert runs[0].stdout == runs[1].stdout and json.loads(runs[0].stdout)["model"] == "desharnais13"
    script = (
        "from relalg import Carrier, from_pairs, isomorph\n"
        "assert False, 'asserts must be off'\n"
        "isomorph.verify_witness = lambda r, s, w: False\n"
        "a = Carrier('A', 2)\n"
        "try:\n"
        "    isomorph.find_isomorphism(from_pairs(a, a, [(0, 0)]), from_pairs(a, a, [(1, 1)]))\n"
        "except RuntimeError as e:\n"
        "    print(e)\n"
        "else:\n"
        "    raise SystemExit('the witness guard did not raise')\n"
    )
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "search produced a witness that does not verify"


def test_model_missing_file(capsys):
    code, _, err = run_cli(capsys, "model", "no_such_model.json")
    assert code == 2
    assert "relalg: error:" in err


# -- diagnostics and argparse plumbing ------------------------------------------------------


def test_malformed_json_reports_line_and_column(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"src": {,}}')
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert f"{path}:1:10:" in err


# bytes, where (line, column) and message: a file json.loads cannot decode,
# or decodes only by raising something other than JSONDecodeError
_UNREADABLE = {
    "not-utf8": (b"\xff\xfe", (1, 1), "invalid UTF-8 byte 0xff"),
    "not-utf8-later": (b'{"src":\n {"name": "A\xff"}}', (2, 13), "invalid UTF-8 byte 0xff"),
    "deep": (b"[" * 200000 + b"\n", (1, 200000), "arrays and objects nested 200000 deep, too deep to parse"),
    "deep-after-string": (b'{"a": "[[[", "b": ' + b"[" * 100000, (1, 100018),
                          "arrays and objects nested 100001 deep, too deep to parse"),
    "deep-after-closing": (b"[[[]], " + b"[" * 3000 + b"]" * 3000 + b"]", (1, 3007),
                           "arrays and objects nested 3001 deep, too deep to parse"),
    "long-integer": (b'{"src": [' + b"7" * 5000 + b"]}", (1, 10), "integer of more than 4300 digits"),
}


@pytest.mark.parametrize("case", list(_UNREADABLE))
@pytest.mark.parametrize("command", ["classify", "model"])
def test_unreadable_file_is_a_positioned_diagnostic(capsys, tmp_path, command, case):
    content, (line, column), message = _UNREADABLE[case]
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2 and out == ""
    if command == "classify":
        assert err == f"relalg: error: {path}:{line}:{column}: {message}\n"
    else:
        assert err == f"relalg: error: {path}: [format] invalid JSON at line {line}, column {column}: {message}\n"


def test_bad_field_reports_path(capsys, tmp_path):
    path = tmp_path / "badpair.json"
    path.write_text(json.dumps({
        "src": {"name": "A", "size": 2},
        "dst": {"name": "B", "size": 2},
        "pairs": [[0, 7]],
    }))
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert "pairs[0]" in err


_A = {"name": "A", "size": 2}
_MODEL = model_to_dict(load_bundled("two_element"))

# command, file content and the message after the path
_BAD_FILES = {
    "duplicate-pair": ("classify", {"src": _A, "dst": _A, "pairs": [[0, 0], [0, 0]]},
                       "pairs[1]: duplicate pair [0, 0]"),
    "carrier-not-object": ("classify", {"src": 5, "dst": _A, "pairs": []}, "src: expected an object, got int"),
    "name-not-string": ("classify", {"src": {"name": 5, "size": 2}, "dst": _A, "pairs": []},
                        "src.name: expected a string, got 5"),
    "model-not-object": ("model", [], "[format] expected a JSON object, got list"),
    "leq-not-list": ("model", {**_MODEL, "leq": 5}, "[format] 'leq' must be a list of [x, y] pairs"),
    "converse-short": ("model", {**_MODEL, "converse": ["bot"]},
                       "[format] 'converse' must be a list of 2 element names"),
    "elements-not-strings": ("model", {**_MODEL, "elements": [1, 2]},
                             "[format] 'elements' must be a nonempty list of strings"),
    "not-reflexive": ("model", {"elements": ["a"], "leq": [], "compose": [["a"]], "converse": ["a"],
                                "identity": "a", "top": "a", "bottom": "a"},
                      "[order] not reflexive: 'a' ⊆ 'a' missing"),
}


@pytest.mark.parametrize("case", list(_BAD_FILES))
def test_bad_file_is_an_exact_diagnostic(capsys, tmp_path, case):
    command, content, message = _BAD_FILES[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == f"relalg: error: {path}: {message}\n"


def test_missing_relation_file(capsys):
    code, _, err = run_cli(capsys, "classify", "nowhere.json")
    assert code == 2
    assert "nowhere.json" in err


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_module_entry_point():
    proc = run_python("-m", "relalg", "points", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["points"]
