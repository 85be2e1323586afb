"""JSON round-trips, strict decoding, the catalog store, and the CLI."""

import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from hyperring_lab import MalformedTables, harness, make_zx_mod, mask_of, members, product_ring
from hyperring_lab.catalog import Catalog, content_id
from hyperring_lab.cli import main
from hyperring_lab.closedness import closed_profile
from hyperring_lab.fundamental import fundamental_ring
from hyperring_lab.jsonio import (
    canonical_json,
    fundamental_to_dict,
    ideal_to_dict,
    profile_to_dict,
    ring_from_dict,
    ring_to_dict,
    write_json,
)


def test_ring_round_trip():
    for ring in [make_zx_mod(6, [2, 3]), product_ring(make_zx_mod(2, [1]), make_zx_mod(3, [1]))]:
        doc = ring_to_dict(ring)
        back = ring_from_dict(doc)
        assert back.order == ring.order
        assert back.add == ring.add
        assert back.mul == ring.mul
        assert back.name == ring.name
        assert back.meta == ring.meta


def test_ring_dict_shape():
    doc = ring_to_dict(make_zx_mod(4, [1, 3]))
    assert doc["order"] == 4
    assert doc["mul"][1][1] == [1, 3]
    assert doc["meta"] == {"family": "zx_mod", "m": 4, "X": [1, 3]}


def test_strict_decoding_rejects_bad_documents():
    good = ring_to_dict(make_zx_mod(4, [2]))
    with pytest.raises(MalformedTables):
        ring_from_dict({**good, "order": 0})
    with pytest.raises(MalformedTables):
        ring_from_dict({k: v for k, v in good.items() if k != "add"})
    bad = json.loads(json.dumps(good))
    bad["mul"][1][1] = [2, 2]
    with pytest.raises(MalformedTables):
        ring_from_dict(bad)
    bad = json.loads(json.dumps(good))
    bad["mul"][1][1] = [7]
    with pytest.raises(MalformedTables):
        ring_from_dict(bad)
    bad = json.loads(json.dumps(good))
    bad["add"][0][0] = True
    with pytest.raises(MalformedTables):
        ring_from_dict(bad)
    with pytest.raises(MalformedTables):
        ring_from_dict({**good, "meta": "zx"})


def test_profile_encoding_uses_inf_token():
    prof = closed_profile(make_zx_mod(4, [1]), mask_of([0]), 4, 4)
    doc = profile_to_dict(prof)
    assert doc["omega"] == [1, 2, 2, 2]
    assert doc["Omega"] == [1, "inf", "inf", "inf"]
    assert doc["witnesses"] == {"2": 2, "3": 2, "4": 2}
    json.dumps(doc)


def test_ideal_and_fundamental_encodings():
    ring = make_zx_mod(4, [1])
    doc = ideal_to_dict(ring, mask_of([0, 2]))
    assert doc["members"] == [0, 2] and doc["class"]["prime"]
    fdoc = fundamental_to_dict(fundamental_ring(make_zx_mod(4, [1, 3])))
    assert fdoc == {"classes": [[0, 2], [1, 3]], "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}


def test_canonical_json_is_stable_and_strips_timing():
    a = {"b": 1, "a": [{"runtime_seconds": 9.1, "x": 2}], "total_runtime_seconds": 3.3}
    b = {"total_runtime_seconds": 1.1, "a": [{"x": 2, "runtime_seconds": 0.4}], "b": 1}
    assert canonical_json(a) == canonical_json(b) == '{"a":[{"x":2}],"b":1}'


def test_catalog_round_trip(tmp_path):
    cat = Catalog(str(tmp_path))
    ring = make_zx_mod(6, [1])
    rid = cat.put_ring(ring)
    assert rid == content_id(ring_to_dict(ring))
    assert cat.put_ring(ring) == rid
    assert cat.list_rings() == [rid]
    back = cat.get_ring(rid)
    assert back.mul == ring.mul
    res_id = cat.put_result({"passed": True, "total_runtime_seconds": 4.2})
    assert cat.get_result(res_id) == {"passed": True, "total_runtime_seconds": 4.2}
    assert cat.put_result({"passed": True, "total_runtime_seconds": 9.9}) == res_id


def _write_ring(tmp_path, ring, name="ring.json"):
    path = tmp_path / name
    write_json(str(path), ring_to_dict(ring))
    return str(path)


def test_cli_validate(tmp_path, capsys):
    path = _write_ring(tmp_path, make_zx_mod(4, [2]))
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "hyperring" in out and "sign_rule" in out

    doc = ring_to_dict(make_zx_mod(4, [2]))
    doc["mul"][1][1] = [1]
    bad = tmp_path / "bad.json"
    write_json(str(bad), doc)
    assert main(["validate", str(bad)]) == 1
    assert "not a hyperring" in capsys.readouterr().out


def test_cli_validate_missing_and_malformed_files(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["validate", str(garbled)]) == 2
    schema = tmp_path / "schema.json"
    schema.write_text('{"order": 2}')
    assert main(["validate", str(schema)]) == 2


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"add": 5}, "add must be a list of rows"),
        ({"add": [5, 5]}, "add row 0 must be a list"),
        ({"mul": 3}, "mul must be a list of rows"),
        ({"name": 7}, "name must be a string"),
        ({"order": True}, "order must be a positive integer"),
        ({"meta": []}, "meta must be an object"),
    ],
)
def test_cli_validate_rejects_mistyped_tables_and_name(tmp_path, capsys, edit, message):
    """Wrongly typed fields are schema errors with exit 2, not tracebacks or silently read."""
    path = tmp_path / "typed.json"
    write_json(str(path), {**ring_to_dict(make_zx_mod(2, [1])), **edit})
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_cli_classify_and_profile(tmp_path, capsys):
    path = _write_ring(tmp_path, make_zx_mod(4, [1]))
    assert main(["classify", path, "--ideal", "0,2"]) == 0
    assert "prime" in capsys.readouterr().out
    assert main(["classify", path, "--ideal", "0,1"]) == 2
    capsys.readouterr()
    assert main(["profile", path, "--ideal", "@enumerate"]) == 0
    out = capsys.readouterr().out
    assert "omega=[1, 2, 2, 2, 2, 2]" in out
    assert main(["profile", path, "--ideal", "0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["omega"] == [1, 2, 2, 2, 2, 2]


def test_cli_fundamental_and_closed(tmp_path, capsys):
    path = _write_ring(tmp_path, make_zx_mod(4, [1, 3]))
    assert main(["fundamental", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classes"] == [[0, 2], [1, 3]]
    assert main(["closed", path, "--ideal", "0", "--s", "2", "--n", "1"]) == 1
    assert "no" in capsys.readouterr().out
    assert main(["closed", path, "--ideal", "0", "--s", "2", "--n", "1", "--weakly"]) == 0


def test_cli_fundamental_names_the_broken_class_ring_law(tmp_path, capsys):
    """zx(5;2) with 1 + 1 = 0 has well-defined classes but a broken class ring."""
    doc = ring_to_dict(make_zx_mod(5, [2]))
    doc["add"][1][1] = 0
    path = tmp_path / "broken.json"
    write_json(str(path), doc)
    assert main(["fundamental", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: class ring breaks add_associative at classes (1, 1, 2)\n"


def test_cli_fundamental_names_the_element_shared_by_overlapping_cosets(tmp_path, capsys):
    """zx(6;1,3) with 1 + 2 = 5: the cosets of N = {0,2,4} are {0,2,4},
    {1,5} and {1,3,5}, which meet at 1 instead of partitioning the carrier."""
    doc = ring_to_dict(make_zx_mod(6, [1, 3]))
    doc["add"][1][2] = 5
    path = tmp_path / "overlap.json"
    write_json(str(path), doc)
    assert main(["fundamental", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coset of 3 meets the coset of 1 at element 1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--smax", "0"], "s_max must be an integer >= 1, got 0"),
        (["verify", "--nmax", "-2"], "n_max must be an integer >= 1, got -2"),
        (["verify", "--tuple-max", "0"], "tuple_max must be an integer >= 1, got 0"),
        (["verify", "--absorbing-max-n", "0"],
         "absorbing_max_n must be an integer >= 1, got 0"),
        (["verify", "--random", "-1"], "random_count must be an integer >= 0, got -1"),
        (["instances", "--random", "-3"], "random_count must be an integer >= 0, got -3"),
        (["profile", "RING", "--smax", "0"], "--smax must be at least 1, got 0"),
        (["profile", "RING", "--nmax", "-1"], "--nmax must be at least 1, got -1"),
        (["zx", "105", "2,4", "--n", "3", "--smax", "0"], "--smax must be at least 1, got 0"),
        (["verify", "--max-order", "0"], "max_order must be an integer >= 2, got 0"),
        (["verify", "--zx-max-modulus", "1"],
         "zx_max_modulus must be an integer >= 2, got 1"),
        (["verify", "--zx-max-modulus", "-5"],
         "zx_max_modulus must be an integer >= 2, got -5"),
        (["verify", "--zx-max-multipliers", "0"],
         "zx_max_multipliers must be an integer >= 1, got 0"),
    ],
)
def test_cli_refuses_degenerate_windows_and_negative_counts(
    argv, message, tmp_path, monkeypatch, capsys
):
    """A window bound below 1 or a negative count exits 2 before any ring is built."""
    path = _write_ring(tmp_path, make_zx_mod(4, [1]))
    built = []
    monkeypatch.setattr(harness, "make_zx_mod", lambda *args: built.append(args))
    monkeypatch.setattr(harness, "product_ring", lambda *args: built.append(args))
    assert main([path if arg == "RING" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message
    assert built == []


def test_cli_validate_of_a_directory_exits_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 21] Is a directory")


def _refuse_to_run(monkeypatch):
    """Make any suite run fail the test: the CLI must refuse before running."""
    def run_suite(cfg):
        raise AssertionError("the suite ran")

    monkeypatch.setattr("hyperring_lab.cli.run_suite", run_suite)


def test_cli_verify_refuses_a_file_as_catalog_before_the_run(tmp_path, monkeypatch, capsys):
    _refuse_to_run(monkeypatch)
    path = tmp_path / "catalog"
    path.write_text("")
    assert main(["verify", "--catalog", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --catalog path %s is not a directory\n" % path


def test_cli_verify_refuses_a_missing_json_directory_before_the_run(
    tmp_path, monkeypatch, capsys
):
    _refuse_to_run(monkeypatch)
    missing = tmp_path / "missing" / "dir"
    assert main(["verify", "--json", str(missing / "x.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --json directory %s does not exist\n" % missing
    assert main(["verify", "--json", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: --json path %s is a directory\n" % tmp_path


@st.composite
def corrupted_zx_docs(draw):
    """A zx table of order <= 6 with one or two add/mul cells overwritten."""
    m = draw(st.integers(2, 6))
    xs = draw(st.sets(st.integers(1, m - 1), min_size=1, max_size=2))
    doc = ring_to_dict(make_zx_mod(m, sorted(xs)))
    for _ in range(draw(st.integers(1, 2))):
        a, b = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        if draw(st.booleans()):
            doc["add"][a][b] = draw(st.integers(0, m - 1))
        else:
            cell = draw(st.sets(st.integers(0, m - 1), min_size=1))
            doc["mul"][a][b] = sorted(cell)
    return doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(corrupted_zx_docs(), st.integers(1, 4), st.integers(1, 4))
def test_cli_survives_corrupted_tables(tmp_path_factory, doc, s, n):
    """Every ring command exits 0, 1 or 2 on a corrupted table, never raising."""
    path = tmp_path_factory.getbasetemp() / "corrupted.json"
    write_json(str(path), doc)
    commands = (
        ["validate", str(path)],
        ["classify", str(path)],
        ["profile", str(path)],
        ["fundamental", str(path)],
        ["closed", str(path), "--s", str(s), "--n", str(n)],
    )
    for argv in commands:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv


_DEEP = "[" * 100_000 + "]" * 100_000
_WRONG_VALUES = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.lists(st.lists(st.integers(0, 3), max_size=2), min_size=1, max_size=2),
)


@st.composite
def malformed_docs(draw):
    """JSON text of a ring document with a wrong shape or type somewhere:
    a root that is no object, a non-integer order, a ragged or non-list row,
    a cell of the wrong kind, a mistyped name or meta, or deep nesting."""
    m = draw(st.integers(2, 4))
    doc = ring_to_dict(make_zx_mod(m, [1]))
    a, b = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    table = draw(st.sampled_from(["add", "mul"]))
    kind = draw(
        st.sampled_from(["root", "order", "ragged", "row", "cell", "name", "meta", "deep"])
    )
    if kind == "root":
        root = st.one_of(st.none(), st.integers(), st.text(), st.lists(st.integers()))
        return json.dumps(draw(root))
    if kind == "order":
        doc["order"] = draw(st.one_of(st.booleans(), st.floats(allow_nan=False), st.text()))
    elif kind == "ragged":
        row = doc[table][a]
        if draw(st.booleans()):
            del row[b]
        else:
            row.append(row[b])
    elif kind == "row":
        not_a_row = st.one_of(
            st.none(), st.integers(), st.text(), st.dictionaries(st.text(), st.integers())
        )
        doc[table][a] = draw(not_a_row)
    elif kind == "cell":
        doc[table][a][b] = draw(_WRONG_VALUES)
    elif kind == "name":
        doc["name"] = draw(_WRONG_VALUES.filter(lambda v: not isinstance(v, str)))
    elif kind == "meta":
        doc["meta"] = draw(_WRONG_VALUES.filter(lambda v: not isinstance(v, dict)))
    else:
        if draw(st.booleans()):
            return _DEEP
        doc[table][a][b] = "DEEP"
        return json.dumps(doc).replace('"DEEP"', _DEEP)
    return json.dumps(doc)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(malformed_docs())
def test_cli_refuses_malformed_documents(tmp_path_factory, text):
    """Every ring command exits 2 with a message on a document of the wrong
    shape or types, deep nesting included, never raising."""
    path = tmp_path_factory.getbasetemp() / "malformed.json"
    path.write_text(text)
    for argv in (
        ["validate", str(path)],
        ["classify", str(path)],
        ["profile", str(path)],
        ["fundamental", str(path)],
        ["closed", str(path), "--s", "2", "--n", "1"],
    ):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code == 2, argv
        assert err.getvalue().startswith("error: "), argv


def test_cli_zx_sweep(capsys):
    assert main(["zx", "105", "2,4", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "closed for all s <= 12: yes" in out
    assert main(["zx", "4", "2", "--n", "1", "--smax", "3"]) == 1
    out = capsys.readouterr().out
    assert "no (residue 2)" in out
    assert main(["zx", "6", "0,2", "--n", "1"]) == 2


def test_cli_zx_decides_a_modulus_past_any_residue_loop(capsys):
    """Moduli near 10^9 are decided without visiting the residues.

    For the prime 1000000007 and X = {2, 3}, gcd 1, m_k = d for every k, so
    no residue fails.  For d = 10^9 = 2^9 * 5^9 and X = {10}, d' = d / 10^(k-1)
    gives m_1 = d, m_2 = 10^4, m_3 = 10^3 and m_4 = 10^2, so with n = 2 the
    pairs s = 3 and s = 4 fail at 1000 and 100."""
    start = time.perf_counter()
    assert main(["zx", "1000000007", "2,3", "--n", "2", "--smax", "12"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["s=%d n=2: closed: yes" % s for s in range(1, 13)] + [
        "closed for all s <= 12: yes"
    ]
    assert main(["zx", "1000000000", "10", "--n", "2", "--smax", "4"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "s=1 n=2: closed: yes",
        "s=2 n=2: closed: yes",
        "s=3 n=2: closed: no (residue 1000)",
        "s=4 n=2: closed: no (residue 100)",
        "closed for all s <= 4: no",
    ]
    assert time.perf_counter() - start < 0.5


def test_cli_instances(capsys):
    assert main(["instances"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 275


def test_cli_verify_small_subset(tmp_path, capsys):
    args = ["verify", "--checks", "R2_rad,T2_13", "--zx-max-modulus", "5",
            "--product-factor-max-order", "2", "--json", str(tmp_path / "report.json"), "--table"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "R2_rad" in out and "pass" in out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["passed"] is True
    assert [r["check"] for r in doc["reports"]] == ["R2_rad", "T2_13"]


def test_cli_verify_reports_failures(capsys, tmp_path):
    args = ["verify", "--checks", "T2_9", "--catalog", str(tmp_path)]
    assert main(args) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "zx(4;1,3)" in out
    assert "stored in" in out
    cat = Catalog(str(tmp_path))
    stored = cat.get_result(cat.list_results()[0])
    assert stored["reports"][0]["counterexample"]["sn"] == [2, 1]


def test_cli_verify_rejects_negative_thread_count(capsys):
    assert main(["verify", "--checks", "R2_rad", "--threads", "-4"]) == 2
    assert "threads must be a positive integer" in capsys.readouterr().err


def test_cli_verify_rejects_non_integer_thread_environment(monkeypatch, capsys):
    monkeypatch.setenv("HYPERRING_LAB_THREADS", "abc")
    assert main(["verify", "--checks", "R2_rad"]) == 2
    assert "HYPERRING_LAB_THREADS must be a positive integer" in capsys.readouterr().err


def test_cli_verify_refuses_max_order_above_enumeration_cap(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(harness, "make_zx_mod", lambda *args: built.append(args))
    monkeypatch.setattr(harness, "product_ring", lambda *args: built.append(args))
    assert main(["verify", "--max-order", "20"]) == 2
    assert "max_order 20 exceeds the hyperideal enumeration cap of order 16" in (
        capsys.readouterr().err
    )
    assert built == []


def test_cli_verify_canonical_reports_are_byte_identical(tmp_path):
    base = ["verify", "--checks", "D3_w", "--zx-max-modulus", "4",
            "--product-factor-max-order", "2", "--random", "3", "--seed", "11"]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(base + ["--json", str(out1)]) == 0
    assert main(base + ["--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command", [["closed", "--s", "2", "--n", "1"], ["profile"]])
def test_cli_refuses_the_whole_carrier_as_ideal(tmp_path, capsys, command):
    """The whole carrier is a hyperideal but not a proper one: refused, not
    skipped with an empty, passing output."""
    path = _write_ring(tmp_path, make_zx_mod(4, [1]))
    assert main([command[0], path, "--ideal", "0,1,2,3", *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the whole carrier is not a proper hyperideal\n"


def test_cli_verify_refuses_checks_naming_no_check(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(harness, "make_zx_mod", lambda *args: built.append(args))
    assert main(["verify", "--checks", ""]) == 2
    assert capsys.readouterr().err.startswith("error: no check named ''; known: T2_3, ")
    assert built == []
    with pytest.raises(ValueError, match="check_ids must name at least one check"):
        harness.run_suite(harness.SuiteConfig(check_ids=()))
