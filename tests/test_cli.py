import copy
import dataclasses
import json
import pathlib
import random
import sys

import pytest

from traced import parse_rat, rat
from traced._rat import rat_str
from traced.cli import main
from traced.dsl.parser import tokenize
from traced.serde import load_value
from traced.suites import REGISTRY

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "src" / "traced" / "data" / "corpus"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_single_suite_text(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "core.laws.finvect",
                           "--trials", "10", "--seed", "7")
    assert code == 0
    assert "PASS core.laws.finvect" in out


def test_check_json_validates_and_is_deterministic(capsys):
    args = ("check", "--suite", "dual.trace.finvect", "--trials", "15",
            "--seed", "5", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema_version"] == 1
    assert doc["passed"] is True
    import jsonschema
    from traced.cli import _schema

    jsonschema.validate(doc, _schema())


def test_check_different_seeds_allowed(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "core.laws.rbord1",
                           "--trials", "5", "--seed", "123")
    assert code == 0


def test_traced_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("TRACED_SEED", "99")
    args = ("check", "--suite", "core.symmetry.finvect", "--trials", "5", "--format", "json")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 99


def test_spellings_of_one_q_give_one_report(capsys):
    """The report echoes q in lowest terms, so every spelling of one
    rational runs the same graded instance and prints the same bytes."""
    outs = {run_cli(capsys, "check", "--suite", "balanced.twist", "--suite", "whtr.3.graded",
                    "--trials", "3", "--format", "json", "--q", q)
            for q in ("3/2", "6/4", " 3/2", "+3/2")}
    ((code, out, err),) = outs
    assert (code, err) == (0, "")
    assert json.loads(out)["config"]["q"] == "3/2"


def test_unknown_suite_errors(capsys):
    code, _out, err = run_cli(capsys, "check", "--suite", "nope.nothing", "--trials", "5")
    assert code == 2
    assert err == "no suite matches 'nope.nothing'\n"


def test_overlapping_suite_patterns_run_each_suite_once(capsys):
    code, out, err = run_cli(capsys, "check", "--suite", "bord.glue", "--suite", "bord",
                             "--trials", "2", "--format", "json")
    assert code == 0 and err == ""
    ids = [r["id"] for r in json.loads(out)["suites"]]
    bord = [sid for sid in REGISTRY if sid.startswith("bord")]
    assert "bord.glue" in bord
    assert ids == ["bord.glue"] + [sid for sid in bord if sid != "bord.glue"]


def test_every_suite_pattern_is_validated_before_running(capsys):
    code, out, err = run_cli(capsys, "check", "--suite", "all", "--suite", "nosuch",
                             "--trials", "1", "--format", "json")
    assert code == 2
    assert out == ""
    assert err == "no suite matches 'nosuch'\n"


def test_key_error_inside_a_suite_is_not_an_unknown_suite(monkeypatch):
    """Exit code 2 means unusable input only: a KeyError raised by a suite's
    check is not reported as an unknown suite."""
    sid = "core.laws.finvect"

    def check(_inputs):
        raise KeyError("raised inside the check")

    monkeypatch.setitem(REGISTRY, sid, dataclasses.replace(REGISTRY[sid], check=check))
    with pytest.raises(KeyError, match="raised inside the check"):
        main(["check", "--suite", sid, "--trials", "1"])


def test_negative_control_fails_and_twistless_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "balanced.negative-control",
                           "--trials", "30", "--seed", "1")
    assert code == 1
    assert "FAIL balanced.negative-control" in out
    code, out, _ = run_cli(capsys, "check", "--suite", "balanced.twistless-control",
                           "--trials", "30", "--seed", "1")
    assert code == 0
    assert "counterexamples=" in out


def test_list_suites(capsys):
    code, out, _ = run_cli(capsys, "check", "--list")
    assert code == 0
    assert "sec2.partition" in out
    assert "dsl.corpus" in out


def test_replay_found_counterexample(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "balanced.twistless-control",
                           "--trials", "30", "--seed", "1", "--format", "json")
    doc = json.loads(out)
    report = tmp_path / "report.json"
    report.write_text(out)
    code, out, _ = run_cli(capsys, "check", "--replay", str(report))
    assert code == 0
    assert "reproduced" in out


def test_replay_single_entry(tmp_path, capsys):
    data = json.loads(
        (pathlib.Path(__file__).resolve().parent.parent / "src" / "traced" / "data"
         / "crossing_counterexample.json").read_text()
    )
    entry = {"suite": "graded.crossing-regression", "inputs": data["inputs"]}
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(entry))
    code, out, _ = run_cli(capsys, "check", "--replay", str(path))
    assert code == 0
    assert "reproduced" in out


def test_eval_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.diag"
    good.write_text((CORPUS / "finvect_pairing.diag").read_text())
    code, out, _ = run_cli(capsys, "eval", str(good))
    assert code == 0
    assert "assert ok" in out

    bad = tmp_path / "bad.diag"
    bad.write_text("instance finvect\nobj X = 2\nmor a : I -> I = [[1]]\n"
                   "mor b : I -> I = [[2]]\nassert_equal(a, b)\n")
    code, out, _ = run_cli(capsys, "eval", str(bad))
    assert code == 1
    assert "ASSERT FAILED" in out

    broken = tmp_path / "broken.diag"
    broken.write_text("instance finvect\nobj X = (2\n")
    code, _out, err = run_cli(capsys, "eval", str(broken))
    assert code == 2
    assert "expected" in err

    code, _out, err = run_cli(capsys, "eval", str(tmp_path / "missing.diag"))
    assert code == 2


def test_eval_thickens_a_morphism_of_the_zero_object(tmp_path, capsys):
    path = tmp_path / "zero.diag"
    path.write_text("instance finvect\nobj X = 0\nmor f : X -> X = []\n"
                    "print(trace_hat(thicken(f)))\nprint(pairing(f, f))\n")
    assert run_cli(capsys, "eval", str(path)) == (0, "0\n0\n", "")


def test_eval_refuses_to_cut_a_thin_strand(tmp_path, capsys):
    """Cutting f (x) id_Z names the thin strand of the identity, with exit 2,
    instead of reporting a zero arc length the program never wrote."""
    path = tmp_path / "c.diag"
    path.write_text("instance rbord1\nobj X = pts{x}\nobj Z = pts{z}\n"
                    "mor f : X -> X = bord{x->x : 1}\nprint(trace_hat(cut(f * id(Z), 1/3)))\n")
    assert run_cli(capsys, "eval", str(path)) == (
        2, "", f"{path}:5:1: the strand z -> z is an isometry strand of length 0;"
               " only bordisms can be cut\n")


@pytest.mark.parametrize("program, line", [
    ("instance graded(q=1/0)\n", "1:19: zero denominator in 1/0"),
    ("instance finvect\nobj X = 1\nmor f : X -> X = [[1/0]]\n",
     "3:20: zero denominator in 1/0"),
    ("instance rbord1\nobj X = pts{x}\nmor f : X -> X = bord{x->x : 1/0}\n",
     "3:30: zero denominator in 1/0"),
    ("instance rbord1\nmor f : I -> I = bord{loop: 1/0}\n", "2:29: zero denominator in 1/0"),
    ("instance rbord1\nobj X = pts{x}\nmor f : X -> X = bord{x->x : 1}\n"
     "print(trace_hat(cut(f, 1/0)))\n", "4:24: zero denominator in 1/0"),
    ("instance finvect\nobj X = \u00b2\n", "2:9: unexpected character '\u00b2'"),
], ids=["graded-q", "matrix-entry", "arc-length", "loop-length", "cut-fraction", "superscript"])
def test_eval_rejects_bad_numbers_with_a_position(tmp_path, capsys, program, line):
    path = tmp_path / "bad.diag"
    path.write_text(program)
    code, out, err = run_cli(capsys, "eval", str(path))
    assert (code, out, err) == (2, "", f"{path}:{line}\n")


@pytest.mark.parametrize("q, message", [
    ("1", "q must be a rational with q^2 != 1 (keeps the braiding non-symmetric)"),
    ("-1", "q must be a rational with q^2 != 1 (keeps the braiding non-symmetric)"),
    ("0", "q must be nonzero"),
], ids=["1", "-1", "0"])
def test_eval_rejects_bad_graded_q_at_the_header(tmp_path, capsys, q, message):
    path = tmp_path / "bad_q.diag"
    path.write_text(f"# a comment line\ninstance graded(q={q})\nobj X = graded{{0: 1}}\n")
    code, out, err = run_cli(capsys, "eval", str(path))
    assert (code, out) == (2, "")
    assert err == f"{path}:2:1: {message}\n"


@pytest.mark.parametrize("command, out", [
    ("print(theta(L))", None),
    ("assert_equal(theta(L), theta(L))", "line 3: assert ok\n"),
], ids=["print", "assert_equal"])
def test_eval_writes_values_past_the_int_digit_limit(tmp_path, capsys, command, out):
    """theta(L) on graded{120: 1} at q = 2 is [[2^14400]], 4335 digits, more
    than Python writes through str() by default; it is written in full."""
    path = tmp_path / "big.diag"
    path.write_text(f"instance graded(q=2)\nobj L = graded{{120: 1}}\n{command}\n")
    code, printed, err = run_cli(capsys, "eval", str(path))
    assert (code, err) == (0, "")
    if out is None:
        entry = printed.strip("[]\n")
        assert len(entry) == 4335 and entry.isdigit()
        assert int(entry[:40]) == 2 ** 14400 // 10 ** 4295
        assert int(entry[-40:]) == pow(2, 14400, 10 ** 40)
    else:
        assert printed == out


@pytest.mark.parametrize("program, line", [
    ("instance finvect\nobj X = 1\nmor f : X -> X = [[{n}]]\nprint(f)\n", "3:20"),
    ("instance finvect\nobj X = {n}\nprint(id(X))\n", "2:9"),
], ids=["matrix-entry", "object-dim"])
def test_eval_refuses_a_number_past_the_int_digit_limit(tmp_path, capsys, program, line):
    path = tmp_path / "big.diag"
    path.write_text(program.format(n="9" * 5000))
    limit = sys.get_int_max_str_digits()
    assert run_cli(capsys, "eval", str(path)) == (
        2, "", f"{path}:{line}: number has more than {limit} digits\n")


@pytest.mark.parametrize("instance, obj", [
    ("finvect", "{n}"),
    ("supervect", "super({n}, 0)"),
    ("graded(q=2)", "graded{{0: {n}}}"),
], ids=["finvect", "supervect", "graded"])
def test_eval_refuses_an_object_dimension_no_index_reaches(tmp_path, capsys, instance, obj):
    n = sys.maxsize + 1
    path = tmp_path / "huge.diag"
    path.write_text(f"instance {instance}\nobj X = {obj.format(n=n)}\nprint(id(X))\n")
    assert run_cli(capsys, "eval", str(path)) == (
        2, "", f"{path}:2:9: dimension {n} is too large\n")


def test_rat_str_matches_str_without_the_digit_limit():
    values = [rat(0), rat(-7), rat(3, 8), rat(-2 ** 20000), rat(10 ** 4400),
              rat(3 ** 9000, 7 ** 5000), rat(-1, 10 ** 5000 - 1)]
    written = [rat_str(v) for v in values]
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        assert written == [str(v) for v in values]
        assert tokenize("9" * 5000)[0].kind == "number"
    finally:
        sys.set_int_max_str_digits(old)


def test_demo_partition(tmp_path, capsys):
    matrix = tmp_path / "a.json"
    matrix.write_text('[["1", "1"], ["0", "1"]]')
    code, out, _ = run_cli(capsys, "demo", "partition", "--matrix", str(matrix),
                           "--length", "2")
    assert code == 0
    assert "identity holds exactly" in out
    assert ": 2" in out  # classtr(A^2) = 2 for the shear matrix

    diag = tmp_path / "d.json"
    diag.write_text("[[2, 0], [0, 3]]")
    code, out, _ = run_cli(capsys, "demo", "partition", "--matrix", str(diag),
                           "--length", "2")
    assert code == 0
    assert "13" in out


def test_demo_partition_swap_matrix(tmp_path, capsys):
    matrix = tmp_path / "swap.json"
    matrix.write_text("[[0, 1], [1, 0]]")
    code, out, _ = run_cli(capsys, "demo", "partition", "--matrix", str(matrix),
                           "--length", "3")
    assert code == 0
    assert ": 0" in out  # classtr(A^3) = 0 for the swap matrix


def test_demo_partition_writes_sides_past_the_int_digit_limit(tmp_path, capsys):
    """classtr(A^10000) = 2^10000 + 3^10000 has 4772 digits."""
    matrix = tmp_path / "d.json"
    matrix.write_text("[[2, 0], [0, 3]]")
    code, out, err = run_cli(capsys, "demo", "partition", "--matrix", str(matrix),
                             "--length", "10000")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    closed, paired = (line.rpartition(" : ")[2] for line in lines[1:3])
    assert closed == paired and len(closed) == 4772
    assert int(closed[-40:]) == (pow(2, 10000, 10 ** 40) + pow(3, 10000, 10 ** 40)) % 10 ** 40
    assert lines[3] == "  identity holds exactly"


def test_demo_partition_identity_any_length(tmp_path, capsys):
    matrix = tmp_path / "i.json"
    matrix.write_text("[[1, 0, 0], [0, 1, 0], [0, 0, 1]]")
    for n in (1, 2, 3, 4):
        code, out, _ = run_cli(capsys, "demo", "partition", "--matrix", str(matrix),
                               "--length", str(n))
        assert code == 0
        assert ": 3" in out
        assert ("length 1 cannot be split" in out) == (n == 1)


def assert_input_error(code, out, err):
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.strip()


@pytest.mark.parametrize("flag, value", [
    *(pytest.param("--q", q, id=q) for q in ("1", "0", "-1", "x", "1/0")),
    *(pytest.param("--trials", n, id=f"trials={n}") for n in ("0", "-3")),
])
def test_check_rejects_bad_q_before_running(capsys, flag, value):
    """A bad --q or a --trials below 1 exits 2 with one stderr line."""
    assert_input_error(*run_cli(capsys, "check", "--suite", "core.laws.finvect",
                                "--trials", "1", flag, value))


@pytest.mark.parametrize("q", ["1e3", "1E+3", "1_000", "1.5", "\u0663"])
def test_check_rejects_q_outside_p_or_p_over_q(capsys, q):
    """--q takes only `p` or `p/q` in ASCII digits: an exponent, an
    underscore, a decimal point or a non-ASCII digit exits 2."""
    assert_input_error(*run_cli(capsys, "check", "--suite", "core.laws.finvect",
                                "--trials", "1", "--q", q))


@pytest.mark.parametrize("text", ["1e3", "1E+3", "1_000", "1.5", "\u0663", "", "3/", "/2",
                                  "3 / 2", "--1", "1/-2"])
def test_parse_rat_rejects_other_forms(text):
    with pytest.raises(ValueError):
        parse_rat(text)


def test_parse_rat_reads_p_and_p_over_q():
    assert parse_rat(" -6/4 ") == rat(-3, 2)
    assert parse_rat("+7") == 7 and type(parse_rat("7")) is rat
    with pytest.raises(ZeroDivisionError):
        parse_rat("1/0")


def test_replayed_lengths_and_values_use_the_same_grammar():
    """Replay files go through parse_rat too, so an exponent is refused
    there before any digit is computed."""
    bord = {"kind": "bord-mor", "instance": "rbord1", "source": ["x"], "target": ["x"],
            "arcs": [[["in", "x"], ["out", "x"], "1e3"]], "circles": []}
    with pytest.raises(ValueError):
        load_value(bord)
    with pytest.raises(ValueError):
        load_value({"kind": "rat", "value": "1E+3"})


@pytest.mark.parametrize("content", [
    None,  # missing file
    "[[1, 2], [3]]",
    '[[1, "x"], [0, 1]]',
    "[]",
    "[[1, 2]]",
    "{not json",
    "[[0.5]]",  # a JSON float is neither an integer nor a "p/q" string
    "[1, 2]",
    "5",
])
def test_demo_partition_rejects_bad_matrix_files(tmp_path, capsys, content):
    """Exit 2 is a rejected input; exit 1 stays the identity failing."""
    path = tmp_path / "matrix.json"
    if content is not None:
        path.write_text(content)
    assert_input_error(*run_cli(capsys, "demo", "partition", "--matrix", str(path),
                                "--length", "3"))


def test_check_rejects_non_integer_traced_seed(capsys, monkeypatch):
    monkeypatch.setenv("TRACED_SEED", "abc")
    assert_input_error(*run_cli(capsys, "check", "--suite", "core.laws.finvect",
                                "--trials", "1"))


@pytest.mark.parametrize("content", [
    None,  # missing file
    "{not json",
    "[1, 2]",
    '"suites"',
    '{"suites": [1]}',
    '{"suites": [{"id": "whtr.1.finvect", "counterexample": {"detail": "x"}}]}',
    '{"suite": "nope.nothing", "inputs": {}}',
    '{"suite": "whtr.1.finvect", "inputs": {}}',
    '{"suite": "whtr.1.finvect", "inputs": {"t": {"kind": "matrix-mor"}}}',
    '{"suite": "whtr.1.finvect", "inputs": {"t": {"kind": "rat", "value": "1/0"}}}',
    '{"suite": "whtr.1.finvect", "inputs": {"t": {"kind": "object", "instance": "finvect",'
    ' "payload": [0, 0]}}}',
    '{"suite": "whtr.1.finvect", "inputs": {"t": {"kind": "triple", "dom": {}, "cod": {},'
    ' "z": {}, "t": {}, "b": {}}}}',
    '{"suite": "whtr.1.finvect", "inputs": {"t": {"kind": "int", "value": 1}}}',
    '{"neither": 1}',
    # stored inputs that are not an object, such as a corpus trial index
    '{"suite": "dsl.corpus", "inputs": 5}',
    '{"suites": [{"id": "dsl.corpus", "counterexample": {"inputs": [0]}}]}',
    *(pytest.param(json.dumps({"suite": sid, "inputs": {}}), id=f"no-inputs-{sid}")
      for sid in REGISTRY),
])
def test_replay_rejects_bad_files(tmp_path, capsys, content):
    path = tmp_path / "replay.json"
    if content is not None:
        path.write_text(content)
    assert_input_error(*run_cli(capsys, "check", "--replay", str(path)))


@pytest.mark.parametrize("instance, degree", [("supervect", 2), ("finvect", 1)])
def test_replay_refuses_matrix_objects_outside_the_grading_group(tmp_path, capsys, instance,
                                                                  degree):
    """A stored morphism [d] -> [d] whose degree tensor_obj reduces is no
    morphism of the instance: replaying it is an input error, not a
    strict-unit counterexample to a law that holds."""
    m = {"kind": "matrix-mor", "instance": instance, "source": [degree], "target": [degree],
         "rows": 1, "cols": 1, "entries": {"0,0": "1"}}
    path = tmp_path / "entry.json"
    path.write_text(json.dumps({"suite": f"core.laws.{instance}",
                                "inputs": dict.fromkeys("fghpq", m)}))
    code, out, err = run_cli(capsys, "check", "--replay", str(path))
    assert_input_error(code, out, err)
    assert err == (f"cannot replay {path}: DomainMismatch: object ({degree},) has degrees"
                   f" outside the grading group of '{instance}'\n")


DATA = CORPUS.parent
PINNED = {suite.pinned: sid for sid, suite in REGISTRY.items() if suite.pinned}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_files_replay_through_the_cli(capsys, name):
    """Each pinned counterexample file is a {"suite", "inputs"} entry that
    names the suite pinning it, and `--replay` reproduces it as it is."""
    assert json.loads((DATA / name).read_text())["suite"] == PINNED[name]
    code, out, err = run_cli(capsys, "check", "--replay", str(DATA / name))
    assert (code, err) == (0, "")
    assert out.startswith(f"{PINNED[name]}: reproduced (")


# What a mutation puts in place of a value: other kinds, small numbers,
# bad rationals and other instance ids.  Numbers stay small, so that no
# mutant asks for an unbounded allocation.
_REPLACEMENTS = (None, True, 0, 1, -1, 2, 1.5, "", "x", "1/0", "-1", "2/3", [], {}, [0], [1, 2],
                 [[0, 0]], "finvect", "supervect", "rbord1", "graded(q=3/2)", "graded(q=1)",
                 "matrix-mor", "iso-mor", "bord-mor", "rat", "str")


def replay_mutants(seed: int, count: int):
    """`count` replay entries, each a pinned counterexample file with one to
    three seeded mutations of its inputs: a value replaced or deleted, or
    the value of another key copied in."""
    rng = random.Random(seed)
    files = sorted(PINNED)
    docs = {name: json.loads((DATA / name).read_text())["inputs"] for name in files}
    for _ in range(count):
        name = rng.choice(files)
        inputs = copy.deepcopy(docs[name])
        for _ in range(rng.randint(1, 3)):
            node, paths = inputs, []
            while isinstance(node, (dict, list)) and node:
                key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
                paths.append((node, key))
                if rng.random() < 0.3:
                    break
                node = node[key]
            if not paths:
                continue
            parent, key = rng.choice(paths)
            roll = rng.random()
            if roll < 0.2 and isinstance(parent, dict):
                del parent[key]
            elif roll < 0.35:
                parent[key] = copy.deepcopy(rng.choice(list(inputs.values())))
            else:
                parent[key] = copy.deepcopy(rng.choice(_REPLACEMENTS))
        yield {"suite": PINNED[name], "inputs": inputs}


def test_replay_mutants_of_pinned_files_exit_cleanly(tmp_path, capsys):
    """A seeded fuzz of the two pinned counterexamples through --replay: no
    exception escapes, exit 2 prints exactly one stderr line, and the other
    exits print nothing there."""
    path = tmp_path / "mutant.json"
    codes = set()
    for entry in replay_mutants(seed=13, count=400):
        path.write_text(json.dumps(entry))
        code, _out, err = run_cli(capsys, "check", "--replay", str(path))
        codes.add(code)
        if code == 2:
            assert err.count("\n") == 1 and err.strip() and "Traceback" not in err, entry
        else:
            assert code in (0, 1) and err == "", entry
    assert codes == {0, 1, 2}


def _chain(n):
    return "instance finvect\nobj X = 2\nprint(" + " ; ".join(["id(X)"] * n) + ")\n"


@pytest.mark.parametrize("name, content, argv", [
    pytest.param("chain.diag", _chain(600), ("eval",), id="eval-chain"),
    pytest.param("parens.diag", "instance finvect\nobj X = 2\nprint(" + "(" * 3000 + "id(X)"
                 + ")" * 3000 + ")\n", ("eval",), id="eval-parens"),
    pytest.param("replay.json", '{"suite": "bord.glue", "inputs": ' + "[" * 100000
                 + "]" * 100000 + "}", ("check", "--replay"), id="replay"),
    pytest.param("matrix.json", "[" * 100000 + "]" * 100000,
                 ("demo", "partition", "--length", "3", "--matrix"), id="matrix"),
])
def test_input_nested_too_deeply_exits_2(tmp_path, capsys, name, content, argv):
    """Nesting past the interpreter's recursion limit is rejected input: one
    stderr line naming the file and exit 2, not a traceback and exit 1."""
    path = tmp_path / name
    path.write_text(content)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert_input_error(code, out, err)
    assert str(path) in err


@pytest.mark.parametrize("argv", [
    pytest.param(("eval",), id="eval"),
    pytest.param(("check", "--replay"), id="replay"),
    pytest.param(("demo", "partition", "--length", "3", "--matrix"), id="matrix"),
])
def test_input_not_utf8_exits_2(tmp_path, capsys, argv):
    """A file that does not decode as UTF-8 is rejected input: one stderr
    line naming the file and exit 2, not a traceback and exit 1."""
    path = tmp_path / "input"
    path.write_bytes(b"instance finvect\n\xff\n")
    code, out, err = run_cli(capsys, *argv, str(path))
    assert_input_error(code, out, err)
    assert str(path) in err


def test_long_flat_chain_still_evaluates(tmp_path, capsys):
    path = tmp_path / "chain.diag"
    path.write_text(_chain(450))
    assert run_cli(capsys, "eval", str(path)) == (0, "[[1, 0], [0, 1]]\n", "")
