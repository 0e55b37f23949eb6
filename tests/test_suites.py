import hashlib
import json
import pathlib
from importlib import resources

import pytest

from traced.suites import REGISTRY, SuiteConfig, run_one, run_suite, run_trial
from traced import serde

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "traceability.md"


def test_registry_ids_unique_and_well_formed():
    assert len(REGISTRY) == len(set(REGISTRY))
    for sid, suite in REGISTRY.items():
        assert suite.suite_id == sid
        assert suite.tag
        assert suite.description


def test_traceability_matrix_covers_registry():
    """Every tag documented maps to >= 1 suite and every suite id appearing
    in the table exists; every registry tag is documented (no orphans)."""
    text = DOCS.read_text()
    rows = [line for line in text.splitlines() if line.startswith("| ") and "---" not in line]
    table = {}
    for row in rows[1:]:
        cells = [c.strip() for c in row.strip("|").split("|")]
        tag, _meaning, suite_list = cells
        table[tag] = [s.strip() for s in suite_list.split(",")]
    registry_tags = {s.tag for s in REGISTRY.values()}
    assert registry_tags == set(table), "tag vocabulary out of sync with docs"
    for tag, suite_ids in table.items():
        assert suite_ids, f"tag {tag} is orphaned"
        for sid in suite_ids:
            assert sid in REGISTRY, f"documented suite {sid} does not exist"
            assert REGISTRY[sid].tag == tag
    documented = {sid for ids in table.values() for sid in ids}
    assert documented == set(REGISTRY), "some suites are undocumented"


def test_determinism_same_seed_same_report():
    cfg = SuiteConfig(suites=("core.laws.finvect", "bord.glue"), seed=11, trials=20)
    r1 = run_suite(cfg).as_json()
    r2 = run_suite(cfg).as_json()
    assert r1 == r2


def test_trial_streams_are_independent_of_order():
    cfg = SuiteConfig(seed=3, trials=10)
    a = run_one(REGISTRY["whtr.1.finvect"], cfg).as_json()
    run_one(REGISTRY["whtr.1.graded"], cfg)
    b = run_one(REGISTRY["whtr.1.finvect"], cfg).as_json()
    assert a == b


def test_failure_serialization_roundtrip():
    """A drawn trial's inputs serialize, and replaying them gives the drawn
    verdict: a passing input replays as passing."""
    suite = REGISTRY["dual.trace.finvect"]
    inputs, (ok, _) = run_trial(suite, SuiteConfig(seed=2, trials=3), 0)
    assert ok
    assert run_trial(suite, None, serde.dump_inputs(inputs))[1] == (True, "")


PINNED = {suite.pinned: sid for sid, suite in REGISTRY.items() if suite.pinned}


def test_replay_pinned_counterexamples():
    assert sorted(PINNED) == ["crossing_counterexample.json", "twistless_counterexample.json"]
    for name, sid in PINNED.items():
        data = json.loads(resources.files("traced").joinpath(f"data/{name}").read_text())
        assert data["suite"] == sid
        _inputs, (holds, _detail) = run_trial(REGISTRY[sid], None, data["inputs"])
        assert not holds, f"pinned regression for {sid} no longer violates"


def test_negative_control_finds_nothing():
    """The plain-swap control cannot find a counterexample (see the Notes
    of docs/traceability.md); its result must honestly report failure."""
    cfg = SuiteConfig(seed=13, trials=60)
    res = run_one(REGISTRY["balanced.negative-control"], cfg)
    assert res.expect_counterexample
    assert res.counterexamples_found == 0
    assert not res.passed


def test_twistless_control_finds_counterexamples():
    cfg = SuiteConfig(seed=13, trials=60)
    res = run_one(REGISTRY["balanced.twistless-control"], cfg)
    assert res.counterexamples_found > 0
    assert res.passed
    assert res.counterexample is not None
    # and the recorded counterexample replays with the recorded detail
    _inputs, verdict = run_trial(REGISTRY[res.suite_id], None, res.counterexample["inputs"])
    assert verdict == (False, res.counterexample["detail"])


def test_corpus_suite_counts_files():
    cfg = SuiteConfig(seed=1, trials=5)
    res = run_one(REGISTRY["dsl.corpus"], cfg)
    assert res.trials == 50
    assert res.passed


def test_all_suites_pass_small_budget_except_designed_red():
    cfg = SuiteConfig(seed=20250811, trials=25)
    report = run_suite(cfg)
    failing = [r.suite_id for r in report.results if not r.passed]
    assert failing == ["balanced.negative-control"]


# The matrix triple-calculus suites, plus the twistless control, whose
# recorded counterexample puts serialized matrix entries into the report.
PINNED_SUITES = (
    *(f"{fam}.{key}" for key in ("finvect", "supervect", "graded")
      for fam in ("whtr.welldef", "whtr.1", "whtr.pad", "whtr.2", "main2.1", "main2.2",
                  "pairing.trace", "dual.bijection")),
    *(f"dual.trace.{key}" for key in ("finvect", "supervect")),
    *(f"{fam}.{key}" for key in ("supervect", "graded") for fam in ("whtr.3", "main2.3")),
    "balanced.twistless-control",
)
PINNED_REPORT_SHA256 = "d53845896cc99025f2a2b601a9b9c98a869758d56591c39c6d91463ce469406f"
# Every registered suite, so that registry order, the corpus trial count and
# every verdict enter the hashed bytes.
ALL_SUITES_REPORT_SHA256 = "793d5c18fe3342a4d62a02d4a5b965dad485289f76447f5ee01c2b39a9b8ccd3"


@pytest.mark.parametrize("cfg, digest", [
    pytest.param(SuiteConfig(suites=PINNED_SUITES, seed=7, trials=10, max_dim=6,
                             max_degree=8, q="3/2"),
                 PINNED_REPORT_SHA256, id="matrix-triples"),
    pytest.param(SuiteConfig(seed=7, trials=5, q="3/2"), ALL_SUITES_REPORT_SHA256,
                 id="all-suites"),
])
def test_report_bytes_are_pinned(cfg, digest):
    """The canonical JSON that `traced check --format json` prints for each
    config hashes to a constant recorded on earlier code.  The
    matrix-triples case runs at q = 3/2 with degrees up to 8, so that the
    switching scalars q^{mn + m^2} reach high powers; it was recorded before
    the integer matrix core replaced the Fraction-dict storage.  The
    all-suites case was recorded before the suites became declaratively
    registered families with one trial loop, and re-recorded when
    dual.trace.graded joined the registry, and again when
    kernel.oracle.rbord1 did; each time, the report with the new suite's
    entry removed hashes to the earlier constant."""
    text = json.dumps(run_suite(cfg).as_json(), indent=1, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


GENERATED_INPUTS_SHA256 = "b0720ed97a70a0b367bd97e100ecb1ebcf85a8f1ab8c0e2d01c8a91157d60837"
SMALL_GENERATED_INPUTS_SHA256 = "c24efdf5feb1990ce23f808bd423f953b8d938fcbe3b3db5fe741115fb785bcd"


@pytest.mark.parametrize("cfg, digest", [
    (SuiteConfig(seed=7, q="3/2"), GENERATED_INPUTS_SHA256),
    (SuiteConfig(seed=11, max_dim=2, max_degree=2, q="2"), SMALL_GENERATED_INPUTS_SHA256),
], ids=["default-caps", "max-dim-2"])
def test_generated_inputs_are_pinned(cfg, digest):
    """The serialized inputs of trials 0-4 of every registered suite hash to
    a constant.  The default-caps constant was recorded before the suites
    became declaratively registered families, and re-recorded when
    dual.trace.graded and then kernel.oracle.rbord1 joined the registry (the
    rows of the other suites are unchanged).  The max-dim-2 case was
    recorded before the triple families shared one declared draw; at
    max_dim 2 a draw's dimension cap of 3 does not bind, so it catches a
    cap rule that ignores cfg.max_dim.  A passing suite's report never shows
    its inputs, so this is what catches a reordered rng draw or a renamed
    input key, either of which would stop older replay files from
    replaying."""
    rows = []
    for sid, suite in REGISTRY.items():
        for trial in range(5):
            inputs, _verdict = run_trial(suite, cfg, trial)
            rows.append([sid, trial, serde.dump_inputs(inputs)])
    text = json.dumps(rows, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_every_generated_input_round_trips_through_serde():
    """Trials 0-4 of every suite draw only the five kinds serde keeps, each
    value loads back to one that dumps to the same JSON, and a value of any
    other type is refused rather than written as a rational."""
    cfg = SuiteConfig(seed=7, q="3/2")
    kinds = set()
    for sid, suite in REGISTRY.items():
        for trial in range(5):
            inputs, _verdict = run_trial(suite, cfg, trial)
            blob = serde.dump_inputs(inputs)
            kinds |= {value["kind"] for value in blob.values()}
            assert serde.dump_inputs(serde.load_inputs(blob)) == blob, (sid, trial)
    assert kinds == {"matrix-mor", "iso-mor", "bord-mor", "rat", "str"}
    with pytest.raises(TypeError):
        serde.dump_value(True)


def test_replayed_inputs_give_the_drawn_verdict():
    """Trials 0-2 of every suite, run again from their serialized inputs,
    give the same (holds, detail) as the drawn trial: the contract that
    `traced check --replay` depends on."""
    cfg = SuiteConfig(seed=7, q="3/2")
    for sid, suite in REGISTRY.items():
        for trial in range(3):
            inputs, verdict = run_trial(suite, cfg, trial)
            replayed = run_trial(suite, None, serde.dump_inputs(inputs))[1]
            assert replayed == verdict, (sid, trial)
