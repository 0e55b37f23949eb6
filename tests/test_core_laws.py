"""Cross-instance checks of the strict monoidal interface."""

import pytest

from traced import get_instance
from traced.gens import gen_morphism, gen_object, trial_stream
from traced.suites import REGISTRY, SuiteConfig, run_one

INSTANCES = ["finvect", "supervect", "graded(q=2)", "rbord1"]


@pytest.mark.parametrize("iid", INSTANCES)
def test_laws_suite_two_hundred_trials(iid):
    key = "graded" if iid.startswith("graded") else iid
    cfg = SuiteConfig(seed=42, trials=200)
    for family in ("core.laws", "core.naturality"):
        res = run_one(REGISTRY[f"{family}.{key}"], cfg)
        assert res.passed and res.failures == 0


@pytest.mark.parametrize("iid", ["finvect", "supervect"])
def test_symmetric_involution(iid):
    cfg = SuiteConfig(seed=42, trials=200)
    res = run_one(REGISTRY[f"core.symmetry.{iid}"], cfg)
    assert res.passed


@pytest.mark.parametrize("iid", INSTANCES)
def test_mor_equal_is_equivalence(iid):
    inst = get_instance(iid)
    rng = trial_stream(30, f"eq-{iid}", 0)
    for k in range(50):
        if iid == "rbord1":
            from traced.gens import gen_point_set

            x = gen_point_set(inst, rng, 2, prefix="x")
            y = gen_point_set(inst, rng, 2, prefix="y")
        else:
            x = gen_object(inst, rng, 3, 2)
            y = gen_object(inst, rng, 3, 2)
        f = gen_morphism(inst, x, y, rng)
        g = gen_morphism(inst, x, y, rng)
        assert inst.mor_equal(f, f)
        assert inst.mor_equal(f, g) == inst.mor_equal(g, f)


@pytest.mark.parametrize("iid", INSTANCES)
def test_tensor_obj_associative_and_unital(iid):
    inst = get_instance(iid)
    rng = trial_stream(31, f"obj-{iid}", 0)
    unit = inst.unit_object()
    for k in range(50):
        if iid == "rbord1":
            from traced.gens import gen_point_set

            a = gen_point_set(inst, rng, rng.randint(0, 2), prefix="a")
            b = gen_point_set(inst, rng, rng.randint(0, 2), prefix="b")
            c = gen_point_set(inst, rng, rng.randint(0, 2), prefix="c")
        else:
            a = gen_object(inst, rng, 3, 2)
            b = gen_object(inst, rng, 3, 2)
            c = gen_object(inst, rng, 3, 2)
        assert inst.tensor_obj(inst.tensor_obj(a, b), c) == inst.tensor_obj(a, inst.tensor_obj(b, c))
        assert inst.tensor_obj(unit, a) == a
        assert inst.tensor_obj(a, unit) == a


OPTIONAL_OPS = ("zero_object", "direct_sum", "add_mor", "negate_mor", "zero_mor",
                "braiding_c", "braiding_c_inv", "twist_theta", "dual_data")


def test_capability_table():
    """The matrix instances provide every optional operation; rbord1 none."""
    for iid in ("finvect", "supervect", "graded(q=2)"):
        inst = get_instance(iid)
        assert all(inst.provides(op) for op in OPTIONAL_OPS)
    rb = get_instance("rbord1")
    assert not any(rb.provides(op) for op in OPTIONAL_OPS)


def test_capability_invariants_enforced():
    """A twist comes with a braiding: on every instance, providing
    twist_theta implies providing braiding_c and braiding_c_inv."""
    for iid in INSTANCES:
        inst = get_instance(iid)
        if inst.provides("twist_theta"):
            assert inst.provides("braiding_c") and inst.provides("braiding_c_inv")
