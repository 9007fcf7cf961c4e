"""Phase plans, probes, and the typed unknown-algorithm error.

The phase layer is pure pricing arithmetic on top of the calibrated
:class:`~repro.core.model.CostModel`: these tests pin the plan
structure (names, ordering, degenerate cases) against the model's
closed-form terms so the macro executor and the spot-check oracle can
trust ``sum(charges) == predicted latency`` for the modelled
algorithms.
"""

import pytest

from repro.core.model import CostModel, UnknownAlgorithmError
from repro.core.phases import (
    DPML_PHASES,
    PhasePlan,
    PhaseProbe,
    _clamp_leaders,
    phase_plans,
)
from repro.core.pipelined import DEFAULT_PIPELINE_UNIT, pipeline_depth
from repro.errors import TuningError
from repro.machine.clusters import cluster_b
from repro.mpi.collectives.registry import resolve_phase_plan


@pytest.fixture(scope="module")
def model():
    return CostModel.from_machine(cluster_b(8))


def test_default_plans_cover_the_modelled_algorithms():
    plans = phase_plans()
    assert set(plans) == {
        "recursive_doubling", "hierarchical", "dpml", "dpml_pipelined",
        "dualroot_pipelined", "optimal_rsag", "generalized",
    }
    for name, plan in plans.items():
        assert plan.algorithm == name
        assert plan.phase_names


def test_registry_resolves_the_default_plans():
    for name in ("dpml", "dpml_pipelined", "hierarchical", "recursive_doubling"):
        plan = resolve_phase_plan(name)
        assert isinstance(plan, PhasePlan)
        assert plan.algorithm == name
    assert resolve_phase_plan("ring") is None
    assert resolve_phase_plan("no-such-algorithm") is None


def test_dpml_charges_sum_to_model_prediction(model):
    p, h, n = 64, 8, 65536
    plan = resolve_phase_plan("dpml")
    charges = plan.charges(model, p=p, h=h, n=n, leaders=4)
    assert tuple(name for name, _ in charges) == DPML_PHASES
    total = sum(seconds for _, seconds in charges)
    assert total == pytest.approx(
        model.predict_allreduce("dpml", p=p, h=h, n=n, l=4),
        rel=1e-12,
    )


def test_dpml_charges_match_model_terms(model):
    p, h, n, l = 64, 8, 65536, 4
    charges = dict(resolve_phase_plan("dpml").charges(
        model, p=p, h=h, n=n, leaders=l
    ))
    assert charges["copy_in"] == model.t_copy(l, n)
    assert charges["reduce"] == model.t_comp(p, h, l, n)
    assert charges["exchange"] == model.t_comm(h, l, n)
    assert charges["copy_out"] == model.t_bcast(l, n)


def test_dpml_degenerates_to_flat_exchange_at_one_ppn(model):
    charges = resolve_phase_plan("dpml").charges(model, p=8, h=8, n=4096)
    assert charges == (("exchange", model.t_recursive_doubling(8, 4096)),)


def test_hierarchical_is_single_leader_dpml(model):
    p, h, n = 64, 8, 65536
    hier = resolve_phase_plan("hierarchical").charges(model, p=p, h=h, n=n)
    single = resolve_phase_plan("dpml").charges(model, p=p, h=h, n=n, leaders=1)
    assert hier == single


def test_pipelined_exchange_uses_leader_share_depth(model):
    p, h, n, l = 64, 8, 262144, 4
    charges = dict(resolve_phase_plan("dpml_pipelined").charges(
        model, p=p, h=h, n=n, leaders=l
    ))
    k = pipeline_depth(-(-n // l), DEFAULT_PIPELINE_UNIT, 16)
    assert charges["exchange"] == model.t_comm_pipelined(h, l, n, k)


def test_clamp_leaders():
    assert _clamp_leaders(None, 64, 8) == 4  # default
    assert _clamp_leaders(16, 64, 8) == 8  # capped at ppn
    assert _clamp_leaders(2, 64, 8) == 2
    assert _clamp_leaders(0, 64, 8) == 1  # floor at one leader


def test_probe_merges_windows_across_ranks():
    probe = PhaseProbe()
    probe.record("dpml", "reduce", 2.0, 5.0)
    probe.record("dpml", "reduce", 1.0, 4.0)
    probe.record("dpml", "copy_in", 0.0, 1.0)
    assert probe.duration("dpml", "reduce") == 4.0
    assert probe.duration("dpml", "copy_in") == 1.0
    assert probe.duration("dpml", "exchange") is None


def test_unknown_algorithm_raises_typed_error(model):
    with pytest.raises(UnknownAlgorithmError) as excinfo:
        model.predict_allreduce("no_such_algorithm", p=8, h=2, n=1024)
    # The typed error is both a TuningError (domain) and a ValueError
    # (caller idiom), and names the known algorithms.
    assert isinstance(excinfo.value, TuningError)
    assert isinstance(excinfo.value, ValueError)
    assert "no_such_algorithm" in str(excinfo.value)


def test_registered_but_unmodelled_algorithm_predicts_none(model):
    assert model.predict_allreduce("ring", p=8, h=2, n=1024) is None
