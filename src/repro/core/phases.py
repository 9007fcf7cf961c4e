"""Phase plans: the pricing layer of hybrid-fidelity simulation.

A :class:`PhasePlan` describes how one registered allreduce algorithm
decomposes into named phases and how each phase is priced by the
calibrated :class:`~repro.core.model.CostModel`.  In hybrid fidelity the
macro executor (:mod:`repro.mpi.collectives.hybrid`) charges the sum of
the phase prices as a single macro-event instead of running the exact
coroutine path; the phase names line up with the exact implementations
(:mod:`repro.core.dpml`, :mod:`repro.core.pipelined`) so the spot-check
oracle (:func:`repro.check.oracle.spot_check_hybrid`) can re-run a
sampled configuration exactly and compare phase-by-phase.

Only algorithms the cost model describes get a plan: ``dpml``,
``dpml_pipelined``, ``hierarchical``, ``recursive_doubling``, and the
literature families — Träff's doubly-pipelined dual-root tree, the
optimal non-pipelined reduce-scatter/allgather construction and
Kolmakov & Zhang's generalized allreduce.  Those three are flat, so
each plan is a single ``exchange`` phase; the keywords that shape the
exchange (``segment_bytes``, ``radices``) flow through to the pricing,
so a macro charge prices the structure the exact path would run.
Everything else (ring, SHArP offload, library selectors, ...) has no
plan and falls back to exact execution even when ``fidelity="hybrid"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.model import CostModel
from repro.core.pipelined import (
    DEFAULT_MAX_K,
    DEFAULT_PIPELINE_UNIT,
    pipeline_depth,
)

__all__ = [
    "PhasePlan",
    "PhaseProbe",
    "DPML_PHASES",
    "phase_plans",
]

#: The four DPML phases of paper Figure 2, in execution order.
DPML_PHASES = ("copy_in", "reduce", "exchange", "copy_out")


@dataclass(frozen=True)
class PhasePlan:
    """Named phases of one algorithm plus their cost-model pricing.

    Parameters
    ----------
    algorithm:
        Registry name this plan prices.
    phase_names:
        Phase labels in execution order; these match the probe labels
        the exact implementation emits.
    charge_fn:
        ``(model, *, p, h, n, **kwargs) -> ((name, seconds), ...)``.
        ``kwargs`` carries the algorithm keywords the caller passed
        (``leaders``, ``pipeline_unit``, ...); unknown keywords are the
        charge function's to ignore.
    """

    algorithm: str
    phase_names: tuple
    charge_fn: Callable = field(compare=False)

    def charges(
        self, model: CostModel, *, p: int, h: int, n: int, **kwargs
    ) -> tuple:
        """``(phase, seconds)`` pairs for a ``p``-rank, ``h``-node,
        ``n``-byte allreduce.  Sum = the macro-event duration."""
        return self.charge_fn(model, p=p, h=h, n=n, **kwargs)


class PhaseProbe:
    """Collects exact-execution phase windows for the spot-check oracle.

    Attach one to a :class:`~repro.mpi.runtime.Runtime` (``phase_probe``
    attribute) and run a job in *exact* fidelity: the phase-structured
    implementations record ``(start, end)`` simulated-time windows per
    ``(algorithm, phase)``.  Windows from concurrent ranks merge, so
    :meth:`duration` is the global earliest-entry to latest-exit span of
    the phase — the quantity the cost model's per-phase equations
    predict.
    """

    def __init__(self):
        self.windows: dict = {}

    def record(
        self, algorithm: str, phase: str, start: float, end: float
    ) -> None:
        """Merge one rank's ``[start, end]`` window into the phase."""
        key = (algorithm, phase)
        window = self.windows.get(key)
        if window is None:
            self.windows[key] = [start, end]
        else:
            if start < window[0]:
                window[0] = start
            if end > window[1]:
                window[1] = end

    def duration(self, algorithm: str, phase: str):
        """Merged span of the phase in simulated seconds, or None."""
        window = self.windows.get((algorithm, phase))
        if window is None:
            return None
        return window[1] - window[0]


def _clamp_leaders(leaders, p: int, h: int) -> int:
    ppn = p // h
    return max(1, min(leaders if leaders is not None else 4, ppn))


def _charge_recursive_doubling(model: CostModel, *, p, h, n, **_kw):
    return (("exchange", model.t_recursive_doubling(p, n)),)


def _charge_dpml(
    model: CostModel, *, p, h, n, leaders=None, _fixed_leaders=None, **_kw
):
    if h >= p:
        # One rank per node: the implementation falls back to a flat
        # inter-node allreduce; only the exchange phase exists.
        return (("exchange", model.t_recursive_doubling(p, n)),)
    l = _fixed_leaders if _fixed_leaders is not None else _clamp_leaders(
        leaders, p, h
    )
    return (
        ("copy_in", model.t_copy(l, n)),
        ("reduce", model.t_comp(p, h, l, n)),
        ("exchange", model.t_comm(h, l, n)),
        ("copy_out", model.t_bcast(l, n)),
    )


def _charge_hierarchical(model: CostModel, *, p, h, n, **kw):
    kw.pop("leaders", None)
    return _charge_dpml(model, p=p, h=h, n=n, _fixed_leaders=1, **kw)


def _charge_dpml_pipelined(
    model: CostModel,
    *,
    p,
    h,
    n,
    leaders=None,
    pipeline_unit=DEFAULT_PIPELINE_UNIT,
    max_k=DEFAULT_MAX_K,
    **_kw,
):
    if h >= p:
        k = pipeline_depth(n, pipeline_unit, max_k)
        return (("exchange", model.t_comm_pipelined(p, 1, n, k)),)
    l = _clamp_leaders(leaders, p, h)
    # One leader carries ceil(n / l) bytes into phase 3 (Payload.split
    # gives the first partitions the extra elements).
    k = pipeline_depth(-(-n // l), pipeline_unit, max_k)
    return (
        ("copy_in", model.t_copy(l, n)),
        ("reduce", model.t_comp(p, h, l, n)),
        ("exchange", model.t_comm_pipelined(h, l, n, k)),
        ("copy_out", model.t_bcast(l, n)),
    )


def _charge_dualroot_pipelined(
    model: CostModel, *, p, h, n, segment_bytes=None, **_kw
):
    return (
        ("exchange", model.t_dualroot_pipelined(p, n, segment_bytes=segment_bytes)),
    )


def _charge_optimal_rsag(model: CostModel, *, p, h, n, **_kw):
    return (("exchange", model.t_optimal_rsag(p, n)),)


def _charge_generalized(model: CostModel, *, p, h, n, radices=None, **_kw):
    return (("exchange", model.t_generalized(p, n, radices)),)


def phase_plans() -> dict:
    """Name → :class:`PhasePlan` for every cost-modelled algorithm."""
    return {
        "recursive_doubling": PhasePlan(
            "recursive_doubling", ("exchange",), _charge_recursive_doubling
        ),
        "hierarchical": PhasePlan(
            "hierarchical", DPML_PHASES, _charge_hierarchical
        ),
        "dpml": PhasePlan("dpml", DPML_PHASES, _charge_dpml),
        "dpml_pipelined": PhasePlan(
            "dpml_pipelined", DPML_PHASES, _charge_dpml_pipelined
        ),
        "dualroot_pipelined": PhasePlan(
            "dualroot_pipelined", ("exchange",), _charge_dualroot_pipelined
        ),
        "optimal_rsag": PhasePlan(
            "optimal_rsag", ("exchange",), _charge_optimal_rsag
        ),
        "generalized": PhasePlan(
            "generalized", ("exchange",), _charge_generalized
        ),
    }
