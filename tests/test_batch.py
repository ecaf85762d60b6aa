"""Batched evaluation: each separation's result is the one it gets alone."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomwall import (
    ComputationRequest,
    ConvergenceError,
    IdealMetal,
    NinhamParsegian,
    NumericalTolerances,
    OscillatorSet,
    Plasma,
    StaticAlpha,
    TabulatedAlpha,
    TabulatedKK,
    UsageError,
    alpha_iw,
    au_volume_to_si,
    eps_iw,
    ev_to_angular,
    free_energy,
    free_energy_batch,
)
from atomwall import lifshitz
from atomwall.dielectric import METAL
from atomwall.lifshitz import _matsubara_integral_block, _plan, _sum_grid_span

from conftest import make_drude_table

WALLS = [
    Plasma(ev_to_angular(9.0)),
    NinhamParsegian(((1.93, ev_to_angular(0.13)), (0.91, ev_to_angular(12.5)))),
    IdealMetal(),
]
ATOMS = [
    StaticAlpha(au_volume_to_si(315.63)),
    OscillatorSet((0.5935,), (ev_to_angular(1.18),)),
]
_ALPHA_XI = ev_to_angular(np.concatenate(([0.0], np.geomspace(1e-3, 50.0, 119))))
# at 4 K a short separation reads this table's alpha at some 23 000 terms of
# its middle, whose weights must not depend on the rest of the batch
TABULATED_ATOM = TabulatedAlpha(_ALPHA_XI, alpha_iw(ATOMS[1], _ALPHA_XI))


@settings(max_examples=25, deadline=None)
@given(
    wall=st.sampled_from(WALLS),
    atom=st.sampled_from(ATOMS + [TABULATED_ATOM]),
    # log10 of the separation in m, inside and on both sides of the trusted window
    exponents=st.lists(st.floats(-8.65, -4.8), min_size=1, max_size=4),
    T=st.sampled_from([4.0, 77.0, 300.0]),
    data=st.data(),
)
def test_batch_equals_single_and_ignores_order(wall, atom, exponents, T, data):
    requests = [ComputationRequest(atom=atom, wall=wall, a=10.0 ** e, T=T)
                for e in exponents]
    batch = free_energy_batch(requests)
    assert batch == [free_energy(r) for r in requests]
    order = data.draw(st.permutations(range(len(requests))))
    assert free_energy_batch([requests[i] for i in order]) == [batch[i] for i in order]


def test_batch_equals_single_on_tabulated_wall(drude_table, helium_like_atom):
    wall = TabulatedKK(drude_table, METAL)
    requests = [ComputationRequest(atom=helium_like_atom, wall=wall, a=a, T=300.0)
                for a in (2e-6, 3e-9, 4e-8)]
    assert free_energy_batch(requests) == [free_energy(r) for r in requests]


def _bits(result):
    """Every field of a result, floats as their hex bits."""
    return (result.free_energy.hex(), result.classical_term.hex(), result.thermal_term.hex(),
            result.n_terms_used, result.max_quad_nodes, result.normalized.hex(), result.warnings)


# the tabulated wall is built once, so its eps_grid is too
BATCH_WALLS = WALLS + [TabulatedKK(make_drude_table(200), METAL)]


@settings(max_examples=25, deadline=None)
@given(
    walls=st.lists(st.sampled_from(BATCH_WALLS), min_size=2, max_size=4, unique_by=id),
    atom=st.sampled_from(ATOMS + [TABULATED_ATOM]),
    # log10 of separations from 3 nm to 10 um
    exponents=st.lists(st.floats(np.log10(3e-9), -5.0), min_size=1, max_size=4),
    T=st.sampled_from([4.0, 300.0]),
    data=st.data(),
)
def test_batch_of_walls_gives_each_request_its_result_alone(walls, atom, exponents, T, data):
    # every wall at the first separation, then pairs drawn with repeats, in any order
    pairs = [(w, 10.0 ** e) for w in walls for e in exponents]
    chosen = pairs[::len(exponents)] + data.draw(st.lists(st.sampled_from(pairs), max_size=8))
    requests = [ComputationRequest(atom=atom, wall=w, a=a, T=T)
                for w, a in data.draw(st.permutations(chosen))]
    batch = free_energy_batch(requests)
    assert [_bits(r) for r in batch] == [_bits(free_energy(r)) for r in requests]


@pytest.mark.parametrize("field,other", [
    ("tol", NumericalTolerances(series_rel_tol=1e-12)),
    ("atom", StaticAlpha(au_volume_to_si(315.63))),
    ("T", 77.0),
], ids=["tolerances", "atoms", "temperatures"])
def test_batch_rejects_mixed_models(helium_like_atom, field, other):
    # walls may differ within a batch; atom, temperature and tolerances may not
    first = ComputationRequest(atom=helium_like_atom, wall=IdealMetal(), a=1e-7, T=300.0)
    mixed = [first, replace(first, wall=WALLS[0], **{field: other})]
    with pytest.raises(UsageError):
        free_energy_batch(mixed)
    assert free_energy_batch([]) == []


def test_rows_integrated_stay_close_to_terms_summed(monkeypatch, drude_table):
    # every row of a batch is planned first and integrated in one call
    from atomwall import lifshitz

    counted = []
    block = lifshitz._matsubara_integral_block

    def counting(eps, zeta, rel_tol):
        counted.append(np.size(eps))
        return block(eps, zeta, rel_tol)

    monkeypatch.setattr(lifshitz, "_matsubara_integral_block", counting)
    for wall in (WALLS[0], WALLS[1], TabulatedKK(drude_table, METAL)):
        counted.clear()
        requests = [ComputationRequest(atom=ATOMS[1], wall=wall, a=float(a), T=300.0)
                    for a in np.geomspace(3e-9, 1e-5, 60)]
        summed = sum(r.n_terms_used for r in free_energy_batch(requests))
        assert counted == [summed]


def test_max_terms_exhaustion_names_first_request_in_order():
    tol = NumericalTolerances(max_terms=48)
    # 3 nm and 40 nm plan 49 evaluations each (L = 12, 2 tail panels); 1 um plans 18 and 10 um 2
    short, mid, far, farthest = [
        ComputationRequest(atom=ATOMS[1], wall=WALLS[0], a=a, T=300.0, tol=tol)
        for a in (3e-9, 4e-8, 1e-6, 1e-5)
    ]
    with pytest.raises(ConvergenceError) as alone:
        free_energy(short)
    with pytest.raises(ConvergenceError) as err:
        free_energy_batch([far, short, farthest])
    assert err.value.diagnostics["a"] == 3e-9
    assert err.value.diagnostics == alone.value.diagnostics
    assert err.value.diagnostics == {"max_terms": 48, "evaluations": 49, "a": 3e-9, "T": 300.0}
    for order in ([mid, short, far], [short, far, mid]):
        with pytest.raises(ConvergenceError) as err:
            free_energy_batch(order)
        assert err.value.diagnostics["a"] == order[0].a
    assert [r.n_terms_used for r in free_energy_batch([far, farthest])] == [18, 2]


def test_max_terms_exhaustion_raises_before_any_integration(monkeypatch):
    from atomwall import lifshitz

    def no_integration(*args):
        raise AssertionError("integrated before the plan was checked")

    monkeypatch.setattr(lifshitz, "_matsubara_integral_block", no_integration)
    tol = NumericalTolerances(max_terms=48)
    requests = [ComputationRequest(atom=ATOMS[1], wall=WALLS[0], a=a, T=300.0, tol=tol)
                for a in (1e-6, 3e-9)]
    with pytest.raises(ConvergenceError) as err:
        free_energy_batch(requests)
    assert err.value.diagnostics["evaluations"] == 49


def test_max_terms_bounds_the_alpha_reads_of_a_middle(monkeypatch):
    # at 1 mK this table's tail starts near l = 9e7, and the middle below it would
    # read alpha at every term: the plan is refused before the first read
    from atomwall import lifshitz

    def no_reads(*args):
        raise AssertionError("alpha read before the plan was checked")

    monkeypatch.setattr(lifshitz, "alpha_iw", no_reads)
    req = ComputationRequest(atom=TABULATED_ATOM, wall=WALLS[0], a=3e-8, T=1e-3)
    with pytest.raises(ConvergenceError) as err:
        free_energy(req)
    assert err.value.diagnostics["evaluations"] > 10 ** 7


def test_max_quad_nodes_covers_summed_rows(helium_like_atom):
    # the node count is the largest over the rows summed, not the whole block
    wall = Plasma(ev_to_angular(9.0))
    req = ComputationRequest(atom=helium_like_atom, wall=wall, a=1e-5, T=300.0)
    _, l, zeta, *_ = _plan(req.atom, req.T, req.tol, np.array([req.a]))
    eps = eps_iw(wall, _sum_grid_span(req.T)[0] * l)
    _, nodes, _ = _matsubara_integral_block(eps, zeta, req.tol.quad_rel_tol)
    assert free_energy(req).max_quad_nodes == nodes.max()


def _request_rows(plan, j):
    """The float64 bytes of request j's rows (l, zeta, weight, middle weight), and its flag.

    l is an integer array where no request of the plan has a tail.
    """
    owner, l, zeta, weight, middle, extrapolated = plan
    middle = np.zeros(l.size) if middle is None else middle
    return ([v[owner == j].astype(float).tobytes() for v in (l, zeta, weight, middle)]
            + [extrapolated[j]])


@settings(max_examples=40, deadline=None)
@given(
    atom=st.sampled_from(ATOMS + [TABULATED_ATOM]),
    # log10 of separations from 3 nm to 10 um, in no particular order
    exponents=st.lists(st.floats(np.log10(3e-9), -5.0), min_size=2, max_size=6),
    T=st.sampled_from([4.0, 300.0]),
)
def test_plan_gives_each_request_the_rows_it_gets_alone(atom, exponents, T):
    # planned without any integration, so many batches are cheap to check
    tol = NumericalTolerances()
    a = 10.0 ** np.array(exponents)
    batch = _plan(atom, T, tol, a)
    for j, a_j in enumerate(a):
        assert _request_rows(batch, j) == _request_rows(_plan(atom, T, tol, np.array([a_j])), 0)


@pytest.mark.parametrize("name", ["eps_iw", "alpha_iw", "_matsubara_integral_block",
                                  "_integrand_rows", "ideal_metal_integral", "gauss_laguerre",
                                  "gauss_legendre"])
def test_batch_calls_module_globals_at_call_time(monkeypatch, name):
    # perfbench/tracer.py wraps these lifshitz names after import, and its selftest
    # scales some of them: a batch must look each one up when it runs
    calls = []
    original = getattr(lifshitz, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lifshitz, name, recording)
    wall = IdealMetal() if name == "ideal_metal_integral" else WALLS[0]
    free_energy_batch([ComputationRequest(atom=ATOMS[1], wall=wall, a=a, T=300.0)
                       for a in (3e-9, 1e-6)])
    assert calls
