"""Batched evaluation: each separation's result is the one it gets alone."""

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
    TabulatedKK,
    UsageError,
    au_volume_to_si,
    ev_to_angular,
    free_energy,
    free_energy_batch,
)
from atomwall.dielectric import METAL

WALLS = [
    Plasma(ev_to_angular(9.0)),
    NinhamParsegian(((1.93, ev_to_angular(0.13)), (0.91, ev_to_angular(12.5)))),
    IdealMetal(),
]
ATOMS = [
    StaticAlpha(au_volume_to_si(315.63)),
    OscillatorSet((0.5935,), (ev_to_angular(1.18),)),
]


@settings(max_examples=25, deadline=None)
@given(
    wall=st.sampled_from(WALLS),
    atom=st.sampled_from(ATOMS),
    # log10 of the separation in m, inside and on both sides of the trusted window
    exponents=st.lists(st.floats(-8.65, -4.8), min_size=1, max_size=4),
    T=st.sampled_from([77.0, 300.0]),
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


def test_batch_rejects_mixed_models(helium_like_atom):
    tight = NumericalTolerances(series_rel_tol=1e-12)
    mixed = [ComputationRequest(atom=helium_like_atom, wall=IdealMetal(), a=1e-7, T=300.0),
             ComputationRequest(atom=helium_like_atom, wall=IdealMetal(), a=1e-7, T=300.0,
                                tol=tight)]
    with pytest.raises(UsageError):
        free_energy_batch(mixed)
    assert free_energy_batch([]) == []


def test_rows_integrated_stay_close_to_terms_summed(monkeypatch):
    # each separation sizes its own blocks, so few rows past its last term are integrated
    from atomwall import lifshitz

    counted = []
    block = lifshitz._matsubara_integral_block

    def counting(eps, zeta, rel_tol):
        counted.append(np.size(eps))
        return block(eps, zeta, rel_tol)

    monkeypatch.setattr(lifshitz, "_matsubara_integral_block", counting)
    requests = [ComputationRequest(atom=ATOMS[1], wall=WALLS[0], a=float(a), T=300.0)
                for a in np.geomspace(3e-9, 1e-5, 60)]
    summed = sum(r.n_terms_used for r in free_energy_batch(requests))
    assert sum(counted) <= 1.10 * summed


def test_max_terms_exhaustion_names_first_request_in_order():
    tol = NumericalTolerances(max_terms=100)
    # 3 nm needs 1678 terms and 40 nm 229; 1 um and 10 um stop within 16
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
    assert set(err.value.diagnostics) == {"max_terms", "last_term", "accumulated", "a", "T"}
    for order in ([mid, short, far], [short, far, mid]):
        with pytest.raises(ConvergenceError) as err:
            free_energy_batch(order)
        assert err.value.diagnostics["a"] == order[0].a


def test_max_quad_nodes_covers_summed_rows(helium_like_atom):
    # the node count is the largest over the rows summed, not the whole block
    from atomwall import CODATA, eps_iw, matsubara_zeta
    from atomwall.lifshitz import _matsubara_integral_block

    wall = Plasma(ev_to_angular(9.0))
    req = ComputationRequest(atom=helium_like_atom, wall=wall, a=1e-5, T=300.0)
    res = free_energy(req)
    ls = np.arange(1, res.n_terms_used + 1)
    xi = 2.0 * np.pi * CODATA.k_B * req.T / CODATA.hbar * ls
    _, nodes, _ = _matsubara_integral_block(eps_iw(wall, xi), matsubara_zeta(1, req.a, req.T) * ls,
                                            req.tol.quad_rel_tol)
    assert res.max_quad_nodes == nodes.max()


def _loop_truncation(terms, bracket0, tol):
    """The per-term truncation loop, kept as the reference: (n_terms, bracket)."""
    thermal, prev, run = 0.0, None, 0
    for n, value in enumerate(terms, start=1):
        value = float(value)
        thermal += value
        total = bracket0 + thermal
        small = False
        if value == 0.0:
            small = True
        elif prev is not None and prev > 0.0:
            ratio = value / prev
            if ratio < 1.0:
                tail = value * ratio / (1.0 - ratio)
                small = tail <= tol.series_rel_tol * total
        run = run + 1 if small else 0
        prev = value
        if run >= tol.consecutive_small:
            return n, total
    raise AssertionError("reference loop did not stop")


@pytest.mark.parametrize("consecutive_small", [1, 3, 5])
@pytest.mark.parametrize("wall", WALLS, ids=lambda w: type(w).__name__)
def test_vectorized_truncation_matches_loop(wall, consecutive_small):
    from atomwall import CODATA, alpha_iw, eps_iw, f0, ideal_metal_integral, matsubara_zeta
    from atomwall.lifshitz import _matsubara_integral_block

    atom, T = ATOMS[1], 300.0
    tol = NumericalTolerances(consecutive_small=consecutive_small)
    alpha0 = alpha_iw(atom, 0.0)
    for a in (3e-9, 1e-7, 1e-5):
        res = free_energy(ComputationRequest(atom=atom, wall=wall, a=a, T=T, tol=tol))
        ls = np.arange(1, res.n_terms_used + 100)
        xi = 2.0 * np.pi * CODATA.k_B * T / CODATA.hbar * ls
        zeta = matsubara_zeta(1, a, T) * ls
        if isinstance(wall, IdealMetal):
            integrals = ideal_metal_integral(zeta)
        else:
            integrals, _, _ = _matsubara_integral_block(eps_iw(wall, xi), zeta, tol.quad_rel_tol)
        bracket0 = 2.0 * alpha0 * f0(wall)
        n, bracket = _loop_truncation(alpha_iw(atom, xi) * integrals, bracket0, tol)
        assert res.n_terms_used == n
        assert res.free_energy == -CODATA.k_B * T / (8.0 * a ** 3) * bracket
