"""The one per-party contraction against the loops it replaced.

Every function routed through ``qstate._per_party`` must give the same
bytes as its old loop in contraction_reference.py.  The analytic game
fidelity sums in a new order and must agree to 1e-15.
"""

import numpy as np
import pytest

from bellkit import commcomplex as cc
from bellkit import corrtensor as ct
from bellkit import qstate as qs
from contraction_reference import (
    reference_all_strategy_fidelities,
    reference_compute_tensor,
    reference_frame_components,
    reference_quantum_fidelity,
    reference_signed_sum,
)
from oracles import random_density, random_rotation


def same_bytes(a, b):
    """Equal shape, dtype, bytes and memory layout: later sums over the
    array run in memory order, so the layout matters too."""
    a, b = np.asarray(a), np.asarray(b)
    layout = lambda x: (x.shape, x.dtype, x.strides, x.tobytes())  # noqa: E731
    return layout(a) == layout(b)


def unit_rows(rng, shape):
    v = rng.normal(size=shape + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def frames(n, rng):
    """xy and random frames on n parties."""
    yield ct.xy_frame(n)
    yield ct.LocalFrame(np.stack([random_rotation(rng)[:2] for _ in range(n)]))


def test_per_party_keeps_party_order():
    rng = np.random.default_rng(3)
    arr = rng.normal(size=(2, 3, 4))
    mats = [rng.normal(size=(5, 2)), rng.normal(size=(3,)), rng.normal(size=(6, 7, 4))]
    out = qs._per_party(arr, mats)
    assert out.shape == (5, 6, 7)
    assert np.allclose(out, np.einsum("abc,xa,b,yzc->xyz", arr, *mats))


def tensordot_loop(arr, mats):
    """_per_party as one np.tensordot per party."""
    for m in mats:
        arr = np.tensordot(arr, m, axes=([0], [m.ndim - 1]))
    return arr


def per_party_cases():
    """(arr, mats): complex Pauli pairs, real frame axes, integer strategy
    tables, and a non-contiguous input."""
    rng = np.random.default_rng(5)
    for n in (1, 3, 5):
        rho = random_density(n, rng)
        yield qs._pair_axes(rho.matrix, n), [qs._PAULI_PAIRS] * n
        t = ct.compute_tensor(rho)
        yield t.proper, ct.LocalFrame(np.stack([random_rotation(rng)[:2] for _ in range(n)])).axes
        task = cc.make_mod4_task(n + 1)
        yield task.g, [cc._HALF_STRATEGIES.astype(int)] * (n + 1)
        yield task.g, cc.classical_optimum(task).signs  # int rows: one sign table per party
    arr = rng.normal(size=(6, 4, 5, 3))[::2, :, 1:, ::-1]
    assert not arr.flags.c_contiguous and not arr.flags.f_contiguous
    yield arr, [rng.normal(size=(2, 3)), rng.normal(size=(4,)), rng.normal(size=(7, 2, 4))]


@pytest.mark.parametrize("arr, mats", list(per_party_cases()))
def test_per_party_matches_tensordot(arr, mats):
    assert same_bytes(qs._per_party(arr, mats), tensordot_loop(arr, mats))


def test_per_party_returns_a_plain_array():
    pairs = np.array([[0.5, 0.0], [0.5, 0.0]]).view(qs._OwnedMatrix)
    out = qs._per_party(pairs, [np.eye(2)])
    assert type(out) is np.ndarray
    assert same_bytes(out, tensordot_loop(pairs, [np.eye(2)]))


@pytest.mark.parametrize("n", [*range(1, 9), 10])
def test_compute_tensor(n):
    rho = random_density(n, np.random.default_rng(100 + n))
    assert same_bytes(ct.compute_tensor(rho).values, reference_compute_tensor(rho).values)


@pytest.mark.parametrize("n", range(1, 8))
def test_frame_components(n):
    rng = np.random.default_rng(400 + n)
    t = ct.compute_tensor(random_density(n, rng))
    for frame in frames(n, rng):
        assert same_bytes(ct.frame_components(t, frame), reference_frame_components(t, frame))


def optimum_tasks(n):
    """The mod-4 task on n parties, the CHSH game at n = 2, and up to n = 8
    random tasks with random promises and weights that are not dyadic."""
    yield cc.make_mod4_task(n)
    if n == 2:
        yield cc.make_chsh_game()
    if n > 8:
        return
    rng = np.random.default_rng(900 + n)
    for _ in range(12):
        support = rng.random((2,) * n) < 0.7
        support.flat[rng.integers(support.size)] = True
        p = np.where(support, rng.random(support.shape), 0.0)
        f = np.where(rng.random(support.shape) < 0.5, 1.0, -1.0)
        yield cc.TaskSpec(n, f, p / p.sum())


@pytest.mark.parametrize("n", range(2, 13))
def test_all_strategy_fidelities(n):
    """classical_optimum searches 2^N assignments; it must report the first
    maximizer of |F| over the table of all 4^N, with the same bytes, and
    signs that reach it."""
    for task in optimum_tasks(n):
        fid = reference_all_strategy_fidelities(task).reshape(-1)
        np.abs(fid, out=fid)  # in place: the table is 134 MB at n = 12
        idx = int(np.argmax(fid))
        opt = cc.classical_optimum(task)
        assert (opt.index, opt.f_star.hex()) == (idx, float(fid[idx]).hex())
        assert abs(reference_signed_sum(task.g, opt.signs)) == opt.f_star


def fidelity_cases():
    rng = np.random.default_rng(700)
    yield cc.make_chsh_game(), qs.make_werner(0.8), cc.chsh_game_settings()
    yield cc.make_chsh_game(), random_density(2, rng), unit_rows(rng, (2, 2))
    for n in range(2, 9):
        task = cc.make_mod4_task(n)
        yield task, qs.make_ghz(n), cc.mod4_settings(n)
        yield task, qs.make_noisy_ghz(n, 0.6), unit_rows(rng, (n, 2))
        if n <= 6:
            yield task, random_density(n, rng), unit_rows(rng, (n, 2))
    yield cc.make_mod4_task(10), qs.make_ghz(10), cc.mod4_settings(10)


def test_quantum_fidelity_analytic():
    for task, state, settings in fidelity_cases():
        new = cc.quantum_fidelity_analytic(task, state, settings)
        tensor = ct.compute_tensor(qs.as_density(state))
        assert new == pytest.approx(reference_quantum_fidelity(task, tensor, settings), abs=1e-15)


def test_quantum_fidelity_ignores_f_off_support():
    base = cc.make_mod4_task(3)
    f = np.where(base.support, base.f, np.nan)
    task = cc.TaskSpec(3, f, base.p_prime)
    value = cc.quantum_fidelity_analytic(task, qs.make_ghz(3), cc.mod4_settings(3))
    assert value == pytest.approx(1.0, abs=1e-12)
