"""Per-party ascent and per-restart start drawing, kept verbatim as test
references.

These are the versions that the prefix-sharing sweep and the batched start
projection in ``bellkit.corrtensor`` replaced: every gradient contracts the
whole restart-broadcast form from scratch, and each restart's start is
projected and normalized on its own.  Tests require the package versions to
return bitwise-equal values, directions and convergence flags.
"""

import numpy as np

from bellkit.corrtensor import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOL,
    LocalFrame,
    MaxProductResult,
    _party_vectors,
)


def reference_random_starts(
    n: int, seed: int, restarts: int, frame: LocalFrame | None = None
) -> np.ndarray:
    """Unit start directions, shape (restarts, n, 3), restart r drawn from
    its own (seed, r) stream; inside the frame planes when a frame is given."""
    starts = np.empty((restarts, n, 3))
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        if frame is None:
            vecs = rng.normal(size=(n, 3))
        else:
            coef = rng.normal(size=(n, 2))
            vecs = np.einsum("ka,kaj->kj", coef, frame.axes)
        starts[r] = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    return starts


def reference_contract(w: np.ndarray, vecs: np.ndarray, free: int | None = None) -> np.ndarray:
    """Contract w with one vector per party for each row of vecs (R, N, d).

    With ``free=k`` party k is left out and its index comes last, giving
    the (R, d) gradient of the form in that party; otherwise the (R,)
    values of the form.
    """
    out = np.broadcast_to(w, (vecs.shape[0],) + w.shape)
    if free is not None:
        out = np.moveaxis(out, 1 + free, -1)
    for m in range(vecs.shape[1]):
        if m != free:
            out = np.einsum("ri...,ri->r...", out, vecs[:, m, :])
    return out


def reference_ascend(
    w: np.ndarray, starts: np.ndarray, frame: LocalFrame | None = None
) -> MaxProductResult:
    """Alternating ascent of a multilinear form over unit directions b_k.

    ``w`` has shape (3,)*N, contracted with the b_k themselves, or (4,)*N,
    contracted with (1, b_k).  The form is linear in each b_k, so the best
    b_k given the others is the normalized gradient (projected into the
    party's plane when a frame is given): every step is exact and monotone.
    ``starts`` (R, N, 3) is updated in place; the best row is returned.
    """
    dirs = starts
    values = reference_contract(w, _party_vectors(w, dirs))
    for _ in range(DEFAULT_MAX_SWEEPS):
        for k in range(dirs.shape[1]):
            # the constant component of (1, b_k) does not move
            grad = reference_contract(w, _party_vectors(w, dirs), free=k)[:, -3:]
            if frame is not None:
                coef = np.einsum("ri,ai->ra", grad, frame.axes[k])
                grad = np.einsum("ra,ai->ri", coef, frame.axes[k])
            norms = np.linalg.norm(grad, axis=1)
            ok = norms > 1e-300
            dirs[ok, k, :] = grad[ok] / norms[ok, None]
        new_values = reference_contract(w, _party_vectors(w, dirs))
        converged = np.abs(new_values - values) < DEFAULT_TOL
        values = new_values
        if converged.all():
            break
    best = int(np.argmax(values))
    return MaxProductResult(
        value=float(values[best]),
        directions=dirs[best].copy(),
        converged=bool(converged[best]),
    )
