"""The walk's round in its per-call form, a bit-for-bit reference for ``lindblad.rk4_step``.

``lindblad._integrate`` binds each round's operand views once per stack
(``lindblad._round``) and ``rk4_step`` then runs only numpy kernels on
them. The functions here take every view on every call instead, and
form a slice's samples in column chunks of the terms' float64 view, as
the walk's step did before its views were bound. Both must write the
same bits.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

# The width of the column chunks of the sample product.
COLUMNS = 1024


def stage(r, m, gain, out, product):
    """Write ``c L(r) = c M r + (c M r)^dag + diag(c gamma G diag r)`` into ``out``; return it.

    ``m`` is ``c M`` and ``gain`` is ``c gamma G``, per slice of a (B,
    dim, dim) stack ``r``. The scratch ``product`` and ``out`` are
    contiguous and shaped like ``r``; ``out`` may be ``r``.
    """
    dim = r.shape[-1]
    np.matmul(m, r, out=product)
    fed = np.matmul(gain, r.diagonal(0, -2, -1).real[..., None])
    np.copyto(out, product.swapaxes(-1, -2))
    if out.dtype.kind == "c":
        np.conjugate(out, out=out)
    out += product
    diagonal = out.reshape(-1, dim * dim)[:, :: dim + 1]
    diagonal += fed[..., 0]
    return out


def rk4_step(terms, samples, m, gain, degrees, strides, r, coefficients):
    """Round ``r`` of a period on the (B, dim, dim) stack R = ``terms[0]``, slicing every operand per call.

    The arguments are those of ``lindblad._round``: stage j runs on the
    leading slices whose degree reaches j, then slice b's ``strides[b]``
    samples of round ``r`` are one product of ``coefficients`` with its
    terms, and R is set to each slice's last sample. Returns ``samples``.
    """
    count, product = len(degrees), samples[-1]
    for j in range(1, max(degrees) + 1):
        while degrees[count - 1] < j:
            count -= 1
        stage(terms[j - 1, :count], m[:count], gain[:count], terms[j, :count], product[:count])
    for b, (degree, k) in enumerate(zip(degrees, strides)):
        weights = coefficients[:k, : degree + 1]
        series = terms[: degree + 1, b].view(np.float64).reshape(degree + 1, -1)
        out = samples[r * k : (r + 1) * k, b].view(np.float64).reshape(k, -1)
        for i in range(0, series.shape[1], COLUMNS):
            columns = slice(i, i + COLUMNS)
            np.matmul(weights, series[:, columns], out=out[:, columns])
    start = 0
    for k, run in groupby(strides):
        stop = start + len(list(run))
        np.copyto(terms[0, start:stop], samples[(r + 1) * k - 1, start:stop])
        start = stop
    return samples
