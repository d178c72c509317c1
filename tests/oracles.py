"""Independent oracles used to pin expected values.

Everything here is deliberately written from scratch against the
underlying definitions (triple loops, truncated series, dense operator
algebra, graph brute force) so it shares no code path with the package
implementations it checks.
"""

from __future__ import annotations

import numpy as np


def triple_loop_matmul(a, b):
    """Elementwise definition of the matrix product."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0 + 0.0j
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def taylor_expm(a, terms=30):
    """Plain truncated exponential series; accurate for norms around 1."""
    a = np.asarray(a, dtype=complex)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out


def random_hermitian(n, rng):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


def random_density(n, rng):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def rk4_staged_step(f, y, dt):
    """Textbook four-stage RK4 step of ``y' = f(y)``; returns a new array."""
    k1 = f(y)
    k2 = f(y + (dt / 2) * k1)
    k3 = f(y + (dt / 2) * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


# ---------------------------------------------------------------------------
# Dense master-equation algebra (matrix products everywhere).

def dense_jump_matrices(jumps, dim):
    mats = []
    for op in jumps:
        m = np.zeros((dim, dim), dtype=complex)
        m[op.dst, op.src] = 1.0
        mats.append(m)
    return mats


def dense_master_rhs(rho, h, jump_mats, kappa, gamma):
    """The generator evaluated term by term with dense operators."""
    rho = np.asarray(rho, dtype=complex)
    h = np.asarray(h, dtype=complex)
    out = -1j * kappa * (h @ rho - rho @ h)
    for L in jump_mats:
        Ld = L.conj().T
        LdL = Ld @ L
        out = out - gamma * (0.5 * LdL @ rho + 0.5 * rho @ LdL - L @ rho @ Ld)
    return out


def liouvillian_matrix(h, jump_mats, kappa, gamma):
    """Column-stacking superoperator matrix: vec(drho/dt) = S vec(rho)."""
    dim = h.shape[0]
    eye = np.eye(dim, dtype=complex)
    sup = -1j * kappa * (np.kron(eye, h) - np.kron(h.T, eye))
    for L in jump_mats:
        Ld = L.conj().T
        LdL = Ld @ L
        sup = sup + gamma * (
            np.kron(L.conj(), L)
            - 0.5 * np.kron(eye, LdL)
            - 0.5 * np.kron(LdL.T, eye)
        )
    return sup


def superoperator_populations(h, jump_mats, kappa, gamma, rho0, times, expm):
    """Populations at the requested times via the exponential of the
    full superoperator, stepped between consecutive times.

    ``expm`` is injected so callers choose the exponential routine; the
    propagation itself (vectorize, multiply, read the diagonal) is
    independent of the package integrator.
    """
    dim = rho0.shape[0]
    sup = liouvillian_matrix(h, jump_mats, kappa, gamma)
    vec = np.asarray(rho0, dtype=complex).reshape(-1, order="F")
    out = []
    previous_t = None
    step_prop = None
    for t in times:
        if previous_t is None:
            if t > 0:
                vec = expm(sup * t) @ vec
        else:
            dt = t - previous_t
            if step_prop is None or abs(dt - step_prop[0]) > 1e-12:
                step_prop = (dt, expm(sup * dt))
            vec = step_prop[1] @ vec
        previous_t = t
        rho = vec.reshape(dim, dim, order="F")
        out.append(np.real(np.diag(rho)))
    return np.array(out)


# ---------------------------------------------------------------------------
# Graph brute force.

def bit_distance(i, j):
    return bin(i ^ j).count("1")


def brute_force_jumps(n, sinks, strict=True):
    """Edge-by-edge evaluation of the directed-jump rule.

    For every unordered distance-one pair, compare the minimum distances
    to the sink set and point the operator at the closer endpoint; on a
    tie the strict rule emits nothing and the relaxed rule emits both.
    """
    sinks = list(sinks)
    pairs = set()
    for i in range(1 << n):
        for j in range(1 << n):
            if i < j and bit_distance(i, j) == 1:
                pairs.add((i, j))
    result = set()
    for i, j in sorted(pairs):
        di = min(bit_distance(i, s) for s in sinks)
        dj = min(bit_distance(j, s) for s in sinks)
        if strict:
            if dj < di:
                result.add((i, j))
            elif di < dj:
                result.add((j, i))
        else:
            if dj <= di:
                result.add((i, j))
            if di <= dj:
                result.add((j, i))
    return result


def brute_force_adjacency(n, sinks):
    """Direct pairwise evaluation of the sink-isolated adjacency rule."""
    dim = 1 << n
    sinks = set(sinks)
    h = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(dim):
            if bit_distance(i, j) <= 1 and i not in sinks and j not in sinks:
                h[i, j] = 1.0
    return h


# ---------------------------------------------------------------------------
# Exhaustive threshold-network dynamics.

def exhaustive_async_fixed_point(state_bits, w, order_indices_fn, max_sweeps=200):
    """Replay asynchronous updates literally from the update inequality.

    ``state_bits`` is a tuple of 0/1 ints; fires on ties. Returns the
    fixed point reached under the given schedule, or None if none is
    reached within the sweep cap.
    """
    state = list(state_bits)
    n = len(state)
    for _ in range(max_sweeps):
        changed = False
        for i in order_indices_fn(n):
            total = sum(w[j][i] * state[j] for j in range(n) if j != i)
            new = 1 if total >= 0 else 0
            if new != state[i]:
                state[i] = new
                changed = True
        if not changed:
            return tuple(state)
    return None
