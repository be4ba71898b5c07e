"""Independent dense reference implementation used as a test oracle.

Everything here is written with naive loops and block-ordered unknowns
(x, then interior bending moments, then interior curvatures, then spin,
twist moment, twist, tension), solved with numpy's dense solver.  It shares
no code with the package so index or sign slips in the vectorized assembly
cannot cancel against themselves.  The two band-storage helpers at the end
only convert between a dense matrix and the package's BandedMatrix, for
tests that build or read a band by hand.
"""

import numpy as np

from rodfem.linsolve import BandedMatrix


# --- discrete geometry, loop versions -------------------------------------

def ref_tangents(u, x):
    n_el = len(u) - 1
    dim = x.shape[1]
    tau = np.zeros((n_el, dim))
    s = np.zeros(n_el)
    for e in range(n_el):
        d = x[e + 1] - x[e]
        h = u[e + 1] - u[e]
        s[e] = np.linalg.norm(d) / h
        tau[e] = d / np.linalg.norm(d)
    return tau, s


def ref_averaged_tangent(tau):
    n_el = tau.shape[0]
    ttau = np.zeros((n_el + 1, tau.shape[1]))
    ttau[0] = tau[0]
    ttau[-1] = tau[-1]
    for i in range(1, n_el):
        v = tau[i - 1] + tau[i]
        ttau[i] = v / np.linalg.norm(v)
    return ttau


def ref_weights(u, s):
    n = len(u)
    w = np.zeros(n)
    for i in range(n):
        if i > 0:
            w[i] += 0.5 * (u[i] - u[i - 1]) * s[i - 1]
        if i < n - 1:
            w[i] += 0.5 * (u[i + 1] - u[i]) * s[i]
    return w


def ref_curvature_interior(u, x):
    tau, s = ref_tangents(u, x)
    w = ref_weights(u, s)
    kappa = np.zeros_like(x)
    for i in range(1, len(u) - 1):
        kappa[i] = (tau[i] - tau[i - 1]) / w[i]
    return kappa


def ref_element_twist(u, x, e1, e2):
    _, s = ref_tangents(u, x)
    n_el = len(u) - 1
    gam = np.zeros(n_el)
    for e in range(n_el):
        h = u[e + 1] - u[e]
        gam[e] = (e1[e + 1] - e1[e]) @ (0.5 * (e2[e] + e2[e + 1])) / (h * s[e])
    return gam


def cross_mat(v):
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


# --- 3-d step --------------------------------------------------------------

def block_indices_3d(n):
    """Unknown index maps for the dense block ordering."""
    ni = n - 2
    ne = n - 1
    off_y = 3 * n
    off_k = off_y + 3 * ni
    off_m = off_k + 3 * ni
    off_z = off_m + n
    off_g = off_z + ne
    off_p = off_g + ne
    idx = {
        "x": lambda i, d: 3 * i + d,
        "y": lambda i, d: off_y + 3 * (i - 1) + d,
        "k": lambda i, d: off_k + 3 * (i - 1) + d,
        "m": lambda i: off_m + i,
        "z": lambda e: off_z + e,
        "g": lambda e: off_g + e,
        "p": lambda e: off_p + e,
        "ndof": off_p + ne,
    }
    return idx


def ref_assemble_3d(
    u, x_prev, e1_prev, e2_prev, kappa_prev, gamma_prev, y_prev, m_prev,
    s0, dt, t_new, A_v, B_v, C_e, D_e, k_rot, drag_of_tau,
    kappa1_pref, kappa2_pref, twist_pref,
):
    """Dense matrix and right-hand side for one 3-d step."""
    n = len(u)
    ne = n - 1
    idx = block_indices_3d(n)
    ndof = idx["ndof"]
    A = np.zeros((ndof, ndof))
    b = np.zeros(ndof)

    tau, s = ref_tangents(u, x_prev)
    ttau = ref_averaged_tangent(tau)
    w = ref_weights(u, s)
    h = np.diff(u)
    eye = np.eye(3)

    # element quantities frozen at the previous step
    P = [eye - np.outer(tau[e], tau[e]) for e in range(ne)]
    kbar = [0.5 * (kappa_prev[e] + kappa_prev[e + 1]) for e in range(ne)]
    tk = [np.cross(tau[e], kbar[e]) for e in range(ne)]
    K_el = [drag_of_tau(tau[e]) for e in range(ne)]

    # momentum rows (one per vertex and component)
    for i in range(n):
        M = np.zeros((3, 3))
        if i > 0:
            M += 0.5 * h[i - 1] * s[i - 1] * K_el[i - 1]
        if i < n - 1:
            M += 0.5 * h[i] * s[i] * K_el[i]
        for d in range(3):
            r = idx["x"](i, d)
            for dd in range(3):
                A[r, idx["x"](i, dd)] += M[d, dd] / dt
            b[r] += (M @ x_prev[i])[d] / dt
        for e, sig in ((i, 1.0), (i - 1, -1.0)):
            if e < 0 or e >= ne:
                continue
            for d in range(3):
                r = idx["x"](i, d)
                A[r, idx["p"](e)] += sig * tau[e][d]
                A[r, idx["z"](e)] += sig * tk[e][d]
                coef = P[e] / (h[e] * s[e])
                for dd in range(3):
                    if 1 <= e + 1 <= n - 2:
                        A[r, idx["y"](e + 1, dd)] += sig * coef[d, dd]
                    if 1 <= e <= n - 2:
                        A[r, idx["y"](e, dd)] -= sig * coef[d, dd]

    # bending constitutive rows (interior vertices)
    for i in range(1, n - 1):
        Pt = eye - np.outer(ttau[i], ttau[i])
        X = cross_mat(ttau[i])
        kmat = -A_v[i] * eye - (B_v[i] / dt) * Pt + B_v[i] * m_prev[i] * X
        rhs = -A_v[i] * (
            kappa1_pref(u[i], t_new) * e1_prev[i]
            + kappa2_pref(u[i], t_new) * e2_prev[i]
        ) - (B_v[i] / dt) * (Pt @ kappa_prev[i])
        for d in range(3):
            r = idx["y"](i, d)
            A[r, idx["y"](i, d)] += w[i]
            for dd in range(3):
                A[r, idx["k"](i, dd)] += w[i] * kmat[d, dd]
            b[r] = w[i] * rhs[d]

    # curvature identity rows (interior vertices)
    for i in range(1, n - 1):
        for d in range(3):
            r = idx["k"](i, d)
            A[r, idx["k"](i, d)] += w[i]
            a_l = 1.0 / (h[i - 1] * s[i - 1])
            a_r = 1.0 / (h[i] * s[i])
            A[r, idx["x"](i, d)] += a_l + a_r
            A[r, idx["x"](i - 1, d)] -= a_l
            A[r, idx["x"](i + 1, d)] -= a_r

    # tangential angular velocity rows (every vertex)
    for i in range(n):
        r = idx["m"](i)
        A[r, idx["m"](i)] += -k_rot * w[i]
        if i < n - 1:
            A[r, idx["z"](i)] += 1.0
        if i > 0:
            A[r, idx["z"](i - 1)] -= 1.0
        b[r] = -w[i] * (y_prev[i] @ np.cross(ttau[i], kappa_prev[i]))

    # twist moment constitutive rows (elements)
    for e in range(ne):
        r = idx["z"](e)
        um = 0.5 * (u[e] + u[e + 1])
        A[r, idx["z"](e)] += h[e] * s[e]
        A[r, idx["g"](e)] += -h[e] * s[e] * (C_e[e] + D_e[e] / dt)
        b[r] = h[e] * s[e] * (
            -C_e[e] * twist_pref(um, t_new) - (D_e[e] / dt) * gamma_prev[e]
        )

    # twist transport rows (elements)
    for e in range(ne):
        r = idx["g"](e)
        A[r, idx["g"](e)] += h[e] * s[e] / dt
        A[r, idx["m"](e)] += 1.0
        A[r, idx["m"](e + 1)] -= 1.0
        for d in range(3):
            A[r, idx["x"](e + 1, d)] += tk[e][d] / dt
            A[r, idx["x"](e, d)] -= tk[e][d] / dt
        b[r] = h[e] * s[e] * gamma_prev[e] / dt + tk[e] @ (
            x_prev[e + 1] - x_prev[e]
        ) / dt

    # inextensibility rows (elements)
    for e in range(ne):
        r = idx["p"](e)
        for d in range(3):
            A[r, idx["x"](e + 1, d)] += tau[e][d]
            A[r, idx["x"](e, d)] -= tau[e][d]
        b[r] = h[e] * s0[e]

    return A, b, idx


def ref_step_3d(u, state, dt, t_new, A_v, B_v, C_e, D_e, k_rot, drag_of_tau,
                kappa1_pref, kappa2_pref, twist_pref):
    """Solve one 3-d step; state is a dict with the previous-step fields."""
    n = len(u)
    A, b, idx = ref_assemble_3d(
        u, state["x"], state["e1"], state["e2"], state["kappa"],
        state["gamma"], state["y"], state["m"], state["s0"], dt, t_new,
        A_v, B_v, C_e, D_e, k_rot, drag_of_tau,
        kappa1_pref, kappa2_pref, twist_pref,
    )
    sol = np.linalg.solve(A, b)
    out = {
        "x": np.array([[sol[idx["x"](i, d)] for d in range(3)] for i in range(n)]),
        "y": np.zeros((n, 3)),
        "kappa": np.zeros((n, 3)),
        "m": np.array([sol[idx["m"](i)] for i in range(n)]),
        "z": np.array([sol[idx["z"](e)] for e in range(n - 1)]),
        "gamma": np.array([sol[idx["g"](e)] for e in range(n - 1)]),
        "p": np.array([sol[idx["p"](e)] for e in range(n - 1)]),
    }
    for i in range(1, n - 1):
        out["y"][i] = [sol[idx["y"](i, d)] for d in range(3)]
        out["kappa"][i] = [sol[idx["k"](i, d)] for d in range(3)]
    for j, i in ((0, 0), (1, n - 1)):
        out["kappa"][i] = (
            kappa1_pref(u[i], t_new) * state["e1"][i]
            + kappa2_pref(u[i], t_new) * state["e2"][i]
        )
    return out, (A, b, idx)


def ref_transport(e1, e2, ttau_old, ttau_new, phi):
    """Per-vertex double rotation of the director pair, loop version."""
    n = e1.shape[0]
    e1_new = np.zeros_like(e1)
    e2_new = np.zeros_like(e2)
    for i in range(n):
        c = ttau_old[i] @ ttau_new[i]
        k = np.cross(ttau_old[i], ttau_new[i])
        mids = []
        for v in (e1[i], e2[i]):
            mids.append(c * v + np.cross(k, v) + (v @ k) * k / (1.0 + c))
        l = ttau_new[i]
        cp, sp = np.cos(phi[i]), np.sin(phi[i])
        outs = []
        for v in mids:
            outs.append(cp * v + sp * np.cross(l, v) + (v @ l) * l * (1.0 - cp))
        e1_new[i], e2_new[i] = outs
    return e1_new, e2_new


# --- 2-d step --------------------------------------------------------------

def block_indices_2d(n):
    ni = n - 2
    ne = n - 1
    off_y = 2 * n
    off_k = off_y + 2 * ni
    off_p = off_k + 2 * ni
    return {
        "x": lambda i, d: 2 * i + d,
        "y": lambda i, d: off_y + 2 * (i - 1) + d,
        "k": lambda i, d: off_k + 2 * (i - 1) + d,
        "p": lambda e: off_p + e,
        "ndof": off_p + ne,
    }


def ref_step_2d(u, state, dt, t_new, A_v, B_v, drag_of_tau, kappa1_pref):
    """Solve one planar step; state holds x, kappa, s0 from the last step."""
    n = len(u)
    ne = n - 1
    idx = block_indices_2d(n)
    A = np.zeros((idx["ndof"], idx["ndof"]))
    b = np.zeros(idx["ndof"])

    x_prev = state["x"]
    kappa_prev = state["kappa"]
    tau, s = ref_tangents(u, x_prev)
    ttau = ref_averaged_tangent(tau)
    nu = np.column_stack([-ttau[:, 1], ttau[:, 0]])
    w = ref_weights(u, s)
    h = np.diff(u)
    eye = np.eye(2)
    P = [eye - np.outer(tau[e], tau[e]) for e in range(ne)]
    K_el = [drag_of_tau(tau[e]) for e in range(ne)]

    for i in range(n):
        M = np.zeros((2, 2))
        if i > 0:
            M += 0.5 * h[i - 1] * s[i - 1] * K_el[i - 1]
        if i < n - 1:
            M += 0.5 * h[i] * s[i] * K_el[i]
        for d in range(2):
            r = idx["x"](i, d)
            for dd in range(2):
                A[r, idx["x"](i, dd)] += M[d, dd] / dt
            b[r] += (M @ x_prev[i])[d] / dt
        for e, sig in ((i, 1.0), (i - 1, -1.0)):
            if e < 0 or e >= ne:
                continue
            for d in range(2):
                r = idx["x"](i, d)
                A[r, idx["p"](e)] += sig * tau[e][d]
                coef = P[e] / (h[e] * s[e])
                for dd in range(2):
                    if 1 <= e + 1 <= n - 2:
                        A[r, idx["y"](e + 1, dd)] += sig * coef[d, dd]
                    if 1 <= e <= n - 2:
                        A[r, idx["y"](e, dd)] -= sig * coef[d, dd]

    for i in range(1, n - 1):
        Pt = eye - np.outer(ttau[i], ttau[i])
        kmat = -A_v[i] * eye - (B_v[i] / dt) * Pt
        rhs = -A_v[i] * kappa1_pref(u[i], t_new) * nu[i] - (B_v[i] / dt) * (
            Pt @ kappa_prev[i]
        )
        for d in range(2):
            r = idx["y"](i, d)
            A[r, idx["y"](i, d)] += w[i]
            for dd in range(2):
                A[r, idx["k"](i, dd)] += w[i] * kmat[d, dd]
            b[r] = w[i] * rhs[d]

    for i in range(1, n - 1):
        for d in range(2):
            r = idx["k"](i, d)
            A[r, idx["k"](i, d)] += w[i]
            a_l = 1.0 / (h[i - 1] * s[i - 1])
            a_r = 1.0 / (h[i] * s[i])
            A[r, idx["x"](i, d)] += a_l + a_r
            A[r, idx["x"](i - 1, d)] -= a_l
            A[r, idx["x"](i + 1, d)] -= a_r

    for e in range(ne):
        r = idx["p"](e)
        for d in range(2):
            A[r, idx["x"](e + 1, d)] += tau[e][d]
            A[r, idx["x"](e, d)] -= tau[e][d]
        b[r] = h[e] * state["s0"][e]

    sol = np.linalg.solve(A, b)
    out = {
        "x": np.array([[sol[idx["x"](i, d)] for d in range(2)] for i in range(n)]),
        "y": np.zeros((n, 2)),
        "kappa": np.zeros((n, 2)),
        "p": np.array([sol[idx["p"](e)] for e in range(ne)]),
    }
    for i in range(1, n - 1):
        out["y"][i] = [sol[idx["y"](i, d)] for d in range(2)]
        out["kappa"][i] = [sol[idx["k"](i, d)] for d in range(2)]
    for i in (0, n - 1):
        out["kappa"][i] = kappa1_pref(u[i], t_new) * nu[i]
    return out, (A, b, idx)


# --- dense <-> band storage --------------------------------------------------

def band_from_dense(a):
    """The BandedMatrix of the square matrix a, with its narrowest band."""
    a = np.asarray(a, dtype=float)
    i, j = np.nonzero(a)
    kl = int(max(np.max(i - j, initial=0), 0))
    ku = int(max(np.max(j - i, initial=0), 0))
    m = BandedMatrix(a.shape[0], kl, ku)
    m.data[kl + ku + i - j, j] = a[i, j]
    return m


def dense_from_band(m):
    """The dense matrix a BandedMatrix stores, read entry by entry."""
    a = np.zeros((m.n, m.n))
    for i in range(m.n):
        for j in range(max(0, i - m.kl), min(m.n, i + m.ku + 1)):
            a[i, j] = m.data[m.kl + m.ku + i - j, j]
    return a
