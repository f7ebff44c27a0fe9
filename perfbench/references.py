"""Independent correctness references, one per workload.

Every check recomputes what the op's output must be from the op's inputs
with plain numpy/scipy, never through aqsim, and returns a list of problems
(empty when the output is right).  Checks run outside every timed region.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# The program stops an ENAQT point once the sink feed rate falls back below
# tol * trap_rate; what still reaches the sink after that is far below this.
ETA_CONVERGED_TOL = 1e-5
# DOP853 at rtol 1e-8, atol 1e-11 over a few hundred time units.
ETA_ODE_TOL = 1e-6
WALK_SIGMAS = 5.0


def read_csv(path) -> tuple:
    """(header, rows of strings) of an aqsim CSV, metadata lines skipped."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _site_block_generator(on_site, couplings, sink, trap, recomb, gamma):
    """Sparse generator of the n x n site block (column stacking).

    H_eff = H - i(trap/2)|k><k| - i(recomb/2) 1; uniform dephasing damps
    every coherence at rate gamma.
    """
    n = on_site.size
    h_eff = np.diag(on_site).astype(complex) + couplings
    h_eff[sink, sink] -= 0.5j * trap
    h_eff -= 0.5j * recomb * np.eye(n)
    eye = sp.identity(n, format="csc")
    h_eff = sp.csc_matrix(h_eff)
    gen = -1j * (sp.kron(eye, h_eff) - sp.kron(h_eff.conj(), eye))
    off_diagonal = 1.0 - np.eye(n)
    return (gen - sp.diags(gamma * off_diagonal.reshape(-1, order="F"))).tocsc()


def transport_reference(on_site, couplings, source, sink, trap, recomb,
                        gamma, t=None) -> float:
    """Sink yield trap * int_0^t rho_kk; t=None is the steady state eta(inf)."""
    n = on_site.size
    gen = _site_block_generator(on_site, couplings, sink, trap, recomb, gamma)
    rho0 = np.zeros(n * n, dtype=complex)
    rho0[source + n * source] = 1.0
    kk = sink + n * sink
    lu = splu(gen)
    if t is None:
        integral = -lu.solve(rho0)
    else:
        # int_0^t e^{Ls} v ds = L^{-1} (e^{Lt} v - v); dense e^{Lt}, whose
        # cost does not grow with ||L|| t, on the 7-site block
        evolved = scipy.linalg.expm(gen.toarray() * t) @ rho0
        integral = lu.solve(evolved - rho0)
    return float(trap * integral[kk].real)


def check_enaqt(values: dict, facts: dict, output) -> list:
    header, rows = read_csv(output)
    if header != ["gamma", "eta", "converged"]:
        return [f"unexpected header {header}"]
    grid = np.geomspace(values["gamma_min"], values["gamma_max"], values["gamma_steps"])
    if len(rows) != grid.size:
        return [f"{len(rows)} rows for {grid.size} gamma points"]
    problems = []
    args = (facts["on_site"], facts["couplings"], values["source"], values["sink"],
            values["trap_rate"], values["recombination_rate"])
    for (g_text, eta_text, flag), gamma in zip(rows, grid):
        g, eta = float(g_text), float(eta_text)
        if not math.isclose(g, gamma, rel_tol=1e-12):
            problems.append(f"gamma {g} is not grid point {gamma}")
            continue
        eta_inf = transport_reference(*args, gamma)
        # comparisons are written so that a NaN fails them
        if flag == "true":
            if not abs(eta - eta_inf) <= ETA_CONVERGED_TOL:
                problems.append(f"gamma {g:g}: converged eta {eta} vs eta(inf) {eta_inf}")
        elif flag == "false":
            eta_t = transport_reference(*args, gamma, t=values["t_max"])
            if not (0.0 <= eta <= eta_inf + ETA_ODE_TOL and abs(eta - eta_t) <= ETA_ODE_TOL):
                problems.append(f"gamma {g:g}: unconverged eta {eta} vs "
                                f"eta(t_max) {eta_t}, eta(inf) {eta_inf}")
        else:
            problems.append(f"gamma {g:g}: converged flag {flag!r}")
    return problems


def mean_dephasing_channel(on_site, couplings, input_mode, t, n_segments, sigma):
    """Exact infinite-shot populations: rho -> D_sigma(U rho U^dag) per segment."""
    n = on_site.size
    w, v = np.linalg.eigh(np.diag(on_site) + couplings)
    u = (v * np.exp(-1j * w * (t / n_segments))) @ v.conj().T
    damp = np.full((n, n), math.exp(-sigma ** 2))
    np.fill_diagonal(damp, 1.0)
    rho = np.zeros((n, n), dtype=complex)
    rho[input_mode, input_mode] = 1.0
    for _ in range(n_segments):
        rho = (u @ rho @ u.conj().T) * damp
    return np.diagonal(rho).real.copy()


def check_walk(values: dict, facts: dict, output) -> list:
    header, rows = read_csv(output)
    if header != ["site", "population"]:
        return [f"unexpected header {header}"]
    pops = np.array([float(p) for _, p in rows])
    exact = mean_dephasing_channel(facts["on_site"], facts["couplings"],
                                   values["input_mode"], values["time"],
                                   values["n_segments"], values["phase_sigma"])
    if pops.size != exact.size:
        return [f"{pops.size} populations for {exact.size} sites"]
    # a shot's population lies in [0, 1], so its variance is at most p(1 - p)
    p = np.clip(exact, 0.0, 1.0)
    sigma = np.sqrt(p * (1.0 - p) / values["shots"]) + 1e-15
    z = (pops - exact) / sigma
    bad = np.flatnonzero(~(np.abs(z) <= WALK_SIGMAS))
    problems = [f"site {i}: population {pops[i]} vs exact mean {exact[i]} "
                f"({z[i]:.1f} sigma)" for i in bad[:5]]
    # each z^2 has expectation at most 1, so their sum at most the site count
    if not np.sum(z ** 2) <= z.size:
        problems.append(f"sum of squared deviations {np.sum(z ** 2):.1f} sigma^2 "
                        f"exceeds the {z.size} sites")
    if not abs(pops.sum() - 1.0) <= 1e-9:
        problems.append(f"populations sum to {pops.sum()}")
    return problems


def check_scan(values: dict, facts: dict, output) -> list:
    header, rows = read_csv(output)
    if header != ["j_ratio", "gap", "condensate_fraction"]:
        return [f"unexpected header {header}"]
    grid = np.geomspace(values["j_min"], values["j_max"], values["j_steps"])
    table = np.array([[float(x) for x in row] for row in rows])
    if table.shape != (grid.size, 3):
        return [f"table shape {table.shape} for {grid.size} J points"]
    problems = []
    if not np.allclose(table[:, 0], grid, rtol=1e-12, atol=0.0):
        problems.append("j_ratio column is not the requested grid")
    gaps, fractions = table[:, 1], table[:, 2]
    if not np.all(gaps > 0) or not np.all(np.diff(gaps) < 0):
        problems.append(f"gap not positive and strictly decreasing in J: {gaps}")
    # the top one-body eigenvalue is at least the mean occupation N / L
    if not np.all((fractions >= 1.0 / values["L"] - 1e-12) & (fractions <= 1)):
        problems.append(f"condensate fraction outside [1/L, 1]: {fractions}")
    if not np.all(np.diff(fractions) > 0):
        problems.append(f"condensate fraction not increasing in J: {fractions}")
    return problems


CHECKS = {
    "enaqt_fmo": check_enaqt,
    "walk_ensemble": check_walk,
    "bh_scan": check_scan,
}
