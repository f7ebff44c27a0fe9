"""The state checks against the whole-state oracle.

open_system._check_states (whole matrices, as DensityMatrix passes them)
and open_system._check_coordinates (transport states in their real
coordinates) screen a stack's positivity with one Cholesky factorization
and diagonalize only a stack that fails the screen.  The properties below
plant each state's lowest eigenvalue just above and just below
POSITIVITY_FLOOR, inside the screen's 5e-9 margin, and mix in trace drift,
non-Hermitian entries (whole matrices only: no coordinate vector is one)
and NaNs; the verdict and the message must be those of
tests/oracles.state_check_failure, which diagonalizes every whole state on
its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import aqsim
from aqsim import StateInvariantError, open_system
from aqsim.open_system import POSITIVITY_FLOOR, initial_excitation

from oracles import state_check_failure
from test_open_system import FMO_GAMMA_GRID, fmo7_panel

# what a state in a generated stack is: valid (mixed or pure), lowest
# eigenvalue planted at the floor plus an offset, or broken by one fault
PLANTED = (1e-13, -1e-13, 1e-10, -1e-10)
KINDS = ("mixed", "pure", *PLANTED, "drift", "skew", "nan")


def _state(rng, kind, m, r):
    """An (m, m) block and r register populations of one state of a kind."""
    d = m + r
    values = rng.uniform(0.1, 1.0, d)
    if kind == "pure":
        values = np.eye(d)[rng.integers(d)]
    elif kind in PLANTED:
        # the other eigenvalues make up the trace; a lone one drifts
        low = rng.integers(d)
        values[low] = 0.0
        values *= (1.0 - POSITIVITY_FLOOR - kind) / (values.sum() or 1.0)
        values[low] = POSITIVITY_FLOOR + kind
    else:
        values /= values.sum()
    q, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    block = (q * values[:m]) @ q.conj().T
    block = 0.5 * (block + block.conj().T)  # exactly Hermitian
    pops = values[m:].copy()
    if kind == "drift":
        delta = rng.choice([1e-6, -2.5e-3, 0.5])
        if rng.integers(d) < m:
            block[0, 0] += delta
        else:
            pops[0] += delta
    elif kind == "skew":
        block[0, -1] += 1e-6j
    elif kind == "nan":
        where = rng.integers(m * m + r)
        if where < m * m:
            block.flat[where] = np.nan
        else:
            pops[where - m * m] = np.nan
    return block, pops


@st.composite
def state_stacks(draw, registers=st.integers(0, 2), kinds=KINDS):
    m, r = draw(st.integers(1, 7)), draw(registers)
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = [_state(rng, kind, m, r) for kind in kinds]
    return (np.array([b for b, _ in states]),
            np.array([p for _, p in states]).reshape(len(states), r))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(state_stacks())
def test_stack_check_agrees_with_the_whole_state_oracle(stack):
    blocks, registers = stack
    k, m, r = blocks.shape[0], blocks.shape[1], registers.shape[1]
    whole = np.zeros((k, m + r, m + r), dtype=complex)
    whole[:, :m, :m] = blocks
    whole[:, range(m, m + r), range(m, m + r)] = registers
    _assert_verdict(open_system._check_states, whole, state_check_failure(blocks, registers))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(state_stacks(registers=st.just(2), kinds=[k for k in KINDS if k != "skew"]))
def test_coordinate_check_agrees_with_the_whole_state_oracle(stack):
    # R = Re rho + Im rho with R_ij at i + n j, then the two registers; the
    # oracle judges the state the coordinates stand for
    blocks, registers = stack
    n = blocks.shape[1]
    r = (blocks.real + blocks.imag).transpose(0, 2, 1)  # r[k, j, i] = R_ij
    coords = np.hstack([r.reshape(-1, n * n), registers])
    states = 0.5 * ((1 + 1j) * r.transpose(0, 2, 1) + (1 - 1j) * r)
    _assert_verdict(lambda x: open_system._check_coordinates(x, n), coords,
                    state_check_failure(states, registers))


def _assert_verdict(check, stack, want):
    if want is None:
        check(stack)
        return
    with pytest.raises(StateInvariantError) as err:
        check(stack)
    assert str(err.value) == want


def test_passing_sweep_never_diagonalizes(monkeypatch):
    hs, spec = fmo7_panel()
    want = [aqsim.goldilocks_sweep(h, spec, FMO_GAMMA_GRID, t_max=600.0) for h in hs]

    def refuse(a):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for h, curve in zip(hs, want):
        got = aqsim.goldilocks_sweep(h, spec, FMO_GAMMA_GRID, t_max=600.0)
        assert np.array_equal(got.efficiencies, curve.efficiencies)
        assert got.converged == curve.converged
    # a stack that fails the screen is diagonalized
    lopsided = initial_excitation(2, 0).matrix + np.diag([0.0, 0.0, 0.2, -0.2])
    with pytest.raises(AssertionError, match="eigvalsh called"):
        open_system._check_states(lopsided[np.newaxis])
