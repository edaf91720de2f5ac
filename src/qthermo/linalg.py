"""Dense complex linear algebra shared by the physics modules.

Conventions, fixed once for the whole package:

* hbar = k_B = 1; energies and temperatures are expressed in units of a
  reference gap chosen by the model (the on-site energy for chains, the
  transition energy for three-level systems).
* Vectorization is column-stacking: ``vectorize([[a, b], [c, d]])`` is
  ``(a, c, b, d)``.  Superoperators are therefore dim^2 x dim^2 matrices
  acting on column-stacked states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvariantViolationError,
    NumericalConsistencyError,
)

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-9
POSITIVITY_FLOOR = -1e-9


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex ndarray with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvariantViolationError(f"{name} contains non-finite entries")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation from M = M^dagger."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def require_hermitian(m, atol: float = HERMITICITY_ATOL, name: str = "operator") -> np.ndarray:
    a = as_complex_matrix(m, name)
    defect = hermiticity_defect(a)
    if defect > atol:
        raise InvariantViolationError(
            f"{name} is not Hermitian: max asymmetry {defect:.3e} exceeds {atol:.0e}"
        )
    return a


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M^dagger)/2."""
    return 0.5 * (m + m.conj().T)


def require_density_matrix(
    rho,
    herm_atol: float = HERMITICITY_ATOL,
    trace_atol: float = TRACE_ATOL,
    eig_floor: float = POSITIVITY_FLOOR,
    name: str = "density matrix",
) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity (up to numerical slack)."""
    a = require_hermitian(rho, atol=herm_atol, name=name)
    tr = complex(np.trace(a))
    if abs(tr - 1.0) > trace_atol:
        raise InvariantViolationError(f"{name} trace {tr:.12g} differs from 1 beyond {trace_atol:.0e}")
    lowest = float(np.linalg.eigvalsh(hermitize(a)).min())
    if lowest < eig_floor:
        raise InvariantViolationError(f"{name} has eigenvalue {lowest:.3e} below {eig_floor:.0e}")
    return a


# Matrix entries screened per batch, so the temporaries of a screen stay a few
# tens of KiB whatever the length of the stack.
SCREEN_CHUNK_ENTRIES = 4096


def screen_states(
    states: np.ndarray,
    trace_atol: float = TRACE_ATOL,
    herm_atol: float = HERMITICITY_ATOL,
    eig_floor: float = POSITIVITY_FLOOR,
    spectrum: bool = True,
) -> np.ndarray:
    """Check a stack of square matrices in one batched pass and return the
    mask of the states that fail.

    The screen flags non-finite entries, a trace off 1 by more than
    ``trace_atol`` and an entry of magnitude above 1 + ``trace_atol``, which
    no density matrix has (|rho_ij|^2 <= rho_ii rho_jj); with ``spectrum`` it
    also flags an asymmetry above ``herm_atol`` and a lowest eigenvalue below
    ``eig_floor``, computed as :func:`require_density_matrix` computes them.
    Callers run their own scalar check on each flagged state, in order, so
    errors keep their type and message.
    """
    count, dim = states.shape[0], states.shape[-1]
    failed = np.zeros(count, dtype=bool)
    chunk = max(1, SCREEN_CHUNK_ENTRIES // max(dim * dim, 1))
    for start in range(0, count, chunk):
        block = states[start:start + chunk]
        finite = np.isfinite(block).all(axis=(1, 2))
        good = block if finite.all() else block[finite]
        bad = np.abs(np.trace(good, axis1=1, axis2=2) - 1.0) > trace_atol
        bad |= np.abs(good).max(axis=(1, 2), initial=0.0) > 1.0 + trace_atol
        if spectrum:
            adjoint = good.conj().swapaxes(1, 2)
            bad |= np.abs(good - adjoint).max(axis=(1, 2), initial=0.0) > herm_atol
            bad |= np.linalg.eigvalsh(0.5 * (good + adjoint))[:, 0] < eig_floor
        window = failed[start:start + chunk]
        window[~finite] = True
        window[finite] = bad
    return failed


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral data of a Hermitian operator.

    ``energies`` are sorted ascending; column i of ``states`` is the
    orthonormal eigenvector paired with ``energies[i]``.
    """

    energies: np.ndarray
    states: np.ndarray

    @property
    def dim(self) -> int:
        return self.energies.shape[0]


def eigh(m, atol: float = HERMITICITY_ATOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises InvariantViolationError naming the maximum asymmetry when the
    input is not Hermitian within ``atol``.
    """
    a = require_hermitian(m, atol=atol, name="eigh input")
    energies, states = np.linalg.eigh(a)
    return EigenDecomposition(energies=energies, states=states)


def expectation(observable, rho, validate: bool = True) -> float:
    """Tr[A rho] for Hermitian A and a valid density matrix.

    The imaginary residue is checked against 1e-10 and discarded.  Pass
    ``validate=False`` to skip the input invariant checks on hot paths;
    the residue check still runs.
    """
    if validate:
        a = require_hermitian(observable, name="observable")
        r = require_density_matrix(rho)
    else:
        a = np.asarray(observable, dtype=complex)
        r = np.asarray(rho, dtype=complex)
    if a.shape != r.shape:
        raise DimensionMismatchError(f"observable {a.shape} vs state {r.shape}")
    value = complex(np.trace(a @ r))
    if abs(value.imag) > 1e-10:
        raise NumericalConsistencyError(
            f"expectation value has imaginary residue {value.imag:.3e} above 1e-10"
        )
    return value.real


def vectorize(m) -> np.ndarray:
    """Column-stack a square matrix into a vector."""
    a = as_complex_matrix(m)
    return a.reshape(-1, order="F")


def devectorize(v) -> np.ndarray:
    """Inverse of :func:`vectorize`; the length must be a perfect square."""
    vec = np.asarray(v, dtype=complex).reshape(-1)
    dim = int(round(np.sqrt(vec.size)))
    if dim * dim != vec.size:
        raise DimensionMismatchError(f"vector of length {vec.size} is not a stacked square matrix")
    return vec.reshape((dim, dim), order="F")


def trace_distance(a, b) -> float:
    """(1/2) * sum of absolute eigenvalues of the Hermitian difference."""
    diff = hermitize(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
