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

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvariantViolationError

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-9
POSITIVITY_FLOOR = -1e-9


# Bytes of the matrices whose checks the record of passed checks keeps (see
# :class:`_CheckRecord`).  The paper's survey, 18 chain solves at 10 sites,
# reads 35 distinct 20 x 20 matrices, 242 KiB with CHECK_ENTRY_BYTES each; the
# record keeps them four times over.  A matrix above a 32nd of this, 32 KiB
# (45 x 45), is never kept: a chain of up to 22 sites keeps its Hamiltonian,
# couplings and state together, and beyond that the record would evict each
# matrix before its next check, copying and hashing its bytes for nothing (an
# N = 100 chain run took 8-12% longer), while the checks it saves weigh less
# against a solve of that size.
CHECK_RECORD_BYTES = 2**20
# Bytes a kept check holds besides the matrix: its key's tuples and the
# record's entry, about 350 on CPython 3.11 (tracemalloc over 20000 kept 2 x 2
# matrices), so the bound holds for small matrices too.
CHECK_ENTRY_BYTES = 512


class _CheckRecord:
    """The checks passed so far, least recently used first.

    A check is keyed on its kind and tolerances and on the shape and the
    exact bytes of the coerced complex array, so a matrix changed in place,
    or checked at other tolerances, is checked again.  Only passed checks are
    recorded.  The bytes of the matrices kept, and ``CHECK_ENTRY_BYTES`` for
    each, stay within ``limit``: a matrix larger than a 32nd of it is never
    kept, and the least recently used ones make room for the rest.  Lookups
    and additions run under one lock.

    ``kept`` maps a slot to the bytes kept there.  The slot holds the kind,
    the tolerances, the shape and one byte of every entry, the high mantissa
    byte of its real part, so the dict hashes a 16th of the bytes (a hit on a
    20 x 20 matrix takes 2.7 us instead of 4.2 on 2 vCPUs, CPython 3.11); a
    lookup compares the whole bytes, and two matrices that share a slot take
    turns in it.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.kept: OrderedDict = OrderedDict()
        self.nbytes = 0
        self.lock = threading.Lock()

    def key(self, a: np.ndarray, check: tuple) -> tuple | None:
        """The record's (slot, bytes) of a check of ``a``, or None if ``a``
        is too large to keep."""
        if 32 * a.nbytes > self.limit:
            return None
        data = a.tobytes()
        return (check, a.shape, data[6::16]), data

    def holds(self, key: tuple | None) -> bool:
        if key is None:
            return False
        slot, data = key
        with self.lock:
            if self.kept.get(slot) != data:
                return False
            self.kept.move_to_end(slot)
            return True

    def add(self, key: tuple | None) -> None:
        if key is None:
            return
        slot, data = key
        with self.lock:
            old = self.kept.pop(slot, None)
            if old is not None:
                self.nbytes -= len(old) + CHECK_ENTRY_BYTES
            self.kept[slot] = data
            self.nbytes += len(data) + CHECK_ENTRY_BYTES
            while self.nbytes > self.limit:
                _, old = self.kept.popitem(last=False)
                self.nbytes -= len(old) + CHECK_ENTRY_BYTES


_PASSED = _CheckRecord(CHECK_RECORD_BYTES)


def _as_square_complex(m, name: str) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    return a


def _require_finite(a: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(a)):
        raise InvariantViolationError(f"{name} contains non-finite entries")


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex ndarray with finite entries."""
    a = _as_square_complex(m, name)
    _require_finite(a, name)
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation from M = M^dagger."""
    if not m.size:
        return 0.0
    # the difference overwrites a fresh conjugate, so a check holds one
    # complex temporary of the matrix's size, not two
    difference = np.conjugate(m).T
    np.subtract(m, difference, out=difference)
    return float(np.max(np.abs(difference)))


def _check_hermitian(a: np.ndarray, name: str) -> None:
    _require_finite(a, name)
    defect = hermiticity_defect(a)
    if defect > HERMITICITY_ATOL:
        raise InvariantViolationError(
            f"{name} is not Hermitian: max asymmetry {defect:.3e} exceeds {HERMITICITY_ATOL:.0e}"
        )


def require_hermitian(m, name: str = "operator") -> np.ndarray:
    """Coerce to a square complex matrix and check that it is finite and
    Hermitian within ``HERMITICITY_ATOL``.  A matrix whose exact bytes
    passed this check returns at once (:class:`_CheckRecord`)."""
    a = _as_square_complex(m, name)
    key = _PASSED.key(a, ("hermitian", HERMITICITY_ATOL))
    if not _PASSED.holds(key):
        _check_hermitian(a, name)
        _PASSED.add(key)
    return a


def _density_errors(states: np.ndarray, herm_atol: float, trace_atol: float, eig_floor: float,
                    name: str) -> list[InvariantViolationError | None]:
    """The checks of :func:`require_density_matrix` on a stack of square
    matrices, in one batched pass with one ``eigvalsh``: the error of each
    matrix, its first failing check's, or None where every check passes."""
    finite = np.isfinite(states).all(axis=(1, 2)).tolist()
    good = states if all(finite) else states[finite]
    adjoint = good.conj().swapaxes(1, 2)
    defects = np.abs(good - adjoint).max(axis=(1, 2), initial=0.0).tolist()
    traces = good.trace(axis1=1, axis2=2).tolist()
    # eigenvalues ascend; a 0 x 0 matrix has none, and fails on its trace
    lowest = np.linalg.eigvalsh(0.5 * (good + adjoint))[:, 0].tolist() if good.shape[-1] else [0.0] * len(good)
    errors: list[InvariantViolationError | None] = []
    checked = iter(zip(defects, traces, lowest))
    for is_finite in finite:
        if not is_finite:
            errors.append(InvariantViolationError(f"{name} contains non-finite entries"))
            continue
        defect, tr, low = next(checked)
        if defect > herm_atol:
            errors.append(InvariantViolationError(
                f"{name} is not Hermitian: max asymmetry {defect:.3e} exceeds {herm_atol:.0e}"
            ))
        elif abs(tr - 1.0) > trace_atol:
            errors.append(InvariantViolationError(
                f"{name} trace {tr:.12g} differs from 1 beyond {trace_atol:.0e}"
            ))
        elif low < eig_floor:
            errors.append(InvariantViolationError(f"{name} has eigenvalue {low:.3e} below {eig_floor:.0e}"))
        else:
            errors.append(None)
    return errors


def _check_density_matrix(a: np.ndarray, herm_atol: float, trace_atol: float, eig_floor: float,
                          name: str) -> None:
    (error,) = _density_errors(a[None], herm_atol, trace_atol, eig_floor, name)
    if error is not None:
        raise error


def require_density_matrix(
    rho,
    herm_atol: float = HERMITICITY_ATOL,
    trace_atol: float = TRACE_ATOL,
    eig_floor: float = POSITIVITY_FLOOR,
    name: str = "density matrix",
) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity (up to numerical slack).

    A state whose exact bytes passed this check at the same tolerances
    returns at once (:class:`_CheckRecord`): a state is read by several
    observables, and each would otherwise repeat the check.
    """
    a = _as_square_complex(rho, name)
    key = _PASSED.key(a, ("density", herm_atol, trace_atol, eig_floor))
    if not _PASSED.holds(key):
        _check_density_matrix(a, herm_atol, trace_atol, eig_floor, name)
        _PASSED.add(key)
    return a


def _record_density_matrix(state: np.ndarray) -> None:
    """Record a state just checked in full as :func:`require_density_matrix`
    checks it at its default tolerances, so the observables that read it
    skip the repeat."""
    _PASSED.add(_PASSED.key(state, ("density", HERMITICITY_ATOL, TRACE_ATOL, POSITIVITY_FLOOR)))


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


def components(size: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Connected components of the graph on 0..size-1 with the edges
    (rows[e], cols[e]): the smallest index of the component of every index.

    Hooking and shortcutting: every index points at a root, the smallest
    index of its tree.  Each round hooks the larger root of every edge that
    joins two trees under the smallest root it is joined to (so the forest
    stays acyclic), then points every index straight at its new root; the
    number of trees falls every round until no edge joins two.  Hooking
    under the smallest root rather than any one cuts the rounds: the
    components of a 100-site chain's generator take 0.73 ms, not 5.6 ms.
    """
    root = np.arange(size)
    while True:
        a, b = root[rows], root[cols]
        joining = a != b
        if not joining.any():
            return root
        # an edge inside one tree stays inside one tree
        rows, cols, a, b = rows[joining], cols[joining], a[joining], b[joining]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = root[root]
            if (up == root).all():
                break
            root = up


def stacked_order(root: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """For the component labels ``root`` of :func:`components`: the indices
    ordered by (component size, component, index), the size of each one's
    component in that order, and the bounds of every run of one size.  Each
    size is one contiguous stack and each component a contiguous run in it,
    starting at its root."""
    extent = np.bincount(root, minlength=root.size)[root]
    order = np.lexsort((root, extent))
    sorted_extent = extent[order]
    steps = (np.flatnonzero(sorted_extent[1:] != sorted_extent[:-1]) + 1).tolist()
    edges = [0, *steps, root.size] if root.size else [0]  # no indices, no runs
    return order, sorted_extent, edges


def eigh(m) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The matrix is decomposed by the connected components of its nonzero
    pattern, one batched ``numpy.linalg.eigh`` per component size, so every
    eigenvector is exactly zero off its component: a level that nothing
    couples is an exact unit vector.  On the whole matrix, LAPACK may return
    such levels with spurious entries down to 1e-99 or rotated within a
    degenerate subspace, and the Davies model reads exact zeros as structure.
    Equal eigenvalues keep the order of their components, by size and then
    by smallest index.

    Raises InvariantViolationError naming the maximum asymmetry when the
    input is not Hermitian within ``HERMITICITY_ATOL``.
    """
    return _eigh(require_hermitian(m, name="eigh input"))


def _eigh(a: np.ndarray) -> EigenDecomposition:
    """:func:`eigh` of a square complex matrix already checked to be
    Hermitian."""
    dim = a.shape[0]
    order, sorted_extent, edges = stacked_order(components(dim, *np.nonzero(a)))
    energies = np.empty(dim)
    states = np.zeros((dim, dim), dtype=a.dtype)
    for lo, hi in zip(edges[:-1], edges[1:]):
        size = int(sorted_extent[lo])
        index = order[lo:hi].reshape(-1, size)
        values, vectors = np.linalg.eigh(a[index[:, :, None], index[:, None, :]])
        energies[lo:hi] = values.ravel()
        # eigenvector j of component c is column lo + c * size + j
        states[index[:, :, None], np.arange(lo, hi).reshape(-1, 1, size)] = vectors
    rank = energies.argsort(kind="stable")
    return EigenDecomposition(energies=energies[rank], states=states[:, rank])


def vectorize(m) -> np.ndarray:
    """Column-stack a square matrix into a vector."""
    a = as_complex_matrix(m)
    return a.reshape(-1, order="F")

