"""Gate-level circuits and statevector simulation for the overlap protocol.

Provides the Hadamard-test circuit construction (control ancilla on qubit
2N, system qubits 0..2N-1), a dense little-endian statevector simulator,
Bernoulli shot sampling of the ancilla, and an exact overlap evaluator that
needs no circuit.  The Ising propagator is diagonal and the state is
uniform, so the overlap factorizes:

    <phi|U(M; t)|phi> = mean_{x'} prod_j cos(t (x'^T M)_j),

a real number (x -> -x conjugates each phase) computed in N 2^N work over
the blocked sign-vector walk of matrices.sign_blocks.  Both protocol
evaluators therefore return the real overlap, and shot mode runs one Re
Hadamard test per term; the Sdg (Im) circuit is kept as a checked circuit
only.  The statevector simulator remains the Hadamard-test oracle and the
shot-mode sampler.  Its six gates are H, SDG, X, CNOT, RZ and CRZZ (a ZZ
rotation under one control qubit): shot mode simulates one CRZZ per
matrix entry, the CNOT synthesis that resource_table counts uses CNOT and
RZ, and X prepares basis states in hand-built circuits.  The uniform state
of a leading H layer is written directly; every other gate acts in place
on a reshaped view of the state, one length-2 axis per qubit it touches.
A phase gate scales only its odd-parity amplitudes, and its common phase
waits as an angle on its control qubit until a gate mixes that qubit's
halves.  So a Hadamard test peaks at about 1.0x the state (about 1 GiB at
the 26-qubit cap); X and CNOT copy a half or a quarter of the state.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .accumulate import LaneSum
from .errors import DimensionTooLargeError, InvalidInputError
from .matrices import as_matrix, sign_blocks

_MAX_QUBITS = 26
_OVERLAP_MAX_N = 20
_THETA_ELISION = 1e-15


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    theta: float | None = None


@dataclass
class QuantumCircuit:
    """Ordered gate list over a fixed qubit register."""

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def _add(self, name: str, qubits: tuple[int, ...], theta: float | None = None) -> None:
        if len(set(qubits)) != len(qubits):
            raise InvalidInputError(f"{name}: qubit indices must be distinct, got {qubits}")
        if any(q < 0 or q >= self.num_qubits for q in qubits):
            raise InvalidInputError(f"{name}: qubit index out of range for {self.num_qubits} qubits")
        self.gates.append(Gate(name, qubits, theta))

    def h(self, q):
        self._add("H", (q,))

    def sdg(self, q):
        self._add("SDG", (q,))

    def x(self, q):
        self._add("X", (q,))

    def cnot(self, c, t):
        self._add("CNOT", (c, t))

    def rz(self, q, theta):
        self._add("RZ", (q,), float(theta))

    def crzz(self, c, t1, t2, theta):
        self._add("CRZZ", (c, t1, t2), float(theta))

    @property
    def cnot_count(self) -> int:
        return sum(1 for g in self.gates if g.name == "CNOT")

    def depth(self) -> int:
        """Greedy layering over disjoint qubit supports."""
        busy = [0] * self.num_qubits
        depth = 0
        for g in self.gates:
            layer = 1 + max(busy[q] for q in g.qubits)
            for q in g.qubits:
                busy[q] = layer
            depth = max(depth, layer)
        return depth


def _require_real(m) -> np.ndarray:
    sm = as_matrix(m)
    if not sm.is_real:
        raise InvalidInputError("shifted propagator matrices must be real")
    return sm.entries


def build_hadamard_test(m, dt_half: float, measure_imag: bool = False,
                        synthesize: bool = True) -> QuantumCircuit:
    """Hadamard-test circuit for Re (or Im) of <phi|U(M; dt_half)|phi>.

    Ancilla is qubit 2N.  Each CRZZ (controlled ZZ rotation) is synthesized
    as CNOT(t1,t2), a controlled RZ on t2 made of two RZ and two CNOT, and
    CNOT(t1,t2), giving 4 CNOTs per nonzero matrix entry (4N^2 for dense M);
    pass synthesize=False to keep native CRZZ gates.
    """
    arr = _require_real(m)
    n = arr.shape[0]
    anc = 2 * n
    circ = QuantumCircuit(num_qubits=2 * n + 1)
    circ.h(anc)
    if measure_imag:
        circ.sdg(anc)
    for k in range(2 * n):
        circ.h(k)
    for p in range(n):
        for q in range(n):
            theta = 2.0 * arr[p, q] * dt_half
            if abs(theta) < _THETA_ELISION:
                continue
            t1, t2 = q, n + p
            if not synthesize:  # distinct, in-range qubits by construction
                circ.gates.append(Gate("CRZZ", (anc, t1, t2), float(theta)))
                continue
            circ.cnot(t1, t2)
            circ.rz(t2, theta / 2.0)
            circ.cnot(anc, t2)
            circ.rz(t2, -theta / 2.0)
            circ.cnot(anc, t2)
            circ.cnot(t1, t2)
    circ.h(anc)
    return circ


# --- dense statevector simulation -------------------------------------------


@functools.lru_cache(maxsize=1 << 12)
def _split_layout(num_qubits: int, qubits: tuple[int, ...]):
    """Reshape shape and axis order of _split for one register width."""
    order = sorted(qubits, reverse=True)
    shape, top = [], num_qubits
    for q in order:
        shape += [1 << (top - q - 1), 2]
        top = q
    shape.append(1 << top)
    lead = [2 * order.index(q) + 1 for q in qubits]
    rest = [ax for ax in range(len(shape)) if ax not in lead]
    return tuple(shape), tuple(lead + rest)


def _split(state: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """View of the state with one leading length-2 axis per listed qubit.

    Axis i is qubit qubits[i] (little endian: qubit q is bit q of the
    index), so v[1, 0] holds the amplitudes where qubits[0] is 1 and
    qubits[1] is 0; the trailing axes run over the other qubits.  In-place
    arithmetic on the view writes through to the state.
    """
    shape, axes = _split_layout(state.size.bit_length() - 1, qubits)
    return state.reshape(shape).transpose(axes)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_ODD_BITS = {1: [(1,)], 2: [(0, 1), (1, 0)]}


def _apply_gate(v: np.ndarray, g: Gate) -> float:
    """Apply one gate in place to v = _split(state, g.qubits), up to a phase.

    RZ and CRZZ scale only the slices where the targets' Z parity is odd, by
    e^(i theta), and return the angle -theta/2 of the phase they leave out:
    e^(-i theta/2) on the whole (control = 1) view.  Every other
    gate returns 0.0.  Only X and CNOT make a temporary (their swap copy),
    freed on return.
    """
    controlled = g.name in ("CNOT", "CRZZ")
    if controlled:
        v = v[1]  # the control = 1 half
    if g.name == "H":  # (a0, a1) -> (a0 + a1, a0 - a1) / sqrt(2) with no temporary
        a0, a1 = v[0], v[1]
        a0 += a1
        a1 *= -2.0
        a1 += a0
        v *= _INV_SQRT2
    elif g.name in ("X", "CNOT"):
        # swap; a ufunc writes a0 without the copy of a1 that a0[...] = a1 makes
        a0, a1 = v[0], v[1]
        tmp = a0.copy()
        np.positive(a1, out=a0)
        a1[...] = tmp
    elif g.name == "SDG":
        v[1] *= -1j
    elif g.name in ("RZ", "CRZZ"):
        turn = cmath.exp(1j * g.theta)
        for bits in _ODD_BITS[len(g.qubits) - controlled]:
            v[bits] *= turn
        return -0.5 * g.theta
    else:  # pragma: no cover - gate set is closed
        raise InvalidInputError(f"unsupported gate {g.name!r}")
    return 0.0


def simulate_statevector(circ: QuantumCircuit) -> np.ndarray:
    """Exact dense simulation from |0...0>, little-endian qubit order.

    A leading run of H gates on distinct qubits (it ends at any other gate
    or a repeated qubit) is one write: 2^(-k/2) on the 2^k indices whose
    other bits are 0, so a Hadamard test opens with one pass, not 2N+1.
    Each later gate, one of the six, acts in place on a view with one
    length-2 axis per qubit it touches (see _split): H and X on the halves
    where its qubit is 0 and 1, SDG on the 1 half, CNOT by swapping the two
    target slices inside the control = 1 half, and RZ and CRZZ by scaling
    only the (control = 1) slices where the targets' Z parity is odd by
    e^(i theta).  Their common factor
    e^(-i theta/2) is deferred: the angles are collected per control qubit
    (RZ's for the whole state), and the control = 1 half is scaled once by
    e^(i fsum(angles)) just before the next H or X on that qubit or CNOT
    onto it, or at the end.  The factor commutes with every gate in
    between, and one correctly rounded angle rounds less than a running
    product of phases.  Only X and CNOT make a temporary (half and a quarter
    of the state), so a Hadamard test's traced peak is about 1.0x the
    state's bytes plus numpy's fixed iteration buffers (under 0.5 MiB).
    """
    nq = circ.num_qubits
    if nq > _MAX_QUBITS:
        raise DimensionTooLargeError(f"statevector simulation capped at {_MAX_QUBITS} qubits")
    run: list[int] = []
    for g in circ.gates:
        if g.name != "H" or g.qubits[0] in run:
            break
        run.append(g.qubits[0])
    k = len(run)
    state = np.zeros(1 << nq, dtype=np.complex128)
    # one axis per qubit (axis a is qubit nq-1-a): at most 26 axes, within
    # numpy 1.x's 32-dimension limit
    state.reshape((2,) * nq)[tuple(slice(None) if nq - 1 - a in run else 0
                                   for a in range(nq))] = math.sqrt(0.5**k)
    # the phase gates' left-out angles, per control qubit (None: uncontrolled)
    deferred: dict[int | None, list[float]] = {}

    def flush(q):
        part = state if q is None else _split(state, (q,))[1]
        part *= cmath.exp(1j * math.fsum(deferred.pop(q)))

    for g in circ.gates[k:]:
        if g.name in ("H", "X", "CNOT") and g.qubits[-1] in deferred:
            flush(g.qubits[-1])  # the gate mixes that qubit's halves
        angle = _apply_gate(_split(state, g.qubits), g)
        if angle:
            control = g.qubits[0] if g.name == "CRZZ" else None
            deferred.setdefault(control, []).append(angle)
    for q in list(deferred):
        flush(q)
    return state


def ancilla_probability_zero(circ: QuantumCircuit, ancilla: int) -> float:
    zero = _split(simulate_statevector(circ), (ancilla,))[0]
    return float(np.vdot(zero, zero).real)


# --- overlap evaluation ------------------------------------------------------


@dataclass
class OverlapResult:
    """One evaluated overlap Re/Im pair and the shots it drew (0 if exact).

    A shot estimate e of one part has variance (1 - e^2) / shots_used.
    """

    real_part: float
    imag_part: float | None
    shots_used: int

    @property
    def value(self) -> complex:
        return complex(self.real_part, self.imag_part or 0.0)


def overlap_exact(m, dt_half: float) -> OverlapResult:
    """<phi|U(M; dt_half)|phi> as a mean of cosine products over x'.

    The propagator is diagonal, so the overlap is the mean of
    exp(-i dt_half x'^T M x) over all sign-vector pairs (x, x').  For fixed x'
    the exponent is a sum of independent terms c_j x_j with c = x'^T M, so
    the mean over x factorizes into prod_j cos(dt_half c_j): N 2^N work over
    the blocked sign-vector walk instead of 4^N.  The imaginary part is
    exactly zero, because x -> -x maps every phase to its conjugate.
    """
    arr = _require_real(m)
    n = arr.shape[0]
    if n > _OVERLAP_MAX_N:
        raise DimensionTooLargeError(f"overlap_exact capped at n <= {_OVERLAP_MAX_N}")
    # per x': (x'^T M)^T in the walk's fixed low part and in its block, where
    # the cosines are taken in place
    lanes = LaneSum()
    for _, cols in sign_blocks(arr, 16 * n):
        cols *= dt_half
        lanes.add(np.cos(cols, out=cols).prod(axis=0))
    return OverlapResult(real_part=lanes.total() / 2**n, imag_part=0.0, shots_used=0)


def overlap_shots(m, dt_half: float, shots: int, seed: int | list[int],
                  measure_imag: bool = False) -> OverlapResult:
    """Shot-sampled Hadamard-test estimate of Re (or Im) of the overlap.

    Simulates the native circuit (build_hadamard_test with synthesize=False:
    N^2 CRZZ gates, not the 6N^2 gates of the CNOT synthesis, whose
    ancilla probability is the same up to rounding) and draws the ancilla
    count from its exact marginal, which is statistically identical to
    full-register sampling for this observable.  seed is anything
    np.random.default_rng takes: an int, or a list of ints that is one
    SeedSequence entropy pool.
    """
    if shots < 1:
        raise InvalidInputError("shots must be >= 1")
    circ = build_hadamard_test(m, dt_half, measure_imag=measure_imag, synthesize=False)
    p0 = ancilla_probability_zero(circ, circ.num_qubits - 1)
    p0 = min(max(p0, 0.0), 1.0)
    rng = np.random.default_rng(seed)
    n0 = int(rng.binomial(shots, p0))
    est = (2 * n0 - shots) / shots
    if measure_imag:
        return OverlapResult(real_part=0.0, imag_part=est, shots_used=shots)
    return OverlapResult(real_part=est, imag_part=None, shots_used=shots)


def hoeffding_shots(epsilon_ht: float, delta: float) -> int:
    """Two-sided Hoeffding sample count for a +/-1-valued estimator."""
    if not (0.0 < epsilon_ht < 1.0) or not (0.0 < delta < 1.0):
        raise InvalidInputError("epsilon_ht and delta must lie in (0, 1)")
    return math.ceil(2.0 * math.log(2.0 / delta) / epsilon_ht**2)


# --- evaluators for the recombination protocol -------------------------------


def exact_overlap_evaluator():
    """Overlap evaluator callback computing the real overlap exactly."""

    def evaluate(term, dt_half: float, index: int) -> float:
        return overlap_exact(term.matrix, dt_half).real_part

    return evaluate


def shot_overlap_evaluator(shots: int, seed: int):
    """Shot-mode evaluator: one Re Hadamard test per term.

    Every overlap is real, so no term needs the Sdg (Im) circuit.  Term index
    draws from the stream of SeedSequence([seed, index]), so runs at
    different seeds share no stream.
    """

    def evaluate(term, dt_half: float, index: int) -> float:
        return overlap_shots(term.matrix, dt_half, shots, [seed, index]).real_part

    return evaluate
