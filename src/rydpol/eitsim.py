"""Steady-state ladder-EIT simulation through the RF-dressed manifold.

Level scheme: single ground state g, intermediate manifold i (J_i = 3/2 by
default), and the RF-coupled Rydberg pair r1/r2 of a transition class,
optionally joined by a third Rydberg manifold r3 offset by delta3 (MHz)
that the RF (and the coupling laser) reach off-resonantly.

The probe drives g -> i and the coupling laser drives i -> r1 or i -> r2,
whichever is dipole-accessible in the experiment being modeled (the
S-series classes are probed on r1, the D-series on r2).  Peak positions in
the probe response vs coupling detuning Delta_c sit at omega_rf times the
dressed eigenvalues; optics only reshape peak prominences.  The spectrum
is one linear readout of the steady state (the probe row on the i-g
coherences): a sum of poles taken from one reduction, in the real
coordinates of a Hermitian rho, and one real eigendecomposition per
phase angle that also yields the dark steady state (_reduce,
eit_spectrum).  On the Poincare meridian the RF enters H as two fixed
terms with the real amplitudes of sop_from_phi, so the reduction is
built once per scheme and phi-free parameters (_scheme_reduction) and
each angle only adds its two terms.

All rates and detunings are in MHz (angular frequency units absorbed into
the Rabi conventions).

The module keeps only the physics: it takes LevelScheme, SimParams and
arrays, and returns arrays and dataclasses.  The command line (cli) reads
the scenario file, with the scheme defaults of scheme_fields, and formats
every output but one: the benchmark traces write_spectrogram_csv by name.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache

import numpy as np

from .angular import HalfInt
from .dressing import TransitionClass, dipole_block, oracle_scale, rf_block
from .sop import OpticalConfig, RfSop, sop_from_phi, standard_optics


@dataclass(frozen=True)
class ThirdLevel:
    """Extra Rydberg manifold reached off-resonantly (detuning delta3 > 0)."""

    j3: HalfInt
    delta3_mhz: float

    def __post_init__(self):
        object.__setattr__(self, "j3", HalfInt.of(self.j3))
        if not (math.isfinite(self.delta3_mhz) and self.delta3_mhz > 0):
            raise ValueError("delta3 must be finite and positive, got %r" % self.delta3_mhz)


@dataclass(frozen=True)
class LevelScheme:
    cls: TransitionClass
    j_intermediate: HalfInt
    coupling_target: str  # which Rydberg manifold the coupling laser drives
    third: ThirdLevel | None = None

    def __post_init__(self):
        object.__setattr__(self, "j_intermediate", HalfInt.of(self.j_intermediate))
        if self.coupling_target not in ("r1", "r2"):
            raise ValueError("coupling_target must be 'r1' or 'r2'")
        # the probe (from the J = 1/2 ground) and the coupling laser need |dJ| <= 1
        ji = self.j_intermediate.twice
        jt = (self.cls.J if self.coupling_target == "r1" else self.cls.j_prime).twice
        if ji not in (1, 3):
            raise ValueError("j_intermediate must be a dipole partner of the J = 1/2 "
                             "ground: 2*J_i must be 1 or 3, got %d" % ji)
        if abs(jt - ji) > 2:
            raise ValueError("coupling_target %s (2*J = %d) is out of dipole reach of "
                             "j_intermediate (2*J_i = %d)" % (self.coupling_target, jt, ji))
        # the r1 <-> r3 RF coupling is built as class (J, 0) or (J, +1)
        if self.third is not None and self.third.j3 not in (self.cls.J, self.cls.J + 1):
            raise ValueError(
                "third level needs J3 = J or J+1 of r1: 2*J3 must be %d or %d, got %d"
                % (self.cls.J.twice, self.cls.J.twice + 2, self.third.j3.twice)
            )

    @property
    def j_ground(self) -> HalfInt:
        return HalfInt(1)

    @property
    def n_states(self) -> int:
        n = 2 + (self.j_intermediate.twice + 1) + self.cls.dim
        if self.third is not None:
            n += self.third.j3.twice + 1
        return n

    def offsets(self) -> dict:
        ni = self.j_intermediate.twice + 1
        out = {"g": 0, "i": 2, "r1": 2 + ni, "r2": 2 + ni + self.cls.dim_r1}
        if self.third is not None:
            out["r3"] = 2 + ni + self.cls.dim
        return out


def scheme_fields(cls: TransitionClass, third_delta3_mhz: float | None) -> dict:
    """The one home of the scheme defaults: J_i = 3/2; J=1/2 classes are
    laser-probed on r1 (S-state), the others on r2 (D-state); a third level
    sits at J3 = J + 1, one fine-structure partner up (the D5/2 next to a
    D3/2)."""
    third = None if third_delta3_mhz is None else ThirdLevel(cls.J + 1, third_delta3_mhz)
    return {"j_intermediate": HalfInt(3), "third": third,
            "coupling_target": "r1" if cls.J.twice == 1 else "r2"}


def scheme_for_class(cls: TransitionClass,
                     third_delta3_mhz: float | None = None) -> LevelScheme:
    """Experiment-matching scheme of a class, with the defaults above."""
    return LevelScheme(cls, **scheme_fields(cls, third_delta3_mhz))


@dataclass(frozen=True)
class SimParams:
    omega_probe: float = 0.5
    omega_coupling: float = 4.0
    omega_rf: float = 40.0
    gamma_i: float = 6.07
    gamma_r: float = 0.1
    delta_probe: float = 0.0
    coupling_detuning_grid: tuple = field(
        default_factory=lambda: tuple(np.linspace(-60.0, 60.0, 241))
    )
    optics: OpticalConfig = field(default_factory=standard_optics)

    def __post_init__(self):
        for name in ("omega_coupling", "omega_rf"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError("%s must be finite and non-negative" % name)
        # a zero decay rate leaves states that never relax to the ground,
        # and without a probe nothing pumps the ground doublet: either way
        # the steady state is not unique
        for name in ("omega_probe", "gamma_i", "gamma_r"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError("%s must be finite and positive" % name)
        if not math.isfinite(self.delta_probe):
            raise ValueError("delta_probe must be finite")
        grid = np.asarray(self.coupling_detuning_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
            raise ValueError("coupling_detuning_grid must be a non-empty list of finite values")
        if self.omega_probe > self.gamma_i:
            # past the dataclass-generated __init__ to the line that built it
            warnings.warn(
                "omega_probe exceeds gamma_i; weak-probe response is nonlinear",
                stacklevel=3,
            )


# what the reduction of a scheme reads of SimParams: _Model's key
_PHI_FREE = tuple(f.name for f in fields(SimParams) if f.name != "coupling_detuning_grid")


def build_hamiltonian(
    scheme: LevelScheme, params: SimParams, sop: RfSop | float, delta_c: float
) -> np.ndarray:
    """Rotating-frame, rotating-wave Hamiltonian (MHz) at one coupling
    detuning.  sop may be an RfSop or a phase angle."""
    if not isinstance(sop, RfSop):
        sop = sop_from_phi(float(sop))
    n = scheme.n_states
    off = scheme.offsets()
    ji = scheme.j_intermediate
    ni = ji.twice + 1
    H = np.zeros((n, n), dtype=complex)

    # diagonal: rotating-frame detunings
    dp, dc = params.delta_probe, delta_c
    for k in range(ni):
        H[off["i"] + k, off["i"] + k] = -dp
    for k in range(scheme.cls.dim):
        H[off["r1"] + k, off["r1"] + k] = -dp - dc
    if scheme.third is not None:
        n3 = scheme.third.j3.twice + 1
        for k in range(n3):
            H[off["r3"] + k, off["r3"] + k] = -dp - dc + scheme.third.delta3_mhz

    # the dipole blocks below all sit below the diagonal; the whole matrix
    # is Hermitized at the end
    def put(row, col, block):
        H[row : row + block.shape[0], col : col + block.shape[1]] = block

    # probe g -> i: Wigner-Eckart block over the J_g = 1/2 ground doublet,
    # which lets circular beams optically pump the ground population and
    # reshape peak prominences the way a real vapor does
    cp = params.optics.probe_components()
    put(off["i"], off["g"], params.omega_probe / 2.0 * dipole_block(ji, scheme.j_ground, cp))

    # coupling laser i -> target Rydberg manifold
    cc = params.optics.coupling_components()
    j_target = scheme.cls.J if scheme.coupling_target == "r1" else scheme.cls.j_prime
    put(off[scheme.coupling_target], off["i"],
        params.omega_coupling / 2.0 * dipole_block(j_target, ji, cc))

    # RF dressing r1 -> r2 in the lab frame, where it interferes with the
    # optical channels
    rf_minus, rf_plus = sop.lab_spherical()

    def rf(cls):
        return rf_block(cls, rf_minus, rf_plus) * (oracle_scale(cls) * params.omega_rf)

    put(off["r2"], off["r1"], rf(scheme.cls))

    if scheme.third is not None:
        j3 = scheme.third.j3
        # RF r1 -> r3, off-resonant by delta3 (handled on the diagonal)
        p3 = (j3.twice - scheme.cls.J.twice) // 2  # 0 or +1, see LevelScheme
        put(off["r3"], off["r1"], rf(TransitionClass(scheme.cls.J, p3)))
        # coupling laser also reaches r3 when it shares the target's parity
        if scheme.coupling_target == "r2":
            put(off["r3"], off["i"], params.omega_coupling / 2.0 * dipole_block(j3, ji, cc))

    H = H + H.conj().T - np.diag(np.diag(H).real)
    return H


def collapse_operators(scheme: LevelScheme, params: SimParams) -> np.ndarray:
    """Decay channels back to the ground doublet, stacked as one complex
    array of shape (channels, n, n).

    The intermediate manifold decays at total rate gamma_i with angular
    branching per photon polarization q (three separate Lindblad channels,
    so spontaneously emitted photons do not create ground coherences that
    a real vapor would not have): channels 0-2 are q = -1, 0, +1.  Every
    Rydberg state decays at gamma_r, split evenly over the two ground
    substates: channel 3 + k * n_g + m takes Rydberg state k (counted from
    r1) to ground substate m.
    """
    n = scheme.n_states
    off = scheme.offsets()
    ji = scheme.j_intermediate
    jg = scheme.j_ground
    ni = ji.twice + 1
    ng = jg.twice + 1
    nr = n - off["r1"]
    C = np.zeros((3 + nr * ng, n, n), dtype=complex)
    # branching weights: sum over m_g and q of the squared 3-j for a
    # fixed i substate is 1/(2 J_i + 1), so this scale gives each i
    # state total decay rate gamma_i; unit components give one block per q
    scale = math.sqrt(params.gamma_i * (ji.twice + 1))
    Bq = dipole_block(ji, jg, np.eye(3)[:, :, None, None])  # (q, i rows, g cols)
    C[:3, off["g"] : off["g"] + ng, off["i"] : off["i"] + ni] = scale * Bq.conj().swapaxes(1, 2)
    c = np.arange(nr * ng)
    k, mg = np.divmod(c, ng)
    C[3 + c, off["g"] + mg, off["r1"] + k] = math.sqrt(params.gamma_r / ng)
    return C


def liouvillian(H: np.ndarray, collapse: np.ndarray) -> np.ndarray:
    """Dense Lindblad generator acting on row-major vec(rho), for any H
    (Hermitian or not) and a (channels, n, n) stack of jump operators C:

        L = G (x) I + I (x) (iH - K/2)^T + J,   K = sum_c C_c^dagger C_c,

    where G = -iH - K/2 is the effective non-Hermitian Hamiltonian, and the
    jump term J = sum_c C_c (x) C_c^* is one (n^2, channels) x
    (channels, n^2) product whose (ik, jl) entries are reordered to (ij, kl).
    The two Kronecker terms are added to J where j = l and where i = k.
    """
    n = H.shape[0]
    K = np.tensordot(collapse.conj(), collapse, axes=([0, 1], [0, 1]))
    flat = collapse.reshape(-1, n * n)
    L4 = (flat.T @ flat.conj()).reshape(n, n, n, n).transpose(0, 2, 1, 3).copy()
    G, B = -1j * H - 0.5 * K, (1j * H - 0.5 * K).T
    for j in range(n):
        L4[:, j, :, j] += G
        L4[j, :, j, :] += B
    return L4.reshape(n * n, n * n)


def _impose_trace(L: np.ndarray, n: int) -> np.ndarray:
    """Replace row 0 of L (the redundant rho_00 equation) with the trace
    constraint, in place; returns the right-hand side e_0."""
    L[0, :] = 0.0
    L[0, :: n + 1] = 1.0
    b = np.zeros(n * n, dtype=complex)
    b[0] = 1.0
    return b


def steady_state(H: np.ndarray, collapse: np.ndarray) -> np.ndarray:
    """Stationary density matrix of the Lindblad generator: the dense
    reference solve, one Liouvillian and one linear system per call;
    rho is returned Hermitized.  SimParams rejects the zero decay rates
    and the zero probe that would leave it not unique."""
    n = H.shape[0]
    L = liouvillian(H, collapse)
    b = _impose_trace(L, n)
    rho = np.linalg.solve(L, b).reshape(n, n)
    return 0.5 * (rho + rho.conj().T)


def _probe_row(scheme: LevelScheme, optics: OpticalConfig) -> np.ndarray:
    """The probe readout as one row w over row-major vec(rho): the
    amplitude block with which the probe drives g -> i (unit Frobenius
    norm) on the i-g coherences, zero elsewhere, so that the probe
    absorption of a Hermitian rho is -Im(w . vec(rho))."""
    Bg = dipole_block(scheme.j_intermediate, scheme.j_ground, optics.probe_components())
    norm = np.linalg.norm(Bg)
    W = Bg / norm if norm > 0 else Bg
    n = scheme.n_states
    off = scheme.offsets()
    w = np.zeros((n, n), dtype=complex)
    w[off["i"] : off["i"] + W.shape[0], off["g"] : off["g"] + W.shape[1]] = W.conj()
    return w.reshape(-1)


def probe_absorption(scheme: LevelScheme, params: SimParams, rho: np.ndarray) -> float:
    """Probe attenuation observable of one density matrix: imaginary part
    of the ground to intermediate coherences projected on the probe
    coupling pattern."""
    return float(-np.imag(_probe_row(scheme, params.optics) @ rho.reshape(-1)))


@dataclass(frozen=True)
class EitSpectrum:
    detuning_mhz: np.ndarray
    response: np.ndarray


@dataclass(frozen=True)
class EitSpectrogram:
    phi_grid: np.ndarray
    detuning_mhz: np.ndarray
    response: np.ndarray  # shape (len(phi_grid), len(detuning_mhz))


@lru_cache(maxsize=None)
def _twins(n: int) -> tuple:
    """(lo, hi, sign) over the flat indices k = a n + b of an n x n matrix:
    lo and hi are the smaller and larger of k and its twin b n + a, the
    real coordinates of Re rho_ab and Im rho_ab (see _reduce), and sign is
    +1 where a < b, -1 where a > b and 0 on the diagonal.  Read-only."""
    k = np.arange(n * n)
    a, b = np.divmod(k, n)
    out = (np.minimum(k, b * n + a), np.maximum(k, b * n + a), np.sign(b - a))
    for x in out:
        x.setflags(write=False)
    return out


def _real_coordinates(L: np.ndarray, pos: np.ndarray) -> tuple:
    """Real and imaginary parts of T^-1 L T for the T of _reduce, from the
    nonzeros of L, with real coordinate k at row and column pos[k].

    Y = L T first: each nonzero L_ij adds L_ij to Y_i,lo(j) and, off the
    diagonal, +-i L_ij to Y_i,hi(j); then each entry y of Y adds y (a
    diagonal row i) or y / 2 to row lo(i) and, off the diagonal, -+i y / 2
    to row hi(i).  No entry of Y or of the result gets more than two
    terms, so every sum is the one a dense column-then-row pass over L
    forms, bit for bit."""
    N = L.shape[0]
    lo, hi, sign = _twins(math.isqrt(N))
    flat = np.flatnonzero(L != 0)
    v = L.reshape(-1)[flat]
    i, j = np.divmod(flat, N)
    off = sign[j] != 0
    s = sign[j[off]]
    keys, at = np.unique(np.concatenate((i * N + lo[j], i[off] * N + hi[j[off]])),
                         return_inverse=True)
    yr = np.bincount(at, np.concatenate((v.real, -s * v.imag[off])))
    yi = np.bincount(at, np.concatenate((v.imag, s * v.real[off])))
    i, c = np.divmod(keys, N)
    off = sign[i] != 0
    half, s = np.where(off, 0.5, 1.0), 0.5 * sign[i[off]]
    at = np.concatenate((pos[lo[i]] * N + pos[c], pos[hi[i[off]]] * N + pos[c[off]]))
    return tuple(np.bincount(at, np.concatenate(w), minlength=N * N).reshape(N, N)
                 for w in ((half * yr, s * yi[off]), (half * yi, -s * yr[off])))


@dataclass(frozen=True)
class _Reduction:
    """The real trace-row system of _reduce split into P and Q.  pp and
    qq stack A_PP and A_QQ of the base generator, then one block per
    term: the terms only map P to P and Q to Q.  Arrays are read-only."""

    d: np.ndarray  # D x = -d * x[twin] on P
    twin: np.ndarray  # P position of each P coordinate's twin
    b: np.ndarray  # b_Q
    r: np.ndarray  # r_Q
    pq: np.ndarray  # A_PQ
    qp: np.ndarray  # A_QP
    pp: np.ndarray  # (1 + terms, |P|, |P|)
    qq: np.ndarray  # (1 + terms, |Q|, |Q|)

    def poles(self, *amps) -> tuple:
        """(lam, c) of the generator base + sum_k amps[k] * term k."""
        coef = np.array((1.0,) + amps)
        A_PP, A_QQ = np.tensordot(coef, self.pp, 1), np.tensordot(coef, self.qq, 1)
        sol = np.linalg.solve(A_QQ, np.column_stack((self.b, self.qp)))
        x0, G = sol[:, 0], sol[:, 1:]
        S = A_PP - self.pq @ G
        M = self.d[:, None] * S[self.twin]
        if not np.all(np.isfinite(M)):
            raise np.linalg.LinAlgError("Schur complement is not finite")
        lam, V = np.linalg.eig(M)
        g = -self.d * (self.pq @ x0)[self.twin]
        return lam, 1j * ((self.r @ G) @ V) * np.linalg.solve(V, g)


def _reduce(L: np.ndarray, m: int, w: np.ndarray, rf=()) -> _Reduction:
    """Reduce the trace-row steady-state system A(Delta_c) x = e_0, with
    A(Delta_c) = L + Delta_c D, toward its poles and the residues of one
    readout row (overwrites L).  rf is empty or a pair of Hermitian RF
    Hamiltonians X; each adds a term, the generator -i[X, .], to be
    scaled per _Reduction.poles.

    The system is real in the coordinates x of a Hermitian rho that hold,
    for a < b, Re rho_ab at the flat index u = a n + b and Im rho_ab at its
    twin l = b n + a: rho = T x, T_u = e_u + e_l, T_l = i (e_u - e_l), and
    A = T^-1 L T is taken from the nonzeros of L (_real_coordinates).
    H(Delta_c) = H(0) - Delta_c on the Rydberg diagonal (states m and up),
    so D is zero except on the coherences between a Rydberg and a
    non-Rydberg state (the set P), where it maps each (Re, Im) pair by
    +-[[0, -1], [1, 0]]; the rest (the set Q) holds the trace row and the
    probe coherences.  Eliminating Q leaves
        x_Q = x0 - G x_P,    (M + Delta_c) x_P = g,
    with x0 = A_QQ^-1 b_Q, G = A_QQ^-1 A_QP, the Schur complement
    S = A_PP - A_PQ G and M = D_PP^-1 S = V diag(lam) V^-1.  D_PP^-1 is
    -D_PP, so M is S with each row swapped with its twin's, one negated.

    Omega_c only couples P to Q and Delta_c only shifts P, so A_QQ holds
    neither: x0 is the dark steady state (coupling laser off, x_P = 0).
    For a readout row w that is zero on P and r = Im(w T),
        Im(w . vec(rho)) = r_Q x0 - Im sum_k c_k / (Delta_c + lam_k),
    with c = i (r_Q G V) * (V^-1 g).
    """
    n = math.isqrt(L.shape[0])
    ryd = (np.arange(n) >= m).astype(float)
    d = np.repeat(ryd, n) - np.tile(ryd, n)
    p, q = np.flatnonzero(d), np.flatnonzero(d == 0)
    b = _impose_trace(L, n).real
    lo, hi, sign = _twins(n)
    u, l = lo[sign > 0], hi[sign > 0]
    w = w.copy()
    wu, wl = w[u], w[l]
    w[u], w[l] = wu + wl, 1j * (wu - wl)
    pos = np.empty(n * n, dtype=int)
    pos[np.concatenate((p, q))] = np.arange(n * n)  # P first, then Q
    k = len(p)
    terms = ()
    if rf:
        # -i[X, .] has no decay and no trace row, and it is complex linear
        # in X and real in these coordinates for a Hermitian X: one
        # generator of X_1 + i X_2 holds the term of X_1 in its real part
        # and that of X_2 in its imaginary part.  Built before the base
        # pass, whose arrays then reuse its memory
        no_decay = np.zeros((0, n, n), dtype=complex)
        terms = _real_coordinates(liouvillian(rf[0] + 1j * rf[1], no_decay), pos)
    A, _ = _real_coordinates(L, pos)
    out = _Reduction(d[p], np.searchsorted(p, (p % n) * n + p // n), b[q], w.imag[q],
                     A[:k, k:].copy(), A[k:, :k].copy(),
                     np.stack([X[:k, :k] for X in (A, *terms)]),
                     np.stack([X[k:, k:] for X in (A, *terms)]))
    for x in vars(out).values():
        x.setflags(write=False)
    return out


class _Model:
    """A scheme and its SimParams, hashed and compared by the scheme and
    the fields of params that _scheme_reduction reads: all but the
    detuning grid."""

    __slots__ = ("scheme", "params", "key")

    def __init__(self, scheme: LevelScheme, params: SimParams):
        self.scheme, self.params = scheme, params
        self.key = (scheme,) + tuple(getattr(params, name) for name in _PHI_FREE)

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return self.key == other.key


@lru_cache(maxsize=4)
def _scheme_reduction(model: _Model) -> _Reduction:
    """The phi-free reduction of one scheme and its parameters, built once.

    On the meridian H(phi) = H0 + a_plus X_plus + a_minus X_minus, with the
    real amplitudes a of sop_from_phi and X the RF of the unit SOPs
    RfSop(1, 0) and RfSop(0, 1), all of H between distinct Rydberg
    states.  The Liouvillian is affine in H, so the RF terms are the
    generators -i[X, .] without decay; X only couples Rydberg states, so
    they map P to P and Q to Q and carry no trace row.  About 4 MB per
    entry at N = 484."""
    scheme, params = model.scheme, model.params
    m = scheme.offsets()["r1"]
    collapse = collapse_operators(scheme, params)
    H = [build_hamiltonian(scheme, params, sop, 0.0)
         for sop in (RfSop(1.0, 0.0), RfSop(0.0, 1.0))]
    H0 = H[0].copy()
    H0[m:, m:] *= np.eye(len(H0) - m)
    return _reduce(liouvillian(H0, collapse), m, _probe_row(scheme, params.optics),
                   [X - H0 for X in H])


def eit_spectrum(scheme: LevelScheme, params: SimParams, phi: float) -> EitSpectrum:
    """Probe transparency vs coupling detuning at phase angle phi: the
    dark baseline (probe absorption with the coupling laser off) minus the
    probe absorption, clipped at zero.

    The coupling detuning enters the Liouvillian only as a diagonal shift,
    and the probe readout is one linear function of the steady state, so
    the response is a sum of poles, -Im sum_k c_k / (Delta_c + lam_k),
    from one real reduction and one real eigendecomposition per angle
    (_reduce).  The reduction's phi-free blocks are built once per scheme
    and parameters other than the grid (_scheme_reduction); an angle adds
    its two RF terms to them.  No linear system is solved per detuning and
    no density matrix is formed.  steady_state and probe_absorption stay
    the dense reference that this is tested against.  LinAlgError if the
    reduction or the response is not finite.
    """
    grid = np.asarray(params.coupling_detuning_grid, dtype=float)
    sop = sop_from_phi(phi)
    # finite parameters so large that H or L overflows, or a pole on the
    # grid (a vanishing decay rate), are reported by the finiteness checks
    # (or by the LinAlgError of a solve), not as warnings
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        reduction = _scheme_reduction(_Model(scheme, params))
        lam, c = reduction.poles(sop.amp_plus, sop.amp_minus)
        response = -np.imag((1.0 / (grid[:, None] + lam)) @ c)
    if not np.all(np.isfinite(response)):
        raise np.linalg.LinAlgError("EIT response is not finite")
    return EitSpectrum(grid, np.clip(response, 0.0, None))


def eit_spectrogram(scheme: LevelScheme, params: SimParams, phi_grid) -> EitSpectrogram:
    phi_grid = np.asarray(phi_grid, dtype=float)
    rows = [eit_spectrum(scheme, params, float(phi)).response for phi in phi_grid]
    return EitSpectrogram(
        phi_grid,
        np.asarray(params.coupling_detuning_grid, dtype=float),
        np.vstack(rows),
    )


def third_level_sweep(
    scheme: LevelScheme, params: SimParams, delta3_list, phi_grid
) -> list:
    """One spectrogram per third-level offset; scheme.third must be set."""
    if scheme.third is None:
        raise ValueError("scheme has no third level")
    out = []
    for d3 in delta3_list:
        s = replace(scheme, third=replace(scheme.third, delta3_mhz=float(d3)))
        out.append(eit_spectrogram(s, params, phi_grid))
    return out


def write_spectrogram_csv(path, spg: EitSpectrogram) -> None:
    with open(path, "w") as fh:
        fh.write("phi,delta_c_mhz,response\n")
        for i, phi in enumerate(spg.phi_grid):
            for j, dc in enumerate(spg.detuning_mhz):
                fh.write("%.9g,%.9g,%.9g\n" % (phi, dc, spg.response[i, j]))
