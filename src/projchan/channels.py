"""Channel representation, validation, conversion, tensoring, and the
projective form T(rho) = (I - m M(rho)) / (d - m): M derived from T and the
integer m (projective_form), with m read off a norm-achieving input
(extract_projective_form).

Conventions fixed here:
  * Kraus action T(rho) = sum_k A_k rho A_k+, with sum_k A_k+ A_k = I.
  * Choi matrix (T x id)(Omega), trace 1, ordering (output, reference).
  * Superoperators act on row-major vec(X).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    BadDims,
    DimensionOverflow,
    DimMismatch,
    NonPureEnsemble,
    NotProjectiveClass,
    ParseError,
    ValidationError,
)
from .linalg import dag

TP_TOL = 1e-9
INTEGER_M_TOL = 1e-6
RECON_TOL = 1e-8
STATE_TOL = 1e-10


@dataclass
class DensityMatrix:
    """Hermitian, PSD (after roundoff clamping), unit-trace matrix. It keeps
    the clamped spectrum that its validation computed; `mat` is not to be
    changed in place."""

    dim: int
    mat: np.ndarray

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        if self.mat.shape != (self.dim, self.dim):
            raise BadDims(f"state shape {self.mat.shape} != ({self.dim}, {self.dim})")
        self._eigenvalues = check_states(self.mat[None])[0]

    @classmethod
    def from_vector(cls, psi: np.ndarray) -> "DensityMatrix":
        """psi psi+ / <psi|psi>, validated from the vector by check_pure_states,
        which gives check_states' verdict with no decomposition; the spectrum
        is taken on first use."""
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        psi = psi / np.linalg.norm(psi)
        check_pure_states(psi[None])
        rho = cls.__new__(cls)  # __post_init__'s check_states is what check_pure_states stood in for
        rho.dim, rho.mat, rho._eigenvalues = len(psi), np.outer(psi, psi.conj()), None
        return rho

    def eigenvalues(self) -> np.ndarray:
        """The clamped eigenvalues of the Hermitian part, ascending, as
        check_states returns them; shared, not to be changed in place."""
        if self._eigenvalues is None:
            self._eigenvalues = check_states(self.mat[None])[0]
        return self._eigenvalues

    def purity(self) -> float:
        return float(np.trace(self.mat @ self.mat).real)

    def is_pure(self, tol: float = 1e-10) -> bool:
        return abs(self.purity() - 1.0) <= tol


def check_states(stack: np.ndarray) -> np.ndarray:
    """The DensityMatrix checks on every member of a (c, d, d) stack: finite,
    Hermitian within STATE_TOL, PSD up to clamp_state_eigenvalues, trace 1
    within STATE_TOL. Returns the clamped eigenvalues, shape (c, d), ascending."""
    stack = np.asarray(stack, dtype=complex)
    if not np.isfinite(stack).all():
        raise ValidationError("state has a non-finite entry")
    # stack+ fills one stack-sized buffer twice, by a transposed copy and an
    # in-place conjugate: conjugating the transposed view straight into the
    # buffer takes a 128 KiB ufunc buffer, and np.abs of the difference a
    # half-stack temporary, so the squared moduli are summed in its float view.
    buf = np.empty(stack.shape, dtype=complex)
    flipped = buf.swapaxes(-1, -2)
    flipped[...] = stack
    sq = np.subtract(stack, np.conjugate(buf, out=buf), out=buf).view(float)
    np.square(sq, out=sq)
    if math.sqrt(np.add(sq[..., ::2], sq[..., 1::2], out=sq[..., ::2]).max(initial=0.0)) > STATE_TOL:
        raise ValidationError(f"state is not Hermitian within {STATE_TOL:.0e}")
    flipped[...] = stack
    herm = np.add(stack, np.conjugate(buf, out=buf), out=buf)
    herm /= 2
    w = linalg.clamp_state_eigenvalues(np.linalg.eigvalsh(herm))
    tr = np.trace(stack, axis1=-2, axis2=-1).real
    bad = np.abs(tr - 1.0) > STATE_TOL
    if bad.any():
        raise ValidationError(f"trace {tr[bad][0]!r} != 1 within {STATE_TOL:.0e}")
    return w


def check_pure_states(Psi: np.ndarray) -> None:
    """check_states' verdict on the projectors psi_i psi_i+ of the rows of a
    (c, d) Psi, taken from the vectors: ValidationError for a non-finite entry
    or for |<psi_i|psi_i> - 1| > STATE_TOL. The outer product of a row is
    Hermitian up to rounding (an ulp of its entries) and its eigenvalues are
    (<psi|psi>, 0, ..., 0), so where the trace check passes the Hermiticity
    and PSD checks pass too, and no eigendecomposition is needed."""
    Psi = np.asarray(Psi, dtype=complex)
    if not np.isfinite(Psi).all():
        raise ValidationError("state has a non-finite entry")
    tr = np.sum(Psi.real ** 2 + Psi.imag ** 2, axis=-1)
    bad = np.abs(tr - 1.0) > STATE_TOL
    if bad.any():
        raise ValidationError(f"trace {tr[bad][0]!r} != 1 within {STATE_TOL:.0e}")


@dataclass
class QuantumChannel:
    """Kraus-operator channel with a cached trace-1 Choi matrix; `kraus` is one read-only
    (k, d_out, d_in) array (a complex contiguous array passed in is kept, not copied)."""

    dim_in: int
    dim_out: int
    kraus: np.ndarray
    name: str = ""

    def __post_init__(self):
        try:
            K = np.ascontiguousarray(self.kraus, dtype=complex).view()
        except ValueError as exc:  # matrices of different shapes
            raise BadDims(f"Kraus operators of unequal shapes: {exc}") from exc
        if K.ndim != 3 or K.shape[1:] != (self.dim_out, self.dim_in):
            raise BadDims(f"Kraus shape {K.shape[1:]} != ({self.dim_out}, {self.dim_in})")
        K.flags.writeable = False
        self.kraus = K
        # [A_1; ...; A_k], the left operand of _kraus_sum, a view of `kraus`
        self._kcol = K.reshape(-1, self.dim_in)

    @cached_property
    def _kcol_dag(self) -> np.ndarray:
        """[A_1+; ...; A_k+], built on the first adjoint-side product."""
        return self.kraus.conj().transpose(0, 2, 1).reshape(-1, self.dim_out)

    @cached_property
    def choi(self) -> np.ndarray:
        # (T x id)(Omega) = sum_k vec(A_k) vec(A_k)+ / d_in with row-major vec,
        # index ordering (output, reference).
        K = self.kraus.reshape(len(self.kraus), -1)
        return (K.T @ K.conj()) / self.dim_in

    @property
    def superop(self) -> np.ndarray:
        """T on row-major vec, a (d_out^2, d_in^2) matrix with entry
        [(a, b), (i, j)] = sum_k A_k[a, i] conj(A_k[b, j]): the Choi matrix
        times d_in, reshuffled. Built on each access: a cached copy would keep
        d_out^2 d_in^2 more entries on every channel."""
        d_out, d_in = self.dim_out, self.dim_in
        S = np.empty((d_out, d_out, d_in, d_in), dtype=complex)
        np.multiply(self.choi.reshape(d_out, d_in, d_out, d_in).transpose(0, 2, 1, 3), d_in, out=S)
        return S.reshape(d_out * d_out, d_in * d_in)

    def apply_raw(self, rho: np.ndarray) -> np.ndarray:
        """Schroedinger-picture action, sum_k A_k rho A_k+, on a matrix or a stack."""
        return _kraus_sum(self._kcol, rho, self._kcol_dag)

    def apply_adjoint_raw(self, X: np.ndarray) -> np.ndarray:
        """Heisenberg-picture adjoint, sum_k A_k+ X A_k, on a matrix or a stack."""
        return _kraus_sum(self._kcol_dag, X, self._kcol)

    def pure_outputs(self, Psi: np.ndarray, adjoint: bool = False, rank: int = 1):
        """The one pure-input kernel. For the rows psi_i of a (c, d_in) Psi:
        the Kraus images Z_i = [A_1 psi_i, ..., A_k psi_i] as a (c, k, d_out)
        stack, and the outputs T(psi_i psi_i+) = Z_i^T conj(Z_i). With
        `adjoint`, the same for T+ (Kraus operators A_k+) on a (c, d_out) Psi.
        With `rank` r, each run of r rows is one input sum_i psi_i psi_i+, and
        its images stack to one (r k, d) member."""
        Z = self.kraus_images(Psi, adjoint, rank)
        return Z, Z.transpose(0, 2, 1) @ Z.conj()

    def kraus_images(self, Psi: np.ndarray, adjoint: bool = False, rank: int = 1) -> np.ndarray:
        """The Kraus images of `pure_outputs` alone, without the outputs."""
        kcol, d = (self._kcol_dag, self.dim_in) if adjoint else (self._kcol, self.dim_out)
        return (Psi @ kcol.T).reshape(len(Psi) // rank, rank * len(self.kraus), d)

    def kraus_adjoint(self, Y: np.ndarray) -> np.ndarray:
        """sum_k A_k+ y_ik for a (c, k, d_out) stack Y: the adjoint of the map
        psi -> [A_1 psi, ..., A_k psi], one (c, d_in) row per stack member."""
        return Y.reshape(len(Y), -1) @ self._kcol.conj()


def _kraus_sum(left: np.ndarray, X: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_k L_k X R_k for stacks left = [L_1; ...; L_k] of shape (k*p, q) and
    right = [R_1; ...; R_k] of shape (k*q, r): the blocks L_k X, laid side by
    side as a (p, k*q) matrix, times the stacked R_k. X is a (q, q) matrix or
    a (c, q, q) stack, taken a block of members at a time so that a product
    holds at most ADJOINT_BLOCK_ENTRIES Kraus images L_k X."""
    q, r = left.shape[1], right.shape[1]
    k = right.shape[0] // q
    p = left.shape[0] // k
    stack = X.reshape(-1, q, q)
    out = np.empty((len(stack), p, r), dtype=complex)
    block = max(1, linalg.ADJOINT_BLOCK_ENTRIES // left.size)
    for i in range(0, len(stack), block):
        LX = (left @ stack[i:i + block]).reshape(-1, k, p, q)
        np.matmul(LX.swapaxes(1, 2).reshape(-1, p, k * q), right, out=out[i:i + block])
    return out.reshape(X.shape[:-2] + out.shape[1:])


@dataclass
class LinearMap:
    """A linear map on d x d matrices stored as a superoperator, with the
    integer m of the projective form when applicable."""

    dim: int
    superop: np.ndarray
    m: int | None = None


@dataclass
class ProjectiveForm:
    """The map M of the projective class, carrying its integer m, with the
    witness input rho0."""

    M: LinearMap
    rho0: DensityMatrix

    @property
    def m(self) -> int:
        return self.M.m

    @property
    def d(self) -> int:
        return self.M.dim

    @property
    def projector(self) -> np.ndarray:
        """m M(rho0), a rank-m projection for a valid witness."""
        from .additivity import apply_product_map  # additivity imports this module
        return self.m * apply_product_map([self.M], self.rho0.mat)


@dataclass
class Isometry:
    dim_in: int
    dim_out: int
    env_dim: int
    mat: np.ndarray

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        expected = (self.dim_out * self.env_dim, self.dim_in)
        if self.mat.shape != expected:
            raise BadDims(f"isometry shape {self.mat.shape} != {expected}")
        if linalg.herm_norm_inf(dag(self.mat) @ self.mat - np.eye(self.dim_in)) > 1e-10:
            raise ValidationError("U+U != I within 1e-10")


@dataclass
class ValidationReport:
    trace_preserving: bool
    completely_positive: bool
    tp_residual: float
    min_choi_eigenvalue: float

    @property
    def valid(self) -> bool:
        return self.trace_preserving and self.completely_positive

    def to_dict(self) -> dict:
        return {
            "flags": {
                "trace_preserving": self.trace_preserving,
                "completely_positive": self.completely_positive,
            },
            "residuals": {
                "trace_preserving": self.tp_residual,
                "min_choi_eigenvalue": self.min_choi_eigenvalue,
            },
        }


def validate(T: QuantumChannel) -> ValidationReport:
    """Trace preservation and complete positivity, with residuals."""
    # both read the Choi matrix J alone, with no temporary of its size: d_in tr_out J =
    # conj(sum_k A_k+ A_k), and eigvalsh reads one triangle of J, Hermitian by construction
    J, d_in = T.choi.reshape(T.dim_out, T.dim_in, T.dim_out, T.dim_in), T.dim_in
    tp_res = linalg.herm_norm_inf(np.einsum("aiaj->ij", J) * d_in - np.eye(d_in))
    w = np.linalg.eigvalsh(T.choi)
    return ValidationReport(
        trace_preserving=bool(tp_res <= TP_TOL),
        completely_positive=bool(w.min() >= -linalg.NEG_EIG_TOL),
        tp_residual=float(tp_res),
        min_choi_eigenvalue=float(w.min()),
    )


def apply(T: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    if rho.dim != T.dim_in:
        raise DimMismatch(f"state dim {rho.dim} != channel input dim {T.dim_in}")
    return DensityMatrix(T.dim_out, T.apply_raw(rho.mat))


def require_stack_fits(count: int, d_out: int, d_in: int) -> None:
    """Refuse, before any operator is built, a Kraus stack of more than
    DIM_CAP**2 entries; a channel keeps the stack (and an adjoint copy once used)."""
    if count * d_out * d_in > linalg.DIM_CAP ** 2:
        raise DimensionOverflow(
            f"{count} Kraus operators of shape {d_out}x{d_in} exceed the cap of {linalg.DIM_CAP ** 2} entries"
        )


def tensor_channels(channels) -> QuantumChannel:
    """Tensor product channel; Kraus set is all products of constituents."""
    channels = list(channels)
    if not channels:
        raise BadDims("need at least one channel")
    din = int(np.prod([T.dim_in for T in channels]))
    dout = int(np.prod([T.dim_out for T in channels]))
    if max(din, dout) > linalg.DIM_CAP:
        raise DimensionOverflow(f"product dimension {max(din, dout)} exceeds cap {linalg.DIM_CAP}")
    require_stack_fits(math.prod(len(T.kraus) for T in channels), dout, din)
    kraus = np.ones((1, 1, 1), dtype=complex)
    for T in channels:  # every A (x) B, ordered by A first, then by B
        kraus = np.kron(kraus[:, None], T.kraus[None])
        kraus = kraus.reshape(-1, *kraus.shape[2:])
    name = " (x) ".join(T.name or "?" for T in channels)
    return QuantumChannel(din, dout, kraus, name=name)


def projective_form(T: QuantumChannel, m: int, rho0: DensityMatrix) -> ProjectiveForm:
    """The form of T with integer m and witness rho0. M = (tr(.) I - (d - m) T) / m
    is fixed by T and m, so T equals (I tr - m M) / (d - m) up to rounding and
    only the witness is checked: NotProjectiveClass unless m M(rho0) is a
    rank-m projection within RECON_TOL."""
    d = T.dim_in
    S = T.superop  # made M's in place: (TR - (d - m) S_T) / m, TR that of X -> tr X * I
    S *= -(d - m)
    S += linalg.trace_superop(d)
    S /= m
    form = ProjectiveForm(LinearMap(d, S, m=m), rho0)
    idem, tr_err = witness_defects(form)
    if idem > RECON_TOL or tr_err > RECON_TOL:
        raise NotProjectiveClass(
            f"m*M(rho0) is not a rank-{m} projection (idempotency {idem:.2e}, trace error {tr_err:.2e})"
        )
    return form


def extract_projective_form(T: QuantumChannel, argmax_state: DensityMatrix, norm_value: float) -> ProjectiveForm:
    """Recover (M, m, rho0) from a norm-achieving input with projection output.

    The maximal output norm of a class member is 1/m0 for integer m0, and
    m = d - m0; the form is projective_form(T, m, argmax_state).
    """
    d = T.dim_in
    inv = 1.0 / norm_value
    m0 = int(round(inv))
    if abs(inv - m0) > INTEGER_M_TOL or m0 < 1:
        raise NotProjectiveClass(f"1/norm = {inv!r} is not near an integer")
    if m0 >= d:
        raise NotProjectiveClass(f"m0 = {m0} leaves no projective part (m = d - m0 = {d - m0})")
    return projective_form(T, d - m0, argmax_state)


def witness_defects(form: ProjectiveForm) -> tuple[float, float]:
    """How far P = m M(rho0) is from a rank-m projection: (||P^2 - P||_inf,
    |tr P - m|). Callers hold each defect to their own tolerances."""
    P = form.projector
    idem = linalg.herm_norm_inf(P @ P - P)
    return idem, abs(np.trace(P).real - form.m)


def stinespring(T: QuantumChannel) -> Isometry:
    """Dilation isometry U with tr_env(U rho U+) = T(rho); env indexes Kraus operators."""
    kraus = T.kraus[np.linalg.norm(T.kraus, axis=(1, 2)) >= 1e-12]
    # row (a*K + k) <- A_k[a, :] for the K operators kept
    return Isometry(T.dim_in, T.dim_out, len(kraus), kraus.transpose(1, 0, 2).reshape(-1, T.dim_in))


def is_normalized_projection(rho: DensityMatrix, tol: float = 1e-8):
    """True iff all nonzero eigenvalues equal 1/rank within tol; returns (flag, rank)."""
    w = rho.eigenvalues()
    nz = w[w > tol]
    if len(nz) == 0:
        return False, 0
    rank = len(nz)
    flag = bool(np.abs(nz - 1.0 / rank).max() <= tol)
    return flag, rank


# ---------------------------------------------------------------------------
# JSON wire format: {"dim": int, "kraus": [{"re": [[...]], "im": [[...]]}]}
# ---------------------------------------------------------------------------


def read_json(path: str) -> dict:
    """The JSON object stored in a file; ParseError if it cannot be read or is not one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return obj


def int_field(obj: dict, key: str, where: str) -> int:
    """obj[key] as an int; ParseError if it is missing or is not a JSON
    integer. A float with no fractional part counts as one; a bool, a string
    or any other float does not."""
    if key not in obj:
        raise ParseError(f"{where}: missing '{key}' field")
    value = obj[key]
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ParseError(f"{where}: '{key}' must be an integer, got {value!r}")
    return int(value)


def matrix_to_json(A: np.ndarray) -> dict:
    A = np.asarray(A, dtype=complex)
    return {"re": A.real.tolist(), "im": A.imag.tolist()}


def matrix_from_json(obj, field_name: str = "matrix", ndim: int = 2) -> np.ndarray:
    """The complex array re + 1j im of an {"re": ..., "im": ...} object: a
    matrix, or with ndim=1 a vector; ParseError if it is not one."""
    if not isinstance(obj, dict):
        raise ParseError(f"{field_name}: expected an object with 're'/'im' fields")
    for key in ("re", "im"):
        if key not in obj:
            raise ParseError(f"{field_name}: missing '{key}' field")
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{field_name}: ragged or non-numeric entries ({exc})") from exc
    if re.shape != im.shape or re.ndim != ndim:
        raise ParseError(f"{field_name}: 're' shape {re.shape} and 'im' shape {im.shape} must be equal {ndim}-d")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ParseError(f"{field_name}: non-finite entry")
    return re + 1j * im


def channel_to_json(T: QuantumChannel) -> dict:
    return {"dim": T.dim_in, "kraus": [matrix_to_json(A) for A in T.kraus]}


def channel_from_json(obj) -> QuantumChannel:
    if not isinstance(obj, dict):
        raise ParseError("channel: expected a JSON object")
    d = int_field(obj, "dim", "channel")
    if "kraus" not in obj or not isinstance(obj["kraus"], list) or not obj["kraus"]:
        raise ParseError("channel: missing or empty 'kraus' field")
    ops = [matrix_from_json(k, field_name=f"kraus[{i}]") for i, k in enumerate(obj["kraus"])]
    for i, A in enumerate(ops):
        if A.shape != (d, d):
            raise ValidationError(f"kraus[{i}] has shape {A.shape}, expected ({d}, {d})")
    T = QuantumChannel(d, d, ops, name="file")
    report = validate(T)
    if not report.valid:
        raise ValidationError(
            f"channel fails validation (tp residual {report.tp_residual:.3e}, "
            f"min choi eig {report.min_choi_eigenvalue:.3e})"
        )
    return T


def ensure_pure_members(states, tol: float = 1e-10):
    for i, s in enumerate(states):
        if not s.is_pure(tol):
            raise NonPureEnsemble(f"ensemble member {i} has purity {s.purity()!r}")
