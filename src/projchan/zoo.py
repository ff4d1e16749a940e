"""The channel families under study, each declared once.

Every family is a spec dataclass whose `_build` returns a QuantumChannel T
plus, where the family is in the projective class, its integer m and witness
input rho0 (else None, None). `build` validates T and derives the map M of
T = (I tr - m M) / (d - m) from T and m by channels.projective_form, which
checks that m M(rho0) is a rank-m projection. Where the family is
weakly covariant under a known group, its `_group` returns the twirl spec of
the input representation pi and the flag `conjugate` that `auto_group` hands
to the capacity formula. The flag is set where the output representation is
Pi(g) = conj(pi(g)): a complex group under an M that contains a transpose.
Transposition is always taken in the computational basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import channels as ch
from . import linalg
from .capacity import BlockUnitaryHaar, FiniteGroup, SU2Euler
from .errors import NotProjectiveClass, ParseError, SpecInvalid
from .linalg import dag


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def weyl_unitaries(d: int) -> np.ndarray:
    """Shift operators W_i |j> = |j+i mod d>, i = 1..d (W_d = identity), as one (d, d, d) stack."""
    i, j = np.arange(1, d + 1)[:, None], np.arange(d)
    W = np.zeros((d, d, d), dtype=complex)
    W[i - 1, (j + i) % d, j] = 1.0
    return W


def phase_unitaries(d: int) -> np.ndarray:
    """U_j = sum_l exp(2 pi i l j / d) |l><l|, j = 1..d, as one (d, d, d) stack."""
    l, j = np.arange(d), np.arange(1, d + 1)[:, None]
    U = np.zeros((d, d, d), dtype=complex)
    # the angle is a real array: as a complex array, 2j pi l j / d rounds differently
    U[:, l, l] = np.exp(1j * (2 * np.pi * l * j / d))
    return U


def heisenberg_weyl_unitaries(d: int) -> np.ndarray:
    """The d^2 products W^a Z^b of shift and clock operators, ordered by a, then b, as one stack."""
    Wa = np.roll(weyl_unitaries(d), 1, axis=0)  # W^0 = W_d, W^1, ..., W^(d-1)
    # Z^b by repeated products: each power carries the rounding of the one before
    Z = phase_unitaries(d)[0]
    Zb = np.array(list(itertools.accumulate([Z] * (d - 1), np.matmul, initial=np.eye(d, dtype=complex))))
    return (Wa[:, None] @ Zb[None]).reshape(-1, d, d)


def su2_generators(d: int) -> np.ndarray:
    """Spin-j matrices (Jx, Jy, Jz) for j = (d-1)/2, built from ladder operators,
    as one (3, d, d) stack.

    Satisfy [J_i, J_j] = i eps_ijk J_k and sum_k J_k^2 = (d-1)(d+1)/4 * I.
    """
    if d < 2:
        raise SpecInvalid("spin construction needs d >= 2")
    j = (d - 1) / 2
    m = np.arange(j, -j - 1, -1)
    Jp = np.zeros((d, d))
    k = np.arange(d - 1)
    Jp[k, k + 1] = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    Jm = Jp.T
    return np.stack([(Jp + Jm) / 2 + 0j, (Jp - Jm) / 2j, np.diag(m).astype(complex)])


def _wh_kraus(d: int) -> np.ndarray:
    """(|i><j| - |j><i|) / sqrt(d - 1) for i < j, in row-major order, as one stack."""
    i, j = np.triu_indices(d, 1)
    r = np.arange(len(i))
    c = 1.0 / np.sqrt(d - 1)
    K = np.zeros((len(i), d, d), dtype=complex)
    K[r, i, j] = c
    K[r, j, i] = -c
    return K


def _flat_state(d: int) -> ch.DensityMatrix:
    return ch.DensityMatrix(d, np.full((d, d), 1.0 / d, dtype=complex))


def block_projectors(d: int, sizes) -> np.ndarray:
    """Diagonal projectors of the given block sizes (nonnegative, summing to d), as one stack."""
    if sum(sizes) != d or min(sizes, default=0) < 0:
        raise SpecInvalid(f"block sizes {sizes} must be nonnegative and sum to d={d}")
    ch.require_stack_fits(len(sizes), d, d)
    k = np.arange(d)
    P = np.zeros((len(sizes), d, d), dtype=complex)
    P[np.repeat(np.arange(len(sizes)), sizes), k, k] = 1.0
    return P


def casimir_reducible_generators() -> np.ndarray:
    """The printed 4-dimensional reducible generators (computational basis), as one stack."""
    J1 = np.zeros((4, 4), dtype=complex)
    J1[1, 2] = 1; J1[3, 0] = 1; J1[0, 3] = -1; J1[2, 1] = -1
    J2 = np.zeros((4, 4), dtype=complex)
    J2[2, 0] = 1; J2[3, 1] = 1; J2[0, 2] = -1; J2[1, 3] = -1
    J3 = np.zeros((4, 4), dtype=complex)
    J3[0, 1] = 1; J3[3, 2] = 1; J3[1, 0] = -1; J3[2, 3] = -1
    return (1j / 2) * np.stack([J1, J2, J3])


def casimir_reducible_rho0() -> ch.DensityMatrix:
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1; rho[0, 3] = 1j; rho[3, 0] = -1j; rho[3, 3] = 1
    return ch.DensityMatrix(4, rho / 2)


def casimir_reducible_complementary_generators() -> np.ndarray:
    """SU(2) generators acting on the multiplicity factor of the reducible
    representation, as one (3, 4, 4) stack.

    The printed generators decompose as two spin-1/2 copies; outputs of the
    example channel commute with them, so the capacity twirl has to rotate the
    multiplicity qubit instead. Built by pairing the J3 eigenspaces through
    the ladder operator (for these generators [J1, J2] = -i J3, so J1 + i J2
    lowers).
    """
    J1, J2, J3 = casimir_reducible_generators()
    w, V = np.linalg.eigh(J3)
    plus = V[:, np.isclose(w, 0.5)]
    top = np.argmax(np.abs(plus), axis=0)
    a = plus * np.exp(-1j * np.angle(plus[top, np.arange(plus.shape[1])]))  # largest entry of each made real
    b = (J1 + 1j * J2) @ a
    R = np.stack([a, b / np.linalg.norm(b, axis=0)], axis=2).reshape(4, 4)  # columns (mu, s), s minor
    jx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
    jy = np.array([[0, -1j], [1j, 0]], dtype=complex) / 2
    jz = np.diag([0.5, -0.5]).astype(complex)
    return R @ np.kron(np.stack([jx, jy, jz]), np.eye(2)) @ dag(R)


# ---------------------------------------------------------------------------
# Channel families
# ---------------------------------------------------------------------------


def _zero_state(d: int) -> ch.DensityMatrix:
    return ch.DensityMatrix.from_vector(np.eye(d)[:, 0])


def _require_d2(d: int, family: str) -> None:
    if d < 2:
        raise SpecInvalid(f"{family} needs d >= 2")


@dataclass(frozen=True)
class WernerHolevo:
    d: int

    def _build(self):
        d = self.d
        _require_d2(d, "Werner-Holevo")
        ch.require_stack_fits(d * (d - 1) // 2, d, d)
        return ch.QuantumChannel(d, d, _wh_kraus(d), name=f"wh:d={d}"), 1, _zero_state(d)

    def _group(self):
        return FiniteGroup(heisenberg_weyl_unitaries(self.d)), True


@dataclass(frozen=True)
class Stretching:
    d: int
    lam: float
    omega: np.ndarray | None = None  # pure state matrix; defaults to |0><0|

    def _build(self):
        d, lam = self.d, float(self.lam)
        _require_d2(d, "stretching")
        if not 0.0 <= lam <= 1.0:
            raise SpecInvalid(f"lambda {lam} outside [0, 1]")
        ch.require_stack_fits(d * (d - 1) // 2 + (d - 1) * d, d, d)
        omega = self.omega if self.omega is not None else linalg.projector_from_vector(np.eye(d)[:, 0])
        omega = np.asarray(omega, dtype=complex)
        if linalg.herm_norm_inf(omega @ omega - omega) > 1e-10 or abs(np.trace(omega).real - 1) > 1e-10:
            raise SpecInvalid("stretching omega must be a pure state")
        w, V = np.linalg.eigh(omega)
        comp = V[:, w < 0.5].T  # the d - 1 vectors v orthogonal to omega
        # sqrt((1 - lam) / (d - 1)) v e_b^T, one per (v, b)
        replacement = np.sqrt((1 - lam) / (d - 1)) * (comp[:, None, :, None] * np.eye(d)[None, :, None, :])
        kraus = np.concatenate([np.sqrt(lam) * _wh_kraus(d), replacement.reshape(-1, d, d)])
        T = ch.QuantumChannel(d, d, kraus, name=f"stretch:d={d},lambda={lam}")
        return T, 1, ch.DensityMatrix(d, omega.T.copy())

    def _group(self):
        # only a single optimal input exists; any nontrivial group fails the gate
        return FiniteGroup(weyl_unitaries(self.d)), False


@dataclass(frozen=True)
class WeylShift:
    d: int

    def _build(self):
        d = self.d
        _require_d2(d, "Weyl shift")
        ch.require_stack_fits(d * d * (d - 1) // 2, d, d)
        kraus = weyl_unitaries(d)[:, None] @ _wh_kraus(d)[None]
        kraus /= np.sqrt(d)
        return ch.QuantumChannel(d, d, kraus.reshape(-1, d, d), name=f"weyl:d={d}"), 1, _flat_state(d)

    def _group(self):
        return FiniteGroup(phase_unitaries(self.d)), True


@dataclass(frozen=True)
class Pinching:
    d: int
    projections: tuple = ()

    def _build(self):
        d = self.d
        _require_d2(d, "pinching")
        if len(self.projections) == 0:
            raise SpecInvalid("pinching needs at least one projection")
        projs = np.asarray(self.projections, dtype=complex)
        n = len(projs)
        ch.require_stack_fits(n * d * (d - 1) // 2, d, d)
        if linalg.herm_norm_inf(projs.sum(axis=0) - np.eye(d)) > 1e-10:
            raise SpecInvalid("projections do not resolve the identity")
        defect = projs[:, None] @ projs[None]  # P_i P_j - delta_ij P_i
        defect[np.arange(n), np.arange(n)] -= projs
        bad = np.argwhere(np.abs(defect).max(axis=(2, 3)) > 1e-10)
        if len(bad):
            raise SpecInvalid(f"projections {bad[0, 0]},{bad[0, 1]} are not orthogonal idempotents")
        kraus = (projs[:, None] @ _wh_kraus(d)[None]).reshape(-1, d, d)
        kraus = kraus[np.linalg.norm(kraus, axis=(1, 2)) > 1e-14]
        T = ch.QuantumChannel(d, d, kraus, name=f"pinch:d={d}")
        # witness: a vector inside the support of the first projection
        j_star = int(np.argmax(np.diag(projs[0]).real))
        v = projs[0] @ np.eye(d)[:, j_star]
        v = v / np.linalg.norm(v)
        return T, 1, ch.DensityMatrix(d, linalg.projector_from_vector(v).T.copy())

    def _group(self):
        return FiniteGroup(weyl_unitaries(self.d)), False


@dataclass(frozen=True)
class CasimirIrreducible:
    d: int

    def _build(self):
        d = self.d
        ch.require_stack_fits(3, d, d)
        lam_pi = (d - 1) * (d + 1) / 4
        kraus = su2_generators(d) / np.sqrt(lam_pi)
        return ch.QuantumChannel(d, d, kraus, name=f"casimir:d={d}"), None, None

    def _group(self):
        return SU2Euler(tuple(su2_generators(self.d))), False


@dataclass(frozen=True)
class CasimirReducibleExample:
    def _build(self):
        ch.require_stack_fits(4, 4, 4)
        kraus = np.concatenate([casimir_reducible_generators(), np.eye(4, dtype=complex)[None] / 2])
        return ch.QuantumChannel(4, 4, kraus, name="casimir-reducible"), 2, casimir_reducible_rho0()

    def _group(self):
        return SU2Euler(tuple(casimir_reducible_complementary_generators())), False


@dataclass(frozen=True)
class ShiftsPinching:
    d: int
    K: tuple = (1,)  # subset of {1..d}

    def _build(self):
        d = self.d
        K = tuple(sorted(set(int(k) for k in self.K)))
        if not K or any(k < 1 or k > d for k in K):
            raise SpecInvalid(f"K={K} must be a nonempty subset of 1..{d}")
        if len(K) >= d:
            raise SpecInvalid("K must be a proper subset (d - |K| >= 1)")
        ch.require_stack_fits(d * (d - len(K)), d, d)
        rest = np.setdiff1d(np.arange(1, d + 1), K)
        i, r = np.arange(d)[:, None], np.arange(len(rest))
        kraus = np.zeros((d, len(rest), d, d), dtype=complex)  # |i - k><i| for i, then k not in K
        kraus[i, r, (i - rest) % d, i] = 1.0 / np.sqrt(d - len(K))
        T = ch.QuantumChannel(d, d, kraus.reshape(-1, d, d), name=f"shiftpinch:d={d},K={','.join(map(str, K))}")
        return T, len(K), _zero_state(d)


@dataclass(frozen=True)
class CoarseGraining:
    n: int
    D: int

    def _build(self):
        n, D = self.n, self.D
        if n < 2 or D < 1:
            raise SpecInvalid("coarse graining needs n >= 2 and D >= 1")
        d = n * D
        ch.require_stack_fits(n * (n - 1) // 2 * D * D, d, d)
        E = np.zeros((D, D, D, D), dtype=complex)  # E[e, f] = |f><e| / sqrt(D)
        e, f = np.arange(D)[:, None], np.arange(D)
        E[e, f, f, e] = 1.0 / np.sqrt(D)
        kraus = np.kron(_wh_kraus(n)[:, None], E.reshape(1, D * D, D, D))
        return ch.QuantumChannel(d, d, kraus.reshape(-1, d, d), name=f"coarse:n={n},D={D}"), D, _flat_state(d)

    def _group(self):
        return BlockUnitaryHaar(self.n, self.D), True


@dataclass(frozen=True)
class Diagonal:
    d: int
    diagonals: tuple = ()  # sequence of length-d complex vectors

    def _build(self):
        d = self.d
        try:
            col = np.asarray(self.diagonals, dtype=complex)
        except ValueError as exc:  # ragged
            raise SpecInvalid(f"diagonal channel needs length-d diagonals ({exc})") from exc
        if col.ndim != 2 or len(col) == 0 or col.shape[1] != d:
            raise SpecInvalid("diagonal channel needs length-d diagonals")
        if np.abs((np.abs(col) ** 2).sum(axis=0) - 1.0).max() > 1e-10:
            raise SpecInvalid("diagonal amplitudes do not preserve trace (sum_k |a_k(i)|^2 != 1)")
        ch.require_stack_fits(len(col), d, d)
        kraus = np.zeros((len(col), d, d), dtype=complex)
        kraus[:, np.arange(d), np.arange(d)] = col
        return ch.QuantumChannel(d, d, kraus, name=f"diag:d={d}"), None, None

    def _group(self):
        return FiniteGroup(weyl_unitaries(self.d)), False


def build(spec):
    """Construct (QuantumChannel, ProjectiveForm or None) for a channel spec."""
    make = getattr(spec, "_build", None)
    if make is None:
        raise SpecInvalid(f"unknown channel spec {spec!r}")
    return _finish(*make())


def _finish(T: ch.QuantumChannel, m: int | None, rho0: ch.DensityMatrix | None):
    report = ch.validate(T)
    if not report.valid:
        raise SpecInvalid(
            f"built channel fails validation: tp residual {report.tp_residual:.3e}, "
            f"min choi eig {report.min_choi_eigenvalue:.3e}"
        )
    if m is None:
        return T, None
    try:
        return T, ch.projective_form(T, m, rho0)
    except NotProjectiveClass as exc:
        raise SpecInvalid("witness m*M(rho0) is not a rank-m projection") from exc


def auto_group(spec, form: ch.ProjectiveForm | None):
    """(rho0, group, conjugate) for a built zoo spec: the witness input,
    form.rho0 or |0><0| for a family without a form, the twirl spec of pi and
    whether Pi(g) = conj(pi(g)), under which the family is weakly covariant."""
    group = getattr(spec, "_group", None)
    if group is None:
        raise SpecInvalid(f"no automatic group for {spec!r}")
    rho0 = form.rho0 if form is not None else _zero_state(spec.d)
    return (rho0, *group())


def dephasing(d: int) -> Diagonal:
    """Complete dephasing in the computational basis."""
    if d < 1:
        raise SpecInvalid(f"dephasing needs d >= 1, got {d}")
    ch.require_stack_fits(d, d, d)
    return Diagonal(d, tuple(tuple(row) for row in np.eye(d)))


# ---------------------------------------------------------------------------
# CLI spec-string grammar
# ---------------------------------------------------------------------------


# The parameters each spec head takes.
_SPEC_KEYS = {"wh": {"d"}, "stretch": {"d", "lambda"}, "weyl": {"d"}, "pinch": {"d", "blocks"}, "casimir": {"d"},
              "casimir-reducible": set(), "shiftpinch": {"d", "K"}, "coarse": {"n", "D"}, "diag": {"d", "file"}}


def parse_spec(text: str):
    """Parse a channel spec string, e.g. 'wh:d=3' or 'shiftpinch:d=4,K=1,2'.
    A repeated key or one the family does not take is a ParseError."""
    text = text.strip()
    head, _, rest = text.partition(":")
    head = head.lower()
    if head not in _SPEC_KEYS:
        raise ParseError(f"unknown channel spec {text!r}")
    params: dict[str, list[str]] = {}
    if rest:
        key = None
        for token in rest.split(","):
            if "=" in token:
                key, _, val = token.partition("=")
                key = key.strip()
                if key in params:
                    raise ParseError(f"parameter {key!r} repeated in {text!r}")
                if key not in _SPEC_KEYS[head]:
                    raise ParseError(f"{head} takes no parameter {key!r} (in {text!r})")
                params[key] = [val.strip()]
            elif key is not None:
                params[key].append(token.strip())
            else:
                raise ParseError(f"cannot parse spec parameter {token!r} in {text!r}")

    def number(name, value, cast=int):
        try:
            return cast(value)
        except ValueError as exc:
            raise ParseError(f"parameter {name!r} in {text!r}: {exc}") from exc

    def one(name, cast=int):
        if name not in params:
            raise ParseError(f"spec {text!r} is missing parameter {name!r}")
        if len(params[name]) != 1:
            raise ParseError(f"parameter {name!r} expects a single value")
        return number(name, params[name][0], cast)

    if head == "wh":
        return WernerHolevo(one("d"))
    if head == "stretch":
        return Stretching(one("d"), one("lambda", float))
    if head == "weyl":
        return WeylShift(one("d"))
    if head == "pinch":
        d = one("d")
        sizes = [number("blocks", s) for s in one("blocks", str).split("+")]
        return Pinching(d, block_projectors(d, sizes))
    if head == "casimir":
        return CasimirIrreducible(one("d"))
    if head == "casimir-reducible":
        return CasimirReducibleExample()
    if head == "shiftpinch":
        return ShiftsPinching(one("d"), tuple(number("K", k) for k in params.get("K", [])))
    if head == "coarse":
        return CoarseGraining(one("n"), one("D"))
    if "file" in params:  # head == "diag"
        if "d" in params:
            raise ParseError(f"diag takes 'file' or 'd', not both (in {text!r})")
        return _diagonal_from_file(one("file", str))
    return dephasing(one("d"))


def _diagonal_from_file(path: str) -> Diagonal:
    obj = ch.read_json(path)
    d = ch.int_field(obj, "dim", path)
    if not isinstance(obj.get("diagonals"), list):
        raise ParseError(f"{path}: diagonal channel file needs a 'diagonals' list")
    return Diagonal(d, tuple(tuple(ch.matrix_from_json(a, f"{path}: diagonals[{i}]", ndim=1))
                             for i, a in enumerate(obj["diagonals"])))
