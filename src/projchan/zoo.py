"""The channel families under study, each declared once.

Every family is a spec dataclass whose `_build` returns a QuantumChannel plus,
where the family admits one, the ProjectiveForm witness (M, rho0) with
m * M(rho0) a rank-m projection; `build` validates both. Where the family is
weakly covariant under a known group, its `_group` returns the twirl spec of
the input representation pi and the flag `conjugate` that `auto_group` hands
to the capacity formula. The flag is set where the output representation is
Pi(g) = conj(pi(g)): a complex group under an M that contains a transpose.
Transposition is always taken in the computational basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels as ch
from . import linalg
from .capacity import BlockUnitaryHaar, FiniteGroup, SU2Euler
from .errors import ParseError, SpecInvalid
from .linalg import dag


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def weyl_unitaries(d: int):
    """Shift operators W_i |j> = |j+i mod d>, i = 1..d (W_d = identity)."""
    out = []
    for i in range(1, d + 1):
        W = np.zeros((d, d), dtype=complex)
        for j in range(d):
            W[(j + i) % d, j] = 1.0
        out.append(W)
    return out


def phase_unitaries(d: int):
    """U_j = sum_l exp(2 pi i l j / d) |l><l|, j = 1..d."""
    return [np.diag([np.exp(2j * np.pi * l * j / d) for l in range(d)]) for j in range(1, d + 1)]


def heisenberg_weyl_unitaries(d: int):
    """The d^2 products W^a Z^b of shift and clock operators."""
    W = weyl_unitaries(d)[0]
    Z = phase_unitaries(d)[0]
    out = []
    Wa = np.eye(d, dtype=complex)
    for _ in range(d):
        Zb = np.eye(d, dtype=complex)
        for _ in range(d):
            out.append(Wa @ Zb)
            Zb = Zb @ Z
        Wa = Wa @ W
    return out


def su2_generators(d: int):
    """Spin-j matrices (Jx, Jy, Jz) for j = (d-1)/2, built from ladder operators.

    Satisfy [J_i, J_j] = i eps_ijk J_k and sum_k J_k^2 = (d-1)(d+1)/4 * I.
    """
    if d < 2:
        raise SpecInvalid("spin construction needs d >= 2")
    j = (d - 1) / 2
    m = np.arange(j, -j - 1, -1)
    Jp = np.zeros((d, d))
    for k in range(d - 1):
        mm = m[k + 1]
        Jp[k, k + 1] = np.sqrt(j * (j + 1) - mm * (mm + 1))
    Jm = Jp.T
    Jx = (Jp + Jm) / 2 + 0j
    Jy = (Jp - Jm) / 2j
    Jz = np.diag(m).astype(complex)
    return [Jx, Jy, Jz]


def _wh_kraus(d: int):
    c = 1.0 / np.sqrt(d - 1)
    ops = []
    for i in range(d):
        for j in range(i + 1, d):
            A = np.zeros((d, d), dtype=complex)
            A[i, j] = c
            A[j, i] = -c
            ops.append(A)
    return ops


def _flat_state(d: int) -> ch.DensityMatrix:
    return ch.DensityMatrix(d, np.full((d, d), 1.0 / d, dtype=complex))


def transpose_map(d: int) -> ch.LinearMap:
    """X -> X^T as a superoperator (equals the flip operator), m = 1."""
    return ch.LinearMap(d, linalg.flip(d).astype(complex), m=1)


def weyl_m_map(d: int) -> ch.LinearMap:
    W = weyl_unitaries(d)
    return ch.LinearMap.from_apply(lambda X: sum(Wi @ X.swapaxes(-1, -2) @ dag(Wi) for Wi in W) / d, d, m=1)


def pinching_m_map(projections) -> ch.LinearMap:
    projections = [np.asarray(P, dtype=complex) for P in projections]
    d = projections[0].shape[0]
    return ch.LinearMap.from_apply(lambda X: sum(P @ X.swapaxes(-1, -2) @ P for P in projections), d, m=1)


def coarse_m_map(n: int, D: int) -> ch.LinearMap:
    d = n * D

    def M_fn(X):
        Xn = np.trace(X.reshape(-1, n, D, n, D), axis1=2, axis2=4)
        return np.kron(Xn.swapaxes(-1, -2), np.eye(D)) / D

    return ch.LinearMap.from_apply(M_fn, d, m=D)


def block_projectors(d: int, sizes) -> tuple:
    """Diagonal projectors of the given block sizes (must sum to d)."""
    if sum(sizes) != d:
        raise SpecInvalid(f"block sizes {sizes} do not sum to d={d}")
    ch.require_stack_fits(len(sizes), d, d)
    out = []
    at = 0
    for s in sizes:
        P = np.zeros((d, d), dtype=complex)
        for k in range(at, at + s):
            P[k, k] = 1.0
        out.append(P)
        at += s
    return tuple(out)


def casimir_reducible_generators():
    """The printed 4-dimensional reducible generators (computational basis)."""
    J1 = np.zeros((4, 4), dtype=complex)
    J1[1, 2] = 1; J1[3, 0] = 1; J1[0, 3] = -1; J1[2, 1] = -1
    J2 = np.zeros((4, 4), dtype=complex)
    J2[2, 0] = 1; J2[3, 1] = 1; J2[0, 2] = -1; J2[1, 3] = -1
    J3 = np.zeros((4, 4), dtype=complex)
    J3[0, 1] = 1; J3[3, 2] = 1; J3[1, 0] = -1; J3[2, 3] = -1
    return [(1j / 2) * J1, (1j / 2) * J2, (1j / 2) * J3]


def casimir_reducible_rho0() -> ch.DensityMatrix:
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1; rho[0, 3] = 1j; rho[3, 0] = -1j; rho[3, 3] = 1
    return ch.DensityMatrix(4, rho / 2)


def casimir_reducible_complementary_generators():
    """SU(2) generators acting on the multiplicity factor of the reducible
    representation.

    The printed generators decompose as two spin-1/2 copies; outputs of the
    example channel commute with them, so the capacity twirl has to rotate the
    multiplicity qubit instead. Built by pairing the J3 eigenspaces through
    the ladder operator (for these generators [J1, J2] = -i J3, so J1 + i J2
    lowers).
    """
    J1, J2, J3 = casimir_reducible_generators()
    w, V = np.linalg.eigh(J3)
    plus = V[:, np.isclose(w, 0.5)]
    a = []
    for k in range(plus.shape[1]):
        v = plus[:, k]
        idx = int(np.argmax(np.abs(v)))
        a.append(v * np.exp(-1j * np.angle(v[idx])))
    lower = J1 + 1j * J2
    cols = []
    for v in a:
        b = lower @ v
        cols += [v, b / np.linalg.norm(b)]
    R = np.stack(cols, axis=1)  # columns ordered (mu, s) with s minor
    jx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
    jy = np.array([[0, -1j], [1j, 0]], dtype=complex) / 2
    jz = np.diag([0.5, -0.5]).astype(complex)
    return [R @ np.kron(j, np.eye(2)) @ dag(R) for j in (jx, jy, jz)]


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
        T = ch.QuantumChannel(d, d, tuple(_wh_kraus(d)), name=f"wh:d={d}")
        return T, ch.ProjectiveForm(transpose_map(d), _zero_state(d))

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
        kraus = [np.sqrt(lam) * A for A in _wh_kraus(d)]
        w, V = np.linalg.eigh(omega)
        comp = [V[:, k] for k in range(d) if w[k] < 0.5]
        for v in comp:
            for b in range(d):
                A = np.sqrt((1 - lam) / (d - 1)) * np.outer(v, np.eye(d)[:, b])
                kraus.append(A)
        T = ch.QuantumChannel(d, d, tuple(kraus), name=f"stretch:d={d},lambda={lam}")
        M = ch.LinearMap.from_apply(lambda X: lam * X.swapaxes(-1, -2) + (1 - lam) * omega
                                    * np.trace(X, axis1=-2, axis2=-1)[..., None, None], d, m=1)
        return T, ch.ProjectiveForm(M, ch.DensityMatrix(d, omega.T.copy()))

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
        W = weyl_unitaries(d)
        kraus = [Wi @ A / np.sqrt(d) for Wi in W for A in _wh_kraus(d)]
        T = ch.QuantumChannel(d, d, tuple(kraus), name=f"weyl:d={d}")
        return T, ch.ProjectiveForm(weyl_m_map(d), _flat_state(d))

    def _group(self):
        return FiniteGroup(phase_unitaries(self.d)), True


@dataclass(frozen=True)
class Pinching:
    d: int
    projections: tuple = ()

    def _build(self):
        d = self.d
        _require_d2(d, "pinching")
        projs = [np.asarray(P, dtype=complex) for P in self.projections]
        if not projs:
            raise SpecInvalid("pinching needs at least one projection")
        ch.require_stack_fits(len(projs) * d * (d - 1) // 2, d, d)
        acc = sum(projs)
        if linalg.herm_norm_inf(acc - np.eye(d)) > 1e-10:
            raise SpecInvalid("projections do not resolve the identity")
        for i, P in enumerate(projs):
            for j, Q in enumerate(projs):
                want = P if i == j else np.zeros_like(P)
                if linalg.herm_norm_inf(P @ Q - want) > 1e-10:
                    raise SpecInvalid(f"projections {i},{j} are not orthogonal idempotents")
        kraus = [P @ A for P in projs for A in _wh_kraus(d)]
        kraus = [A for A in kraus if np.linalg.norm(A) > 1e-14]
        T = ch.QuantumChannel(d, d, tuple(kraus), name=f"pinch:d={d}")
        # witness: a vector inside the support of the first projection
        j_star = int(np.argmax(np.diag(projs[0]).real))
        v = projs[0] @ np.eye(d)[:, j_star]
        v = v / np.linalg.norm(v)
        rho0 = ch.DensityMatrix(d, linalg.projector_from_vector(v).T.copy())
        return T, ch.ProjectiveForm(pinching_m_map(projs), rho0)

    def _group(self):
        return FiniteGroup(weyl_unitaries(self.d)), False


@dataclass(frozen=True)
class CasimirIrreducible:
    d: int

    def _build(self):
        d = self.d
        ch.require_stack_fits(3, d, d)
        Js = su2_generators(d)
        lam_pi = (d - 1) * (d + 1) / 4
        kraus = tuple(J / np.sqrt(lam_pi) for J in Js)
        return ch.QuantumChannel(d, d, kraus, name=f"casimir:d={d}"), None

    def _group(self):
        return SU2Euler(tuple(su2_generators(self.d))), False


@dataclass(frozen=True)
class CasimirReducibleExample:
    def _build(self):
        ch.require_stack_fits(4, 4, 4)
        Js = casimir_reducible_generators()
        kraus = tuple(Js) + (np.eye(4, dtype=complex) / 2,)
        T = ch.QuantumChannel(4, 4, kraus, name="casimir-reducible")
        M = ch.LinearMap(4, linalg.trace_superop(4) / 2 - T.superop, m=2)
        return T, ch.ProjectiveForm(M, casimir_reducible_rho0())

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
        rest = [k for k in range(1, d + 1) if k not in K]
        kraus = []
        for i in range(d):
            for k in rest:
                A = np.zeros((d, d), dtype=complex)
                A[(i - k) % d, i] = 1.0 / np.sqrt(d - len(K))
                kraus.append(A)
        T = ch.QuantumChannel(d, d, tuple(kraus), name=f"shiftpinch:d={d},K={','.join(map(str, K))}")
        W = weyl_unitaries(d)

        def M_fn(X):
            out = np.zeros(X.shape, dtype=complex)
            for k in K:
                out[..., range(d), range(d)] += np.diagonal(dag(W[k - 1]) @ X @ W[k - 1], axis1=-2, axis2=-1)
            return out / len(K)

        return T, ch.ProjectiveForm(ch.LinearMap.from_apply(M_fn, d, m=len(K)), _zero_state(d))


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
        kraus = []
        for A in _wh_kraus(n):
            for e in range(D):
                for f in range(D):
                    Kf = np.zeros((D, D), dtype=complex)
                    Kf[f, e] = 1.0 / np.sqrt(D)
                    kraus.append(np.kron(A, Kf))
        T = ch.QuantumChannel(d, d, tuple(kraus), name=f"coarse:n={n},D={D}")
        return T, ch.ProjectiveForm(coarse_m_map(n, D), _flat_state(d))

    def _group(self):
        return BlockUnitaryHaar(self.n, self.D), True


@dataclass(frozen=True)
class Diagonal:
    d: int
    diagonals: tuple = ()  # sequence of length-d complex vectors

    def _build(self):
        d = self.d
        diags = [np.asarray(a, dtype=complex).reshape(-1) for a in self.diagonals]
        if not diags or any(len(a) != d for a in diags):
            raise SpecInvalid("diagonal channel needs length-d diagonals")
        col = np.stack(diags)
        if np.abs((np.abs(col) ** 2).sum(axis=0) - 1.0).max() > 1e-10:
            raise SpecInvalid("diagonal amplitudes do not preserve trace (sum_k |a_k(i)|^2 != 1)")
        ch.require_stack_fits(len(diags), d, d)
        kraus = tuple(np.diag(a) for a in diags)
        return ch.QuantumChannel(d, d, kraus, name=f"diag:d={d}"), None

    def _group(self):
        return FiniteGroup(weyl_unitaries(self.d)), False


def build(spec):
    """Construct (QuantumChannel, ProjectiveForm or None) for a channel spec."""
    make = getattr(spec, "_build", None)
    if make is None:
        raise SpecInvalid(f"unknown channel spec {spec!r}")
    return _finish(*make())


def _finish(T: ch.QuantumChannel, form: ch.ProjectiveForm | None):
    report = ch.validate(T)
    if not report.valid:
        raise SpecInvalid(
            f"built channel fails validation: tp residual {report.tp_residual:.3e}, "
            f"min choi eig {report.min_choi_eigenvalue:.3e}"
        )
    if form is not None:
        idem, tr_err, resid = ch.witness_defects(T, form)
        if resid > 1e-9:
            raise SpecInvalid(f"projective form reconstruction residual {resid:.3e}")
        if idem > 1e-8 or tr_err > 1e-8:
            raise SpecInvalid("witness m*M(rho0) is not a rank-m projection")
    return T, form


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
    ch.require_stack_fits(d, d, d)
    return Diagonal(d, tuple(tuple(row) for row in np.eye(d)))


# ---------------------------------------------------------------------------
# CLI spec-string grammar
# ---------------------------------------------------------------------------


def parse_spec(text: str):
    """Parse a channel spec string, e.g. 'wh:d=3' or 'shiftpinch:d=4,K=1,2'."""
    text = text.strip()
    head, _, rest = text.partition(":")
    head = head.lower()
    params: dict[str, list[str]] = {}
    if rest:
        key = None
        for token in rest.split(","):
            if "=" in token:
                key, _, val = token.partition("=")
                key = key.strip()
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

    def one(name, cast=int, default=None):
        if name not in params:
            if default is not None:
                return default
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
    if head == "diag":
        if "file" in params:
            return _diagonal_from_file(params["file"][0])
        return dephasing(one("d"))
    raise ParseError(f"unknown channel spec {text!r}")


def _diagonal_from_file(path: str) -> Diagonal:
    obj = ch.read_json(path)
    d = ch.int_field(obj, "dim", path)
    if not isinstance(obj.get("diagonals"), list):
        raise ParseError(f"{path}: diagonal channel file needs a 'diagonals' list")
    diags = []
    for i, a in enumerate(obj["diagonals"]):
        if not isinstance(a, dict) or "re" not in a or "im" not in a:
            raise ParseError(f"{path}: diagonals[{i}] needs 're' and 'im' vectors")
        try:
            diags.append(tuple(np.asarray(a["re"], dtype=float) + 1j * np.asarray(a["im"], dtype=float)))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: diagonals[{i}]: ragged or non-numeric entries ({exc})") from exc
    return Diagonal(d, tuple(diags))
