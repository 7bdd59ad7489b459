"""Block compositions of TU matrices (1-, 2-, 3- and delta-sums), their
validity checks, and the functional-transport rules that push a
w-valuedness certificate of a composed matrix down to its factors.
"""

from typing import Optional

from ._record import Record
from .certify import Functional, ghouila_houri_check
from .errors import FormatError, HypothesisError, PreconditionError, UsageError
from .matrix import IntMatrix, int_vector

KINDS = ("one-sum", "two-sum", "three-sum", "delta-sum")


class SumSpec(Record):
    """The pieces of a sum; unused fields are None depending on ``kind``."""

    kind: str
    a: IntMatrix
    b: IntMatrix
    u: Optional[tuple] = None        # two-sum: len m1; delta-sum: len n1
    v: Optional[tuple] = None        # two-sum: len n2; delta-sum: len n2
    u_prime: Optional[tuple] = None  # delta-sum: len m1
    v_prime: Optional[tuple] = None  # delta-sum: len m2
    u1: Optional[tuple] = None       # three-sum: len m1
    u2: Optional[tuple] = None
    u3: Optional[tuple] = None
    v1: Optional[tuple] = None       # three-sum: len n2
    v2: Optional[tuple] = None
    v3: Optional[tuple] = None
    x: Optional[int] = None          # delta-sum: +-1
    c: Optional[IntMatrix] = None    # three-sum glue block, m1 x n2

    def to_json_dict(self):
        out = {"kind": self.kind, "A": self.a.to_lists(), "B": self.b.to_lists()}
        for name, val in (("u", self.u), ("v", self.v),
                          ("u_prime", self.u_prime), ("v_prime", self.v_prime),
                          ("u1", self.u1), ("u2", self.u2), ("u3", self.u3),
                          ("v1", self.v1), ("v2", self.v2), ("v3", self.v3)):
            if val is not None:
                out[name] = list(val)
        if self.x is not None:
            out["x"] = self.x
        if self.c is not None:
            out["C"] = self.c.to_lists()
        return out

    @staticmethod
    def from_json_dict(data):
        """Read a decoded SumSpec JSON object; a missing matrix or an entry
        that is not an integer raises FormatError."""
        if not isinstance(data, dict):
            raise FormatError("a SumSpec must be a JSON object")

        def is_int(x):
            return type(x) is int  # JSON true/false decode to bool

        def ints(name, values):
            if not (isinstance(values, list) and all(map(is_int, values))):
                raise FormatError(f"{name} must hold integers, got {values!r}")
            return tuple(values)

        def vec(name):
            return ints(name, data[name]) if name in data else None

        def mat(name):
            if name not in data:
                raise FormatError(f"a SumSpec needs the matrix {name!r}")
            if not isinstance(data[name], list):
                raise FormatError(f"{name} must be a list of rows")
            return IntMatrix.from_rows([ints(name, row) for row in data[name]])

        kind = data.get("kind")
        if kind not in KINDS:
            raise UsageError(f"unknown sum kind {kind!r}")
        if "x" in data and not is_int(data["x"]):
            raise FormatError(f"x must be an integer, got {data['x']!r}")
        return SumSpec(
            kind=kind,
            a=mat("A"),
            b=mat("B"),
            u=vec("u"), v=vec("v"),
            u_prime=vec("u_prime"), v_prime=vec("v_prime"),
            u1=vec("u1"), u2=vec("u2"), u3=vec("u3"),
            v1=vec("v1"), v2=vec("v2"), v3=vec("v3"),
            x=data.get("x"),
            c=mat("C") if "C" in data else None,
        )


class ComposeReport(Record):
    kind: str
    two_sum_shaped: Optional[bool]


class ComposeResult(Record):
    matrix: IntMatrix
    report: ComposeReport


def _outer(col, row):
    return IntMatrix.from_rows([[c * r for r in row] for c in col])


def _block(top_left, top_right, bottom_left, bottom_right):
    return top_left.hstack(top_right).vstack(bottom_left.hstack(bottom_right))


def _require_vec(vec, length, name):
    if vec is None:
        raise UsageError(f"{name} is required for this sum kind")
    vec = int_vector(vec, name)
    if len(vec) != length:
        raise UsageError(f"{name} must have length {length}, got {len(vec)}")
    return vec


def _check_factor_tu(factor, what):
    if not ghouila_houri_check(factor).is_tu:
        raise PreconditionError(f"{what} is not totally unimodular")


def first_factor(spec):
    """The first factor matrix of the sum, as in its definition."""
    a, b = spec.a, spec.b
    if spec.kind == "one-sum":
        return a
    if spec.kind == "two-sum":
        return a.hstack(IntMatrix.from_columns([spec.u]))
    if spec.kind == "three-sum":
        return a.hstack(IntMatrix.from_columns([spec.u1, spec.u2, spec.u3]))
    top = a.hstack(IntMatrix.from_columns([spec.u_prime, spec.u_prime]))
    bottom = IntMatrix.from_rows([list(spec.u) + [0, spec.x]])
    return top.vstack(bottom)


def second_factor(spec):
    """The second factor matrix of the sum, as in its definition."""
    b = spec.b
    if spec.kind == "one-sum":
        return b
    if spec.kind == "two-sum":
        return IntMatrix.from_rows([spec.v]).vstack(b)
    if spec.kind == "three-sum":
        return IntMatrix.from_rows([spec.v1, spec.v2, spec.v3]).vstack(b)
    top = IntMatrix.from_rows([list(spec.v) + [0, spec.x]])
    bottom = b.hstack(IntMatrix.from_columns([spec.v_prime, spec.v_prime]))
    return top.vstack(bottom)


def compose(spec):
    """Validate a SumSpec and build the composed matrix.

    Structural violations raise UsageError; factors failing the TU
    precondition raise PreconditionError. The report flags a 3-sum whose
    nonzero glue rows all equal a single +-row (the 2-sum shape).
    """
    if spec.kind not in KINDS:
        raise UsageError(f"unknown sum kind {spec.kind!r}")
    a, b = spec.a, spec.b
    m1, n1, m2, n2 = a.rows, a.cols, b.rows, b.cols

    if spec.kind == "one-sum":
        _check_factor_tu(a, "A")
        _check_factor_tu(b, "B")
        matrix = _block(a, IntMatrix.zeros(m1, n2), IntMatrix.zeros(m2, n1), b)
        return ComposeResult(matrix, ComposeReport("one-sum", None))

    if spec.kind == "two-sum":
        u = _require_vec(spec.u, m1, "u")
        v = _require_vec(spec.v, n2, "v")
        spec = SumSpec("two-sum", a, b, u=u, v=v)
        _check_factor_tu(first_factor(spec), "(A|u)")
        _check_factor_tu(second_factor(spec), "(v^T;B)")
        matrix = _block(a, _outer(u, v), IntMatrix.zeros(m2, n1), b)
        return ComposeResult(matrix, ComposeReport("two-sum", None))

    if spec.kind == "three-sum":
        if m1 + n1 < 4 or m2 + n2 < 4:
            raise UsageError("three-sum factors must each have size >= 4")
        u1 = _require_vec(spec.u1, m1, "u1")
        u2 = _require_vec(spec.u2, m1, "u2")
        u3 = _require_vec(spec.u3, m1, "u3")
        v1 = _require_vec(spec.v1, n2, "v1")
        v2 = _require_vec(spec.v2, n2, "v2")
        v3 = _require_vec(spec.v3, n2, "v3")
        if any(x + y + z for x, y, z in zip(u1, u2, u3)):
            raise UsageError("u1 + u2 + u3 must be zero")
        if any(x + y + z for x, y, z in zip(v1, v2, v3)):
            raise UsageError("v1 + v2 + v3 must be zero")
        if spec.c is None or spec.c.rows != m1 or spec.c.cols != n2:
            raise UsageError(f"C must be a {m1}x{n2} matrix")
        zero_u, zero_v = (0,) * m1, (0,) * n2
        u_set = {u1, u2, u3, _neg(u1), _neg(u2), _neg(u3), zero_u}
        v_set = {v1, v2, v3, _neg(v1), _neg(v2), _neg(v3), zero_v}
        for j in range(n2):
            if spec.c.col(j) not in u_set:
                raise UsageError(f"column {j} of C is not one of +-u1,u2,u3,0")
        for i in range(m1):
            if spec.c.row(i) not in v_set:
                raise UsageError(f"row {i} of C is not one of +-v1,v2,v3,0")
        spec = SumSpec("three-sum", a, b, u1=u1, u2=u2, u3=u3,
                       v1=v1, v2=v2, v3=v3, c=spec.c)
        _check_factor_tu(first_factor(spec), "(A|u1|u2|u3)")
        _check_factor_tu(second_factor(spec), "(v1;v2;v3;B)")
        nonzero_rows = {spec.c.row(i) for i in range(m1)} - {zero_v}
        shaped = bool(nonzero_rows) and any(
            nonzero_rows <= {w, _neg(w)} for w in nonzero_rows)
        matrix = _block(a, spec.c, IntMatrix.zeros(m2, n1), b)
        return ComposeResult(matrix, ComposeReport("three-sum", shaped))

    # delta-sum
    if m1 + n1 < 4 or m2 + n2 < 4:
        raise UsageError("delta-sum blocks must each have size >= 4")
    if type(spec.x) is not int or spec.x not in (-1, 1):
        raise UsageError("x must be +1 or -1")
    u = _require_vec(spec.u, n1, "u")
    v = _require_vec(spec.v, n2, "v")
    up = _require_vec(spec.u_prime, m1, "u_prime")
    vp = _require_vec(spec.v_prime, m2, "v_prime")
    spec = SumSpec("delta-sum", a, b, u=u, v=v, u_prime=up, v_prime=vp, x=spec.x)
    _check_factor_tu(first_factor(spec), "(A u' u'; u^T 0 x)")
    _check_factor_tu(second_factor(spec), "(v^T 0 x; B v' v')")
    matrix = _block(a, _outer(up, v), _outer(vp, u), b)
    return ComposeResult(matrix, ComposeReport("delta-sum", None))


def _neg(vec):
    return tuple(-x for x in vec)


class TransportedFactor(Record):
    factor: IntMatrix
    w_part: tuple
    functional: Functional


class TransportResult(Record):
    kind: str
    parts: tuple  # of TransportedFactor


def transport_functional(spec, f, w):
    """Push a w-valuedness certificate of the composed matrix to the factors.

    For a 2-sum the certificate lands on (v^T;B); for a 3-sum (requiring
    +-v1 and +-v2 among the glue rows) on (v1;v2;B); for a delta-sum two
    certificates land on (A;u^T) and (v^T;B). Every transported
    functional is re-verified against its factor and the coordinate
    agreement with f is re-checked before returning.
    """
    if spec.kind == "one-sum":
        raise UsageError("no transport is defined for a one-sum")
    composed = compose(spec).matrix
    w = int_vector(w, "w")
    if len(w) != composed.cols:
        raise PreconditionError("w length must match the composed matrix")
    if not isinstance(f, Functional):
        f = Functional(int_vector(f, "f"))
    if f.is_zero():
        raise PreconditionError("certificate functional must be nonzero")
    if f.apply(composed) != w:
        raise PreconditionError("f does not certify the composed matrix as w-valued")

    m1, n1 = spec.a.rows, spec.a.cols
    m2, n2 = spec.b.rows, spec.b.cols
    w2 = w[n1:]
    f1, f2 = f.coeffs[:m1], f.coeffs[m1:]

    if spec.kind == "two-sum":
        fu = sum(c * x for c, x in zip(f1, spec.u))
        fprime = Functional((fu,) + f2)
        factor = second_factor(spec)
        _reverify(fprime, factor, w2)
        assert fprime.coeffs[1:] == f.coeffs[m1:]
        return TransportResult("two-sum",
                               (TransportedFactor(factor, w2, fprime),))

    if spec.kind == "three-sum":
        vs = (spec.v1, spec.v2, spec.v3)
        zero = (0,) * n2
        if any(vv == zero for vv in vs):
            raise HypothesisError("row classification is ambiguous: some v_l = 0")
        for l in range(3):
            for k in range(l + 1, 3):
                if vs[l] == vs[k] or vs[l] == _neg(vs[k]):
                    raise HypothesisError(
                        "row classification is ambiguous: v_l = +-v_k")
        plus = [[], [], []]
        minus = [[], [], []]
        for i in range(m1):
            row = spec.c.row(i)
            if row == zero:
                continue
            for l in range(3):
                if row == vs[l]:
                    plus[l].append(i)
                    break
                if row == _neg(vs[l]):
                    minus[l].append(i)
                    break
        if not plus[0] and not minus[0] or not plus[1] and not minus[1]:
            raise HypothesisError(
                "+-v1 and +-v2 must both appear as rows of C")

        def part(l):
            return (sum(f1[t] for t in plus[l]) - sum(f1[t] for t in minus[l]))

        base3 = part(2)
        fprime = Functional((part(0) - base3, part(1) - base3) + f2)
        factor = IntMatrix.from_rows([spec.v1, spec.v2]).vstack(spec.b)
        _reverify(fprime, factor, w2)
        assert fprime.coeffs[2:] == f.coeffs[m1:]
        return TransportResult("three-sum",
                               (TransportedFactor(factor, w2, fprime),))

    # delta-sum
    w1 = w[:n1]
    fv = sum(c * x for c, x in zip(f2, spec.v_prime))
    fu = sum(c * x for c, x in zip(f1, spec.u_prime))
    first = Functional(f1 + (fv,))
    second = Functional((fu,) + f2)
    factor_one = spec.a.vstack(IntMatrix.from_rows([spec.u]))
    factor_two = IntMatrix.from_rows([spec.v]).vstack(spec.b)
    _reverify(first, factor_one, w1)
    _reverify(second, factor_two, w2)
    assert first.coeffs[:m1] == f.coeffs[:m1]
    assert second.coeffs[1:] == f.coeffs[m1:]
    return TransportResult("delta-sum",
                           (TransportedFactor(factor_one, w1, first),
                            TransportedFactor(factor_two, w2, second)))


def _reverify(functional, factor, w_part):
    if functional.apply(factor) != tuple(w_part):
        raise AssertionError("transported functional failed re-verification")
