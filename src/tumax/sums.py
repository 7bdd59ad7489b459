"""Block compositions of TU matrices (1-, 2-, 3- and delta-sums), their
validity checks, and the functional-transport rules that push a
w-valuedness certificate of a composed matrix down to its factors.

Each kind is described once, in ``_KIND_TABLE``: its vectors in the order
they are checked, the block dimension each one's length must equal, and
the names of its two factors as errors print them. ``_validated`` reads
that table, and ``compose`` and ``transport_functional`` both work on the
spec it returns, whose vectors are int tuples.
"""

from typing import Optional

from ._record import Record
from .certify import apply_functional, ghouila_houri_check
from .errors import FormatError, PreconditionError, UsageError
from .matrix import IntMatrix, int_vector

_KIND_TABLE = {
    "one-sum": ((), ("A", "B")),
    "two-sum": ((("u", "m1"), ("v", "n2")), ("(A|u)", "(v^T;B)")),
    "three-sum": ((("u1", "m1"), ("u2", "m1"), ("u3", "m1"),
                   ("v1", "n2"), ("v2", "n2"), ("v3", "n2")),
                  ("(A|u1|u2|u3)", "(v1;v2;v3;B)")),
    "delta-sum": ((("u", "n1"), ("v", "n2"), ("u_prime", "m1"),
                   ("v_prime", "m2")),
                  ("(A u' u'; u^T 0 x)", "(v^T 0 x; B v' v')")),
}
KINDS = tuple(_KIND_TABLE)


class SumSpec(Record):
    """The pieces of a sum; unused fields are None depending on ``kind``.
    ``_KIND_TABLE`` gives each kind's vectors and their lengths."""

    kind: str
    a: IntMatrix
    b: IntMatrix
    u: Optional[tuple] = None
    v: Optional[tuple] = None
    u_prime: Optional[tuple] = None
    v_prime: Optional[tuple] = None
    u1: Optional[tuple] = None
    u2: Optional[tuple] = None
    u3: Optional[tuple] = None
    v1: Optional[tuple] = None
    v2: Optional[tuple] = None
    v3: Optional[tuple] = None
    x: Optional[int] = None          # delta-sum: +-1
    c: Optional[IntMatrix] = None    # three-sum glue block, m1 x n2

    def to_json_dict(self):
        out = {"kind": self.kind, "A": self.a.to_lists(), "B": self.b.to_lists()}
        for name in _VECTORS:
            if getattr(self, name) is not None:
                out[name] = list(getattr(self, name))
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
        a, b = mat("A"), mat("B")
        vectors = {name: ints(name, data[name])
                   for name in _VECTORS if name in data}
        return SumSpec(kind, a, b, x=data.get("x"),
                       c=mat("C") if "C" in data else None, **vectors)


# every vector field of any kind, in the order SumSpec declares them
_VECTORS = tuple(sorted({name for vectors, _ in _KIND_TABLE.values()
                         for name, _dim in vectors}, key=SumSpec._fields.index))


class ComposeResult(Record):
    matrix: IntMatrix
    two_sum_shaped: Optional[bool]  # None unless the kind is three-sum


def _outer(col, row):
    """col row^T, with len(col) rows and len(row) columns even when one of
    them is empty."""
    return IntMatrix(len(col), len(row),
                     tuple(tuple(c * r for r in row) for c in col))


def _block(top_left, top_right, bottom_left, bottom_right):
    return top_left.hstack(top_right).vstack(bottom_left.hstack(bottom_right))


def _neg(vec):
    return tuple(-x for x in vec)


def _dot(xs, ys):
    return sum(x * y for x, y in zip(xs, ys))


def _check_glue(spec):
    """The 3-sum's zero sums, then C: m1 x n2, its columns among +-u_l and
    0, its rows among +-v_l and 0."""
    us, vs = (spec.u1, spec.u2, spec.u3), (spec.v1, spec.v2, spec.v3)
    for letter, triple in (("u", us), ("v", vs)):
        if any(map(sum, zip(*triple))):
            raise UsageError(f"{letter}1 + {letter}2 + {letter}3 must be zero")
    c, m1, n2 = spec.c, spec.a.rows, spec.b.cols
    if c is None or c.rows != m1 or c.cols != n2:
        raise UsageError(f"C must be a {m1}x{n2} matrix")
    for what, letter, triple, lines in (("column", "u", us, c.columns()),
                                        ("row", "v", vs, c.entries)):
        allowed = {*triple, *map(_neg, triple), (0,) * len(triple[0])}
        for k, line in enumerate(lines):
            if line not in allowed:
                raise UsageError(f"{what} {k} of C is not one of "
                                 f"+-{letter}1,{letter}2,{letter}3,0")


def _validated(spec):
    """``spec`` with the vectors of its kind as int tuples, once its
    structure is valid (else UsageError) and both its factors are TU (else
    PreconditionError). Checked in order: the kind, the block sizes, x,
    the vectors in table order, the 3-sum glue, the first factor."""
    if spec.kind not in _KIND_TABLE:
        raise UsageError(f"unknown sum kind {spec.kind!r}")
    vectors, factor_names = _KIND_TABLE[spec.kind]
    a, b = spec.a, spec.b
    if spec.kind in ("three-sum", "delta-sum") and (
            a.rows + a.cols < 4 or b.rows + b.cols < 4):
        blocks = "factors" if spec.kind == "three-sum" else "blocks"
        raise UsageError(f"{spec.kind} {blocks} must each have size >= 4")
    if spec.kind == "delta-sum" and (type(spec.x) is not int
                                     or spec.x not in (-1, 1)):
        raise UsageError("x must be +1 or -1")
    dims = {"m1": a.rows, "n1": a.cols, "m2": b.rows, "n2": b.cols}
    vecs = {}
    for name, dim in vectors:
        if getattr(spec, name) is None:
            raise UsageError(f"{name} is required for this sum kind")
        vec = vecs[name] = int_vector(getattr(spec, name), name)
        if len(vec) != dims[dim]:
            raise UsageError(f"{name} must have length {dims[dim]}, "
                             f"got {len(vec)}")
    if any(vec is not getattr(spec, name) for name, vec in vecs.items()):
        # int_vector returns a tuple of ints as it is
        spec = SumSpec(spec.kind, a, b, x=spec.x, c=spec.c, **vecs)
    if spec.kind == "three-sum":
        _check_glue(spec)
    for factor, name in zip((first_factor(spec), second_factor(spec)),
                            factor_names):
        if not ghouila_houri_check(factor).is_tu:
            raise PreconditionError(f"{name} is not totally unimodular")
    return spec


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
    precondition raise PreconditionError. ``two_sum_shaped`` flags a 3-sum
    whose nonzero glue rows all equal a single +-row (the 2-sum shape).
    """
    return _assemble(_validated(spec))


def _assemble(spec):
    """The ComposeResult of a spec that ``_validated`` returned."""
    a, b, kind = spec.a, spec.b, spec.kind
    bottom_left, shaped = IntMatrix.zeros(b.rows, a.cols), None
    if kind == "one-sum":
        top_right = IntMatrix.zeros(a.rows, b.cols)
    elif kind == "two-sum":
        top_right = _outer(spec.u, spec.v)
    elif kind == "three-sum":
        top_right = spec.c
        nonzero_rows = set(spec.c.entries) - {(0,) * b.cols}
        shaped = bool(nonzero_rows) and any(
            nonzero_rows <= {w, _neg(w)} for w in nonzero_rows)
    else:
        top_right = _outer(spec.u_prime, spec.v)
        bottom_left = _outer(spec.v_prime, spec.u)
    return ComposeResult(_block(a, top_right, bottom_left, b), shaped)


class TransportedFactor(Record):
    factor: IntMatrix
    w_part: tuple
    functional: tuple


def transport_functional(spec, f, w):
    """Push a w-valuedness certificate of the composed matrix to the factors.

    The spec is validated as ``compose`` validates it. For a 2-sum the
    certificate lands on (v^T;B); for a 3-sum (requiring +-v1 and +-v2
    among the glue rows) on (v1;v2;B); for a delta-sum two certificates
    land on (A;u^T) and (v^T;B). f and w are sequences of ints. Returns a
    tuple of TransportedFactor, one per factor in that order, whose
    functional is an int tuple re-verified against its factor.
    """
    if spec.kind == "one-sum":
        raise UsageError("no transport is defined for a one-sum")
    spec = _validated(spec)
    composed = _assemble(spec).matrix
    w = int_vector(w, "w")
    if len(w) != composed.cols:
        raise PreconditionError("w length must match the composed matrix")
    f = int_vector(f, "f")
    if not any(f):
        raise PreconditionError("certificate functional must be nonzero")
    if apply_functional(f, composed) != w:
        raise PreconditionError("f does not certify the composed matrix as w-valued")

    m1, n1 = spec.a.rows, spec.a.cols
    f1, f2 = f[:m1], f[m1:]
    w1, w2 = w[:n1], w[n1:]
    if spec.kind == "two-sum":
        parts = [(second_factor(spec), w2, (_dot(f1, spec.u),) + f2)]
    elif spec.kind == "three-sum":
        vs = (spec.v1, spec.v2, spec.v3)
        if (0,) * spec.b.cols in vs:
            raise PreconditionError("row classification is ambiguous: some v_l = 0")
        # v_l = +-v_k for l != k would make the third vector 0 or +-2 v_l,
        # which the check above and the TU check of (v1;v2;v3;B) exclude:
        # so each nonzero row of C is +-v_l for exactly one l
        signed = {row: (l, sign) for l, vl in enumerate(vs)
                  for sign, row in ((1, vl), (-1, _neg(vl)))}
        part = {}
        for fi, row in zip(f1, spec.c.entries):
            if row in signed:
                l, sign = signed[row]
                part[l] = part.get(l, 0) + sign * fi
        if 0 not in part or 1 not in part:
            raise PreconditionError(
                "+-v1 and +-v2 must both appear as rows of C")
        base3 = part.get(2, 0)
        factor = IntMatrix.from_rows([spec.v1, spec.v2]).vstack(spec.b)
        parts = [(factor, w2, (part[0] - base3, part[1] - base3) + f2)]
    else:
        parts = [(spec.a.vstack(IntMatrix.from_rows([spec.u])), w1,
                  f1 + (_dot(f2, spec.v_prime),)),
                 (IntMatrix.from_rows([spec.v]).vstack(spec.b), w2,
                  (_dot(f1, spec.u_prime),) + f2)]
    parts = tuple(TransportedFactor(*p) for p in parts)
    for p in parts:
        if apply_functional(p.functional, p.factor) != p.w_part:
            raise AssertionError("transported functional failed re-verification")
    return parts
