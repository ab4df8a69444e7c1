"""Exact linear algebra over QQ or a prime field F_p.

Everything downstream (homology, spectral pages, homotopy solving) reduces
to rank / kernel / solve / subquotient over a field, so this module is the
single computational substrate.  Matrices are dense and tiny (bidegree
blocks), so plain Gauss-Jordan elimination over exact field elements is
enough.  No floating point anywhere.

Matrix arithmetic and elimination both use one kernel per field kind, so
field arithmetic is chosen once per operation rather than once per entry.
F_p entries are ints in [0, p); a QQ entry is an int when integral and
otherwise a Fraction with denominator > 1 (never a float or a bool).
``+``, ``-``, negation and ``scale`` are list comprehensions that pass zero
operands through, and ``*`` accumulates plain products in one kernel for
both fields (``_matmul``).  F_p results are reduced ``% p`` once per entry
and QQ results put in canonical form; ``is_zero`` is ``not any(data)``.

All elimination goes through ``Matrix._echelon``, which reduces a list of
row lists with ``_rref_mod_p`` for F_p or ``_rref_qq`` for QQ.  The QQ
kernel is fraction-free: it clears the denominators of the rows that hold a
Fraction and eliminates on Python ints, and divides each pivot row by its
pivot at the end, making a Fraction only where the pivot does not divide an
entry.  The result is the canonical reduced row echelon form, whichever
kernel produced it.  A ``Subquotient`` Z/B is given the rows on which Z
is the identity (a basis from ``Matrix.kernel`` is, on the free columns
that it reports) and works in the coordinates of that basis: a vector's
coordinates are its entries on those rows, and it lies in span Z exactly
when Z maps them back to its entries on the other rows.  One small
echelon of B's coordinates picks the rep columns and gives the reduction
matrix R, so reducing a cycle or inducing a map is a check on the
non-free rows and a product with R, with no solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress
from math import gcd, lcm


# the first 12 primes: as Miller-Rabin bases they decide primality exactly
# for every n < 3.18 * 10^23 (Sorenson and Webster 2015), which covers the
# supported moduli n < 2^64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MODULUS_BOUND = 2 ** 64


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2^64.

    Raises ValueError for n >= 2^64, where the fixed bases are not proven.
    """
    if n >= _MODULUS_BOUND:
        raise ValueError(f"modulus {n} is not below 2^64")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


DEFAULT_PRIME = 32003


@dataclass(frozen=True)
class Field:
    """Field of coefficients: kind 'rational' or 'prime_field' (with modulus p)."""

    kind: str
    p: int = 0

    def __post_init__(self):
        if self.kind == "rational":
            if self.p:
                raise ValueError("rational field takes no modulus")
        elif self.kind == "prime_field":
            if not _is_prime(self.p):
                raise ValueError(f"modulus {self.p} is not prime")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    # -- element ops ---------------------------------------------------
    def zero(self):
        return 0

    def one(self):
        return 1

    def of_int(self, n: int):
        return n % self.p if self.kind == "prime_field" else int(n)

    def add(self, a, b):
        return (a + b) % self.p if self.p else _qq_entry(a + b)

    def sub(self, a, b):
        return (a - b) % self.p if self.p else _qq_entry(a - b)

    def mul(self, a, b):
        return (a * b) % self.p if self.p else _qq_entry(a * b)

    def neg(self, a):
        return (-a) % self.p if self.kind == "prime_field" else -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "prime_field":
            return pow(a, self.p - 2, self.p)
        # Fraction(1, a), never 1 / a: that is a float for an int a
        return _qq_entry(Fraction(1, a))

    def parse(self, v):
        """Element from its JSON form: int for F_p, int or 'a/b' string for QQ."""
        # bool is an int subclass, but JSON true/false is not a field element
        if isinstance(v, bool):
            raise ValueError(f"{self} entries cannot be booleans, got {v!r}")
        if self.kind == "prime_field":
            if not isinstance(v, int):
                raise ValueError(f"F_{self.p} entries must be integers, got {v!r}")
            return v % self.p
        if isinstance(v, int):
            return v
        # no exponent: Fraction("1e999999999") would build 10 ** 999999999
        if isinstance(v, str) and "e" not in v.lower():
            return _qq_entry(Fraction(v))
        raise ValueError(f"rational entries must be int or 'a/b' string, got {v!r}")

    def __str__(self):
        return "QQ" if self.kind == "rational" else f"F_{self.p}"


QQ = Field("rational")


def GF(p: int = DEFAULT_PRIME) -> Field:
    return Field("prime_field", p)


class Matrix:
    """Dense matrix over a Field, entries row-major. Acts on column vectors."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, data=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [field.zero()] * (rows * cols)
        else:
            if len(data) != rows * cols:
                raise ValueError("entry count does not match shape")
            # callers may pass Fraction(3); kernels adopt theirs through _of
            self.data = list(data) if field.p else _qq_canonical(list(data))

    # -- constructors ---------------------------------------------------
    @classmethod
    def _of(cls, field, rows, cols, data: list):
        """Matrix that adopts data, a new list of rows * cols entries, as is."""
        m = object.__new__(cls)
        m.field, m.rows, m.cols, m.data = field, rows, cols, data
        return m

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, rows, cols)

    @classmethod
    def identity(cls, field, n):
        m = cls(field, n, n)
        one = field.one()
        for i in range(n):
            m.data[i * n + i] = one
        return m

    @classmethod
    def from_rows(cls, field, rows):
        r = len(rows)
        c = len(rows[0]) if rows else 0
        data = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            data.extend(field.parse(v) if not isinstance(v, (int, Fraction)) else
                        (field.of_int(v) if isinstance(v, int) else v) for v in row)
        return cls(field, r, c, data)

    @classmethod
    def column(cls, field, entries):
        return cls(field, len(entries), 1, list(entries))

    def copy(self):
        return Matrix(self.field, self.rows, self.cols, self.data)

    # -- access ----------------------------------------------------------
    def __getitem__(self, rc):
        r, c = rc
        return self.data[r * self.cols + c]

    def __setitem__(self, rc, v):
        r, c = rc
        self.data[r * self.cols + c] = v

    def row(self, r):
        return self.data[r * self.cols:(r + 1) * self.cols]

    def to_rows(self):
        c, d = self.cols, self.data
        return [d[r * c:(r + 1) * c] for r in range(self.rows)]

    def get_block(self, r0: int, c0: int, rows: int, cols: int) -> "Matrix":
        """The rows x cols block whose top left entry is (r0, c0)."""
        if not (0 <= r0 <= r0 + rows <= self.rows
                and 0 <= c0 <= c0 + cols <= self.cols):
            raise ValueError(f"block {rows}x{cols} at {(r0, c0)} outside "
                             f"{self.rows}x{self.cols}")
        c, d = self.cols, self.data
        data = []
        for r in range(r0, r0 + rows):
            data.extend(d[r * c + c0:r * c + c0 + cols])
        return Matrix._of(self.field, rows, cols, data)

    def set_block(self, r0: int, c0: int, m: "Matrix", negate=False):
        """Overwrite the block whose top left entry is (r0, c0) with m, or
        with -m if negate is set."""
        if not (0 <= r0 and r0 + m.rows <= self.rows
                and 0 <= c0 and c0 + m.cols <= self.cols):
            raise ValueError(f"block {m.rows}x{m.cols} at {(r0, c0)} outside "
                             f"{self.rows}x{self.cols}")
        c, d, k, md = self.cols, self.data, m.cols, m.data
        if negate:
            md = _negated(md, self.field.p)
        for r in range(m.rows):
            base = (r0 + r) * c + c0
            d[base:base + k] = md[r * k:(r + 1) * k]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        raise TypeError("matrices are not hashable")

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"

    def is_zero(self):
        return not any(self.data)

    # -- arithmetic --------------------------------------------------------
    # One kernel per field kind: F_p results are reduced once per entry, QQ
    # results put in canonical form.  A zero operand is passed through
    # rather than computed, since most blocks are mostly zeros.
    def __add__(self, other):
        self._same_shape(other)
        p = self.field.p
        if p:
            data = [(a + b) % p if b else a
                    for a, b in zip(self.data, other.data)]
        else:
            data = _qq_canonical([a + b if b else a
                                  for a, b in zip(self.data, other.data)])
        return Matrix._of(self.field, self.rows, self.cols, data)

    def __sub__(self, other):
        self._same_shape(other)
        p = self.field.p
        if p:
            data = [(a - b) % p if b else a
                    for a, b in zip(self.data, other.data)]
        else:
            data = _qq_canonical([a - b if b else a
                                  for a, b in zip(self.data, other.data)])
        return Matrix._of(self.field, self.rows, self.cols, data)

    def __neg__(self):
        return Matrix._of(self.field, self.rows, self.cols,
                          _negated(self.data, self.field.p))

    def scale(self, c):
        p = self.field.p
        if p:
            data = [c * a % p if a else a for a in self.data]
        else:
            data = _qq_canonical([c * a if a else a for a in self.data])
        return Matrix._of(self.field, self.rows, self.cols, data)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * "
                             f"{other.rows}x{other.cols}")
        if isinstance(other, SignedPerm):
            return other.gather_cols(self)
        if isinstance(self, SignedPerm):
            return self.scatter_rows(other)
        # products here are usually sparse identity-tensor patterns, so
        # only nonzero entries are visited: those of the right factor are
        # grouped by row, those of the left are found with compress
        od, oc = other.data, other.cols
        right = [[] for _ in range(other.rows)]
        for t in compress(range(len(od)), od):
            k, j = divmod(t, oc)
            right[k].append((j, od[t]))
        p = self.field.p
        data = _matmul(self, right, oc)
        data = [v % p for v in data] if p else _qq_canonical(data)
        return Matrix._of(self.field, self.rows, oc, data)

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        if self.field != other.field:
            raise ValueError("field mismatch")

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        data = []
        for r in range(self.rows):
            data.extend(self.row(r))
            data.extend(other.row(r))
        return Matrix._of(self.field, self.rows, self.cols + other.cols, data)

    def take_rows(self, idxs):
        c, d = self.cols, self.data
        data = []
        for r in idxs:
            data.extend(d[r * c:(r + 1) * c])
        return Matrix._of(self.field, len(idxs), c, data)

    def take_cols(self, idxs):
        c, d = self.cols, self.data
        if not all(0 <= k < c for k in idxs):
            raise IndexError("column index out of range")
        cols = [d[k::c] for k in idxs]
        return Matrix._of(self.field, self.rows, len(idxs),
                          [v for row in zip(*cols) for v in row])

    # -- elimination -------------------------------------------------------
    def _echelon(self):
        """Reduced row echelon form of a copy; returns (mat, pivot cols)."""
        c = self.cols
        rows = self.to_rows()
        if self.field.kind == "prime_field":
            pivots = _rref_mod_p(rows, c, self.field.p)
        else:
            pivots = _rref_qq(rows, c)
        return Matrix._of(self.field, self.rows, c,
                          [v for row in rows for v in row]), pivots

    def rank(self) -> int:
        return len(self._echelon()[1])

    def kernel_basis(self) -> "Matrix":
        """Columns form a basis of ker(self); cols = self.cols - rank."""
        return self.kernel()[0]

    def kernel(self) -> tuple["Matrix", list[int]]:
        """(K, free): K is kernel_basis(), and free lists the non-pivot
        columns of the echelon form.  Column k of K is 1 on row free[k],
        0 on the other free rows and below free[k], so K restricted to the
        rows free is the identity."""
        f = self.field
        ech, pivots = self._echelon()
        pivset = set(pivots)
        free = [c for c in range(self.cols) if c not in pivset]
        out = Matrix(f, self.cols, len(free))
        one, nf, ec = f.one(), out.cols, ech.cols
        for k, fc in enumerate(free):
            out.data[fc * nf + k] = one
            col = _negated(ech.data[fc:len(pivots) * ec:ec], f.p)
            for pc, v in zip(pivots, col):
                out.data[pc * nf + k] = v
        return out, free

    def solve(self, b: "Matrix"):
        """Some x with self*x = b (b may have several columns); None if insoluble."""
        if b.rows != self.rows:
            raise ValueError("dimension mismatch in solve")
        f = self.field
        aug = self.hstack(b)
        ech, pivots = aug._echelon()
        # a pivot in the b-part means inconsistency
        for c in pivots:
            if c >= self.cols:
                return None
        x = Matrix(f, self.cols, b.cols)
        for r, pc in enumerate(pivots):
            for j in range(b.cols):
                x.data[pc * x.cols + j] = ech.data[r * ech.cols + self.cols + j]
        return x

    def inverse(self):
        if self.rows != self.cols:
            return None
        x = self.solve(Matrix.identity(self.field, self.rows))
        if x is None:
            return None
        if (self * x != Matrix.identity(self.field, self.rows)):
            return None
        return x

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


class SignedPerm(Matrix):
    """Square signed permutation matrix: column c is +-e_{targets[c]}.

    ``neg[c]`` says whether that entry is -1.  Structural isomorphisms of
    tensor products are exactly these, so products with them are gathers
    and scatters rather than dense multiplications.  The matrix is
    immutable; its dense entries are built only when something reads them
    (``==``, ``rank``, element access), and ``copy()`` is a plain Matrix.
    """

    __slots__ = ("targets", "neg", "_dense")

    def __init__(self, field: Field, targets, neg):
        self.field = field
        self.rows = self.cols = len(targets)
        self.targets = tuple(targets)
        self.neg = tuple(neg)
        self._dense = None

    @property
    def data(self):
        if self._dense is None:
            f, n = self.field, self.cols
            one, minus_one = f.one(), f.of_int(-1)
            d = [f.zero()] * (n * n)
            for c, (r, s) in enumerate(zip(self.targets, self.neg)):
                d[r * n + c] = minus_one if s else one
            self._dense = d
        return self._dense

    def __setitem__(self, rc, v):
        raise TypeError("signed permutation matrices are immutable")

    def is_zero(self):
        return self.rows == 0

    def gather_cols(self, m: Matrix) -> Matrix:
        """m * self: column c is +-(column targets[c] of m)."""
        if isinstance(m, SignedPerm):
            t, s = m.targets, m.neg
            return SignedPerm(self.field, [t[k] for k in self.targets],
                              [s[k] != ng for k, ng in zip(self.targets,
                                                           self.neg)])
        n, targets = m.cols, self.targets
        out = [row[k] for row in m.to_rows() for k in targets]
        for c, ng in enumerate(self.neg):
            if ng:
                out[c::n] = _negated(out[c::n], m.field.p)
        return Matrix._of(m.field, m.rows, n, out)

    def scatter_rows(self, m: Matrix) -> Matrix:
        """self * m: row targets[c] is +-(row c of m)."""
        p, k, data = m.field.p, m.cols, m.data
        rows = [None] * self.rows
        for c, (r, ng) in enumerate(zip(self.targets, self.neg)):
            row = data[c * k:(c + 1) * k]
            rows[r] = _negated(row, p) if ng else row
        return Matrix._of(m.field, self.rows, k,
                          [v for row in rows for v in row])


def _qq_entry(v):
    """v, an int or a Fraction, as a canonical QQ entry."""
    return v.numerator if v.denominator == 1 else v


def _qq_canonical(data: list) -> list:
    """data, a list of ints and Fractions, as canonical QQ entries: the
    list itself when it holds no Fraction, which is checked at C speed."""
    if Fraction not in set(map(type, data)):
        return data
    return [v.numerator if v.denominator == 1 else v for v in data]


def _negated(data: list, p: int) -> list:
    """Entrywise negation over F_p (p > 0) or QQ (p == 0)."""
    if p:
        return [-a % p for a in data]
    return [-a for a in data]


def _matmul(a: Matrix, right: list, oc: int) -> list:
    """Row-major data of a * B before reduction, where right[k] lists the
    nonzero (column, value) pairs of row k of B and B has oc columns.  The
    sums are plain: the caller reduces them ``% p`` over F_p or puts them
    in canonical form over QQ."""
    sd, n = a.data, a.cols
    out = [0] * (a.rows * oc)
    for t in compress(range(len(sd)), sd):
        i, k = divmod(t, n)
        x, base = sd[t], i * oc
        for j, y in right[k]:
            out[base + j] += x * y
    return out


def _rref_mod_p(rows: list, ncols: int, p: int) -> list:
    """Gauss-Jordan on row lists over F_p, in place; returns pivot columns."""
    pivots = []
    r, nrows = 0, len(rows)
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, p)
        tail = [(a * inv) % p for a in rows[r][c:]]
        rows[r][c:] = tail
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                row[c:] = [(a - f * b) % p for a, b in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
    return pivots


def _rref_qq(rows: list, ncols: int) -> list:
    """Gauss-Jordan on row lists over QQ, in place; returns pivot columns.

    Fraction-free: a row holding a Fraction is scaled to integers by the
    lcm of its denominators, and each row is divided by its content (the
    gcd of its entries).  Eliminating with pivot row P at column c replaces
    a row R by (P_c / g) R - (R_c / g) P, g = gcd(P_c, R_c), divided by its
    content again, all on Python ints.  Each pivot row is divided by its
    pivot once at the end: ``x // pv`` where exact, else a Fraction.
    Scaling a row changes neither its span nor the pivots, and reduced row
    echelon form is canonical, so the result is the one that Fraction
    arithmetic would give."""
    for k, row in enumerate(rows):
        if Fraction in set(map(type, row)):
            den = lcm(*[a.denominator for a in row])
            row = [a.numerator * (den // a.denominator) for a in row]
        g = gcd(*row)
        rows[k] = [x // g for x in row] if g > 1 else row
    pivots = []
    r, nrows = 0, len(rows)
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                row = [a * x - b * y for x, y in zip(row, prow)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    # rows from r on are all zero ints: every nonzero row gave a pivot
    for k, c in enumerate(pivots):
        row, pv = rows[k], rows[k][c]
        if pv != 1:
            rows[k] = [Fraction(x, pv) if x % pv else x // pv for x in row]
    return pivots


class Subquotient:
    """A subquotient Z/B of an ambient space, with chosen representative lifts.

    Z and B are given by matrices whose columns span the cycle and boundary
    subspaces; with lead, the first lead columns of Z span boundaries too.
    Z is in kernel form: its restriction to the rows free_rows is the
    identity (checked), so its columns are independent, and a vector v lies
    in span Z exactly when Z v[free] == v.  That holds on the free rows
    already, so it is checked on the others, and the coordinates of v are
    then v[free].  The boundary coordinates C are unit columns for the lead
    columns and, for B, read off this way (B in span Z is checked).

    Z is read once, at construction: one pass over its nonzero entries
    checks the identity on the free rows and keeps the others column by
    column.  A membership test then visits only the nonzero coordinates of
    v and the stored entries of their columns, and compares the sums it
    finds with v entry by entry; v has no other nonzero entry off the free
    rows exactly when the counts of nonzero entries agree.  No rows of v
    other than the free ones are copied, and no dense product is formed.

    rep_basis columns are the first columns of Z that are independent
    modulo B (deterministic tie-breaking by column index).  They are the
    pivot columns in the identity part of one echelon of ``[C | 1]``, which
    has a row per coordinate rather than per ambient dimension, less the
    coordinates that a column of C with a single nonzero entry already puts
    in span C.  The rows of that echelon whose pivots are rep columns,
    scattered onto those coordinates, are ``reduction``, the matrix R
    (dim x |free|) that takes the coordinates of a cycle to those of its
    class in the rep basis: they vanish on span C and are the identity on
    the rep columns.  So ``reduce`` is a membership check and one product
    with R, with no solve.
    """

    # _keep: the rep columns of Z; _b: the coordinates of the columns of B;
    # _z_ptr, _z_rows, _z_vals: Z off the free rows, column-sparse; the
    # nonzero entries of column c are _z_vals[u] on the rows _z_rows[u],
    # for u in range(_z_ptr[c], _z_ptr[c + 1])
    __slots__ = ("field", "ambient_dim", "cycle_basis", "rep_basis", "dim",
                 "free_rows", "reduction", "_keep", "_lead", "_b", "_z_ptr",
                 "_z_rows", "_z_vals")

    def __init__(self, Z: Matrix, B: Matrix, free_rows: list, lead: int = 0):
        if Z.rows != B.rows:
            raise ValueError("ambient dimension mismatch")
        if Z.field != B.field:
            raise ValueError("field mismatch")
        if not 0 <= lead <= Z.cols:
            raise ValueError("lead exceeds the cycle columns")
        j, zd = Z.cols, Z.data
        at = {i: c for c, i in enumerate(free_rows)}
        rows, vals = [[] for _ in range(j)], [[] for _ in range(j)]
        units = stray = 0
        for t in compress(range(len(zd)), zd):
            i, c = divmod(t, j)
            if i not in at:
                rows[c].append(i)
                vals[c].append(zd[t])
            elif at[i] == c and zd[t] == 1:
                units += 1
            else:
                stray += 1
        # j unit entries on distinct free rows, one per column, and no
        # other nonzero entry there
        if len(free_rows) != j or units != j or stray:
            raise ValueError("cycle basis is not the identity on the "
                             "given rows")
        self.field = Z.field
        self.ambient_dim = Z.rows
        self.cycle_basis = Z
        self.free_rows = free_rows
        self._z_ptr = list(accumulate(map(len, rows), initial=0))
        self._z_rows = list(chain.from_iterable(rows))
        self._z_vals = list(chain.from_iterable(vals))
        self._lead = lead
        self._b = self._coordinates(
            B, "boundary span not contained in cycle span")
        self._keep, self.reduction = _reduction_in_coordinates(self._b, lead)
        self.dim = len(self._keep)
        self.rep_basis = Z.take_cols(self._keep)

    @property
    def boundary_coords(self) -> Matrix:
        """C, the coordinates of the boundary generators in the columns of
        Z."""
        j = self.cycle_basis.cols
        return Matrix.identity(self.field, j).get_block(
            0, 0, j, self._lead).hstack(self._b)

    @property
    def boundary_basis(self) -> Matrix:
        """Columns spanning B in ambient coordinates: Z C."""
        return self.cycle_basis * self.boundary_coords

    def _coordinates(self, v: Matrix, message: str) -> Matrix:
        """The coordinates x = v[free] of the columns of v, which must lie
        in span Z (ValueError(message) otherwise): Z x == v, decided on the
        rows off the free ones by summing only over the nonzero entries of
        x."""
        if v.rows != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        x = v.take_rows(self.free_rows)
        m, vd, xd = v.cols, v.data, x.data
        ptr, rows, vals = self._z_ptr, self._z_rows, self._z_vals
        sums: dict = {}
        for s in compress(range(len(xd)), xd):
            c, k = divmod(s, m)
            y = xd[s]
            for u in range(ptr[c], ptr[c + 1]):
                t = rows[u] * m + k
                sums[t] = sums.get(t, 0) + vals[u] * y
        p, hits = self.field.p, 0
        for t, a in sums.items():
            if p:
                a %= p
            if a != vd[t]:
                raise ValueError(message)
            if a:
                hits += 1
        # the nonzero entries of v off the free rows are len(vd) -
        # vd.count(0) less those of x; each must be one of the hits
        if len(vd) - vd.count(0) - len(xd) + xd.count(0) != hits:
            raise ValueError(message)
        return x

    def reduce(self, v: Matrix) -> Matrix:
        """Coordinates of [v] in the rep basis; v must lie in span(Z)."""
        return self.reduction * self._coordinates(
            v, "vector not in the cycle span")


def _reduction_in_coordinates(coords: Matrix, lead: int):
    """(rep columns, R) for the subquotient of the coordinate space F^j,
    j = coords.rows, by the span of the first lead unit vectors and the
    columns of coords; see Subquotient."""
    f, j, bc = coords.field, coords.rows, coords.cols
    # a coordinate column with one nonzero entry puts that coordinate in
    # span C outright; the others count modulo those, so those rows go
    cd = coords.data
    spanned = set(range(lead))
    spanned.update(next(compress(range(j), col))
                   for col in (cd[b::bc] for b in range(bc))
                   if col.count(0) == j - 1)
    rest = [i for i in range(j) if i not in spanned]
    part, ident = coords.take_rows(rest), Matrix.identity(f, len(rest))
    if part.is_zero():
        keep, rows = rest, ident.to_rows()
    else:
        ech, pivots = part.hstack(ident)._echelon()
        keep = [rest[c - bc] for c in pivots if c >= bc]
        rows = [ech.row(k)[bc:]
                for k in range(len(pivots) - len(keep), len(pivots))]
    red = [0] * (len(keep) * j)
    for k, row in enumerate(rows):
        for i, v in zip(rest, row):
            red[k * j + i] = v
    return keep, Matrix._of(f, len(keep), j, red)


class BlockLinearSystem:
    """Sparse linear system in unknown matrix blocks.

    Equations are matrix identities sum_t scalar_t * L_t * X_{v_t} * R_t = RHS,
    one per registered equation block.  Used for homotopy solving and for
    sampling morphisms from linear constraint spaces.
    """

    def __init__(self, field: Field):
        self.field = field
        self._vars: dict = {}
        self._var_order: list = []
        self._eqs: dict = {}
        self._eq_order: list = []
        self._terms: list = []

    def variable(self, key, rows: int, cols: int):
        if key in self._vars:
            if self._vars[key] != (rows, cols):
                raise ValueError("variable re-registered with another shape")
            return
        self._vars[key] = (rows, cols)
        self._var_order.append(key)

    def equation(self, key, rows: int, cols: int):
        if key in self._eqs:
            if (self._eqs[key][0], self._eqs[key][1]) != (rows, cols):
                raise ValueError("equation re-registered with another shape")
            return
        self._eqs[key] = (rows, cols, Matrix.zero(self.field, rows, cols))
        self._eq_order.append(key)

    def add_term(self, eq_key, var_key, left: Matrix | None,
                 right: Matrix | None, scalar=1):
        if eq_key not in self._eqs or var_key not in self._vars:
            raise KeyError("unregistered equation or variable")
        self._terms.append((eq_key, var_key, left, right,
                            self.field.of_int(scalar) if isinstance(scalar, int)
                            else scalar))

    def add_rhs(self, eq_key, mat: Matrix, scalar=1):
        rows, cols, acc = self._eqs[eq_key]
        if mat.rows != rows or mat.cols != cols:
            raise ValueError("rhs shape mismatch")
        c = self.field.of_int(scalar) if isinstance(scalar, int) else scalar
        self._eqs[eq_key] = (rows, cols, acc + mat.scale(c))

    def _offsets(self):
        voff, n = {}, 0
        for k in self._var_order:
            r, c = self._vars[k]
            voff[k] = n
            n += r * c
        eoff, m = {}, 0
        for k in self._eq_order:
            r, c, _ = self._eqs[k]
            eoff[k] = m
            m += r * c
        return voff, n, eoff, m

    def assemble(self):
        f = self.field
        voff, nvars, eoff, _ = self._offsets()
        coeff: dict[tuple[int, int], object] = {}
        for eq_key, var_key, left, right, scalar in self._terms:
            er, ec, _ = self._eqs[eq_key]
            vr, vc = self._vars[var_key]
            if left is not None and (left.rows != er or left.cols != vr):
                raise ValueError("left factor shape mismatch")
            if right is not None and (right.rows != vc or right.cols != ec):
                raise ValueError("right factor shape mismatch")
            if left is None and er != vr:
                raise ValueError("identity left factor shape mismatch")
            if right is None and ec != vc:
                raise ValueError("identity right factor shape mismatch")
            for r in range(er):
                for c in range(ec):
                    row = eoff[eq_key] + r * ec + c
                    for a in range(vr):
                        lv = (f.one() if r == a else f.zero()) if left is None \
                            else left[r, a]
                        if not lv:
                            continue
                        for b in range(vc):
                            rv = (f.one() if b == c else f.zero()) if right is None \
                                else right[b, c]
                            if not rv:
                                continue
                            col = voff[var_key] + a * vc + b
                            v = f.mul(scalar, f.mul(lv, rv))
                            key = (row, col)
                            coeff[key] = f.add(coeff.get(key, f.zero()), v)
        # equation blocks stacked in order, each flattened row-major
        rhs = [v for k in self._eq_order for v in self._eqs[k][2].data]
        # drop rows that are identically zero on both sides
        live = sorted({r for (r, _) in coeff} | {r for r, v in enumerate(rhs)
                                                 if v})
        remap = {r: k for k, r in enumerate(live)}
        mat = Matrix.zero(f, len(live), nvars)
        for (r, c), v in coeff.items():
            if v:
                mat[remap[r], c] = v
        b = Matrix(f, len(live), 1, [rhs[r] for r in live])
        return mat, b, voff, nvars

    def solve(self):
        """A particular solution as {var_key: Matrix}, or None."""
        mat, b, voff, nvars = self.assemble()
        x = mat.solve(b)
        if x is None:
            return None
        return self._unflatten(x, voff)

    def solution_space(self):
        """(particular, kernel_columns) where each kernel column unflattens
        to a dict; None if the system is inconsistent."""
        mat, b, voff, nvars = self.assemble()
        x = mat.solve(b)
        if x is None:
            return None
        ker = mat.kernel_basis()
        cols = [self._unflatten(ker.take_cols([c]), voff) for c in range(ker.cols)]
        return self._unflatten(x, voff), cols

    def _unflatten(self, x: Matrix, voff):
        out = {}
        for k in self._var_order:
            r, c = self._vars[k]
            out[k] = Matrix(self.field, r, c,
                            x.get_block(voff[k], 0, r * c, 1).data)
        return out


def induced_map(f: Matrix, src: Subquotient, dst: Subquotient) -> Matrix:
    """Matrix of the map induced by f on rep bases.

    Requires f(span Z_src) <= span Z_dst and f(span B_src) <= span B_dst
    (checked), which is exactly well-definedness on the subquotient.  Both
    are read in the coordinates of dst, with no solve: x, the coordinates
    of f Z_src, exist exactly when the first holds; the second then holds
    exactly when R_dst kills x C_src, the coordinates of f B_src.  The
    result is R_dst x on the rep columns of src.
    """
    if f.cols != src.ambient_dim or f.rows != dst.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    x = dst._coordinates(f * src.cycle_basis,
                         "map does not send cycles to cycles")
    if not (dst.reduction * (x * src.boundary_coords)).is_zero():
        raise ValueError("map does not send boundaries to boundaries")
    return dst.reduction * x.take_cols(src._keep)
