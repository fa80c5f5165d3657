"""Even integral lattices: embeddings, complements, saturation, isotropic quotients.

Vectors are plain tuples of ints, always expressed in the basis of the lattice
they belong to.  A sublattice embedding stores the images of the source basis
as the columns of an integer matrix over the target basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, isqrt
from operator import mul

from . import matrices as mx
from .errors import (
    DegenerateEmbeddingError,
    LatticeError,
    NotIsotropicError,
    RankMismatchError,
)

Vector = tuple[int, ...]


@dataclass(frozen=True)
class IntegralLattice:
    """Finite-rank lattice given by a symmetric integer Gram matrix."""

    gram: mx.Matrix

    def __post_init__(self):
        g = mx.freeze(self.gram)
        object.__setattr__(self, "gram", g)
        if not mx.is_symmetric(g):
            raise LatticeError("Gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def det(self) -> int:
        """Signed determinant of the Gram matrix (1 for rank 0)."""
        return mx.det(self.gram)

    @property
    def disc_abs(self) -> int:
        return abs(self.det)

    @property
    def is_nondegenerate(self) -> bool:
        return self.det != 0

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def pairing(self, x: Vector, y: Vector) -> int:
        if len(x) != self.rank or len(y) != self.rank:
            raise RankMismatchError("vector length does not match lattice rank")
        return sum(xi * sum(map(mul, row, y)) for xi, row in zip(x, self.gram) if xi)

    def norm(self, x: Vector) -> int:
        return self.pairing(x, x)


def direct_sum(a: IntegralLattice, b: IntegralLattice) -> IntegralLattice:
    n, m = a.rank, b.rank
    rows = [list(row) + [0] * m for row in a.gram]
    rows += [[0] * n + list(row) for row in b.gram]
    return IntegralLattice(mx.freeze(rows))


def hyperbolic_plane() -> IntegralLattice:
    """The rank-2 even unimodular lattice U with Gram [[0,1],[1,0]]."""
    return IntegralLattice(((0, 1), (1, 0)))


def rank_one(norm: int) -> IntegralLattice:
    return IntegralLattice(((norm,),))


def polarization_lattice(n: int) -> IntegralLattice:
    """The lattice <2n> + U in the fixed basis (e, f, g).

    Models Z + Z*H + Z*omega for a degree-2n polarization class H.
    """
    if n < 1:
        raise LatticeError("polarization degree parameter must be positive")
    return IntegralLattice(((2 * n, 0, 0), (0, 0, 1), (0, 1, 0)))


@dataclass(frozen=True)
class SublatticeEmbedding:
    """Isometric embedding of a source lattice into a target lattice.

    `matrix` is target-rank x source-rank; column j holds the target
    coordinates of the j-th source basis vector.
    """

    source: IntegralLattice
    target: IntegralLattice
    matrix: mx.Matrix

    def __post_init__(self):
        m = mx.freeze(self.matrix)
        object.__setattr__(self, "matrix", m)
        rows, cols = mx.shape(m)
        if rows != self.target.rank or cols != self.source.rank:
            raise RankMismatchError(
                f"embedding matrix is {rows}x{cols}, expected "
                f"{self.target.rank}x{self.source.rank}"
            )
        induced = mx.mat_mul(mx.mat_mul(mx.transpose(m), self.target.gram), m)
        if induced != self.source.gram:
            raise LatticeError("embedding does not preserve the bilinear form")

    def column(self, j: int) -> Vector:
        return tuple(self.matrix[i][j] for i in range(self.target.rank))

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.source.rank)]


def identity_embedding(lattice: IntegralLattice) -> SublatticeEmbedding:
    return SublatticeEmbedding(lattice, lattice, mx.identity(lattice.rank))


def is_primitive_sublattice(emb: SublatticeEmbedding) -> bool:
    """True when the image is saturated, i.e. all Smith invariants equal 1.

    The invariants are the nonzero entries among the first min(rows, cols)
    on the diagonal of the Smith normal form; raises
    `DegenerateEmbeddingError` when there are fewer than the source rank.
    """
    _, s, _ = mx.smith_normal_form(emb.matrix)
    invariants = [s[i][i] for i in range(min(mx.shape(s))) if s[i][i]]
    if len(invariants) < emb.source.rank:
        raise DegenerateEmbeddingError("embedding matrix is rank-deficient")
    return all(d == 1 for d in invariants)


def is_primitive_pair(matrix: mx.Matrix) -> bool:
    """True when the two columns of the k x 2 `matrix` span a primitive rank-2
    sublattice.

    The gcd of the 2 x 2 minors is d1*d2, the product of the two Smith
    invariants (0 when the rank is below 2), so the columns are primitive of
    rank 2 exactly when it is 1; the scan stops as soon as it is.  Raises
    `ValueError` unless every row has two entries.
    """
    if any(len(row) != 2 for row in matrix):
        raise ValueError("is_primitive_pair needs a matrix with two columns")
    g = 0
    for i, (a, b) in enumerate(matrix):
        for c, d in matrix[i + 1:]:
            g = gcd(g, a * d - b * c)
            if g == 1:
                return True
    return False


def sublattice(target: IntegralLattice, columns) -> SublatticeEmbedding:
    """Embedding of the abstract lattice spanned by `columns` inside `target`."""
    cols = [tuple(c) for c in columns]
    matrix = mx.transpose(mx.freeze(cols)) if cols else tuple(() for _ in range(target.rank))
    gram = tuple(
        tuple(target.pairing(x, y) for y in cols) for x in cols
    )
    return SublatticeEmbedding(IntegralLattice(gram), target, matrix)


def orthogonal_complement(
    lattice: IntegralLattice, vectors
) -> SublatticeEmbedding:
    """Saturated sublattice of everything orthogonal to the given vectors."""
    if not lattice.is_nondegenerate:
        raise LatticeError("orthogonal complement requires a nondegenerate lattice")
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        return identity_embedding(lattice)
    constraints = mx.freeze([mx.mat_vec(lattice.gram, v) for v in vecs])
    return sublattice(lattice, mx.transpose(mx.kernel_basis(constraints)))


def saturation(emb: SublatticeEmbedding) -> SublatticeEmbedding:
    """Replace the image by (image tensor Q) intersected with the target."""
    if is_primitive_sublattice(emb):
        return emb
    # The saturation is the double annihilator of the column span.
    left = mx.kernel_basis(mx.transpose(emb.matrix))
    if not left[0]:
        # Full rank: nothing annihilates the span, so it saturates to the target.
        return sublattice(emb.target, mx.identity(emb.target.rank))
    return sublattice(emb.target, mx.transpose(mx.kernel_basis(mx.transpose(left))))


def index_of_sublattice(lattice: IntegralLattice, emb: SublatticeEmbedding) -> int:
    """Index [lattice : image] of a full-rank sublattice."""
    if emb.target != lattice:
        raise RankMismatchError("embedding target is not the given lattice")
    if emb.source.rank != lattice.rank:
        raise RankMismatchError("sublattice is not of full rank")
    d = mx.det(emb.matrix)
    if d == 0:
        raise DegenerateEmbeddingError("embedding matrix is singular")
    return abs(d)


def is_primitive_vector(x: Vector) -> bool:
    return gcd(*x) == 1


def quotient_by_isotropic(lattice: IntegralLattice, v: Vector) -> IntegralLattice:
    """The lattice v_perp / Z*v with its induced form, for primitive isotropic v.

    v is completed to a unimodular basis T (T*e1 = v), in which the Gram
    matrix G' = T^t G T has G'[0][0] = v.v = 0.  So v_perp is Z*e1 plus the
    integer kernel K of the single row G'[0][1:] on the other coordinates,
    and v_perp / Z*v is K with the Gram matrix K^t G'[1:, 1:] K.  Both T and
    the canonical kernel basis are deterministic, so the output is too.
    """
    v = tuple(v)
    if not is_primitive_vector(v):
        raise NotIsotropicError("vector must be primitive in the lattice")
    if lattice.norm(v) != 0:
        raise NotIsotropicError("vector must be isotropic")
    if not lattice.is_nondegenerate:
        raise LatticeError("orthogonal complement requires a nondegenerate lattice")
    t = mx.complete_primitive_column(v)
    g = mx.mat_mul(mx.mat_mul(mx.transpose(t), lattice.gram), t)
    rest = IntegralLattice(tuple(row[1:] for row in g[1:]))
    kernel = mx.kernel_basis((g[0][1:],))
    cols = mx.transpose(kernel)
    gram = tuple(tuple(rest.pairing(x, y) for y in cols) for x in cols)
    return IntegralLattice(gram)


def enumerate_vectors(
    lattice: IntegralLattice, norm: int, coeff_bound: int
) -> list[Vector]:
    """All x with <x,x> = norm and every |coordinate| <= coeff_bound.

    Complete within the coefficient box only; indefinite lattices have
    infinitely many vectors of a given norm outside any box.  Output is in
    lexicographic order over the box.  Only the (2B+1)^(r-1) prefixes of the
    first r-1 coordinates are scanned, for B = coeff_bound and r the rank:
    with a prefix fixed the norm is a quadratic in the last coordinate, whose
    integer roots in the box are solved for rather than searched.  The
    prefixes are walked in lexicographic order with running sums: fixing one
    more coordinate t updates the prefix's norm and its pairings G*h with the
    coordinates still free by t times one Gram row, instead of summing the
    O(r^2) terms afresh at each prefix.
    """
    if coeff_bound < 1:
        raise LatticeError("coefficient bound must be at least 1")
    n = lattice.rank
    if n == 0:
        return [()] if norm == 0 else []
    last = n - 1
    gram = lattice.gram
    a = gram[last][last]
    if last == 0:
        return [(z,) for z in _box_roots(a, 0, -norm, coeff_bound)]
    rng = range(-coeff_bound, coeff_bound + 1)
    out = []

    def walk(prefix: Vector, head: int, partial: list[int]) -> None:
        # head = h^t G h for the fixed prefix h; partial[j] = (G h)[k + j] for
        # the coordinates k = len(prefix), ..., last that are still free.
        k = len(prefix)
        row = gram[k]
        diag, p = row[k], partial[0]
        if k == last - 1:
            # The last prefix coordinate: solve for z at each t directly.
            l0, coupling = partial[1], row[last]
            for t in rng:
                for z in _box_roots(a, l0 + t * coupling, head + t * (2 * p + t * diag) - norm,
                                    coeff_bound):
                    out.append(prefix + (t, z))
            return
        rest, tail = row[k + 1:], partial[1:]
        for t in rng:
            walk(prefix + (t,), head + t * (2 * p + t * diag),
                 [x + t * g for x, g in zip(tail, rest)])

    walk((), 0, [0] * n)
    return out


def _box_roots(a: int, l: int, c: int, bound: int):
    """Integers z with a*z^2 + 2*l*z + c = 0 and |z| <= bound, ascending."""
    if a == 0:
        if l == 0:
            return range(-bound, bound + 1) if c == 0 else ()
        z, r = divmod(-c, 2 * l)
        return (z,) if r == 0 and -bound <= z <= bound else ()
    disc = l * l - a * c
    if disc < 0:
        return ()
    s = isqrt(disc)
    if s * s != disc:
        return ()
    roots = []
    for num in {-l - s, -l + s}:
        z, r = divmod(num, a)
        if r == 0 and -bound <= z <= bound:
            roots.append(z)
    return sorted(roots)
