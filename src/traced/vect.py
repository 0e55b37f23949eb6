"""Finite-dimensional exact linear algebra instances.

FinVect is the category of finite-dimensional rational vector spaces;
SuperVect adds a Z/2 grading with the signed switching
x (x) y -> (-1)^{|x||y|} y (x) x on homogeneous vectors, with morphisms
restricted to grading-preserving (even) maps.

Both are implemented on a common chassis: an object is the tuple of degrees
of its basis vectors, in basis order, and a morphism is a sparse rational
matrix whose entries connect equal degrees only.  Tensor products flatten
indices row-major, which makes the monoidal structure strict on the nose:

    index(e_i (x) f_j) = i * dim(Y) + j          for X (x) Y
    degree(e_i (x) f_j) = deg(e_i) + deg(f_j)

Duals reuse the same index set with negated degrees, so ev and coev are the
plain index pairings 1 |-> sum_i e_i (x) e^i and e^i (x) e_j |-> delta_ij.

Degree arithmetic works on whole objects: tensor_obj, dual_obj and the
recovery of Y in alpha build the integer degree tuple in one pass and hand it
to one instance hook, _reduce_degrees, which maps it into the grading group
(all zeros for FinVect, mod 2 for SuperVect, unchanged for GradedVect).
Structural scalars are evaluated once per distinct degree pair: the
switching s_{X,Y} scales the pair (m, n) by _switch_scalar(m, n), which is
1 in FinVect, (-1)^{mn} in SuperVect and q^{mn + m^2} in GradedVect.
"""

from __future__ import annotations

from math import lcm

from .core import CategoryInstance, DirectSum, Morphism, ObjectRef, instance_of
from .errors import DomainMismatch, NotEndo
from .matrices import RatMatrix, over_common_denominator
from .thickened import ThickTriple, canonical_thickener, psi
from ._rat import rat


def dim(x: ObjectRef) -> int:
    return len(x.payload)


class MatrixCategory(CategoryInstance):
    """Shared machinery for the matrix-backed instances.

    Subclasses fix the degree reduction and the braiding/twist scalars
    (plain ints where they are +-1); everything else (composition, tensor,
    sums, duals) is generic.
    """

    # degree and scalar hooks ----------------------------------------------

    def _reduce_degrees(self, ds: list) -> tuple:
        """A list of integer degrees, reduced into the grading group."""
        return tuple(ds)

    def _braid_scalar(self, a: int, b: int):
        return 1

    def _twist_scalar(self, a: int):
        return 1

    def _switch_scalar(self, a: int, b: int):
        """The scalar of s_{X,Y} on the degree pair (a, b)."""
        return self._braid_scalar(a, b) * self._twist_scalar(a)

    # object and morphism builders ---------------------------------------

    def obj(self, degrees) -> ObjectRef:
        """The object with these int degrees, kept as given (not reduced)."""
        degrees = tuple(degrees)
        for d in degrees:
            if type(d) is not int:
                raise TypeError(f"a degree must be an int, got {d!r}")
        return ObjectRef(self.instance_id, degrees)

    def mor(self, x: ObjectRef, y: ObjectRef, matrix) -> Morphism:
        """Build a morphism x -> y from a RatMatrix or a list of rows.  Both
        ends must lie in the grading group, as tensor_obj and dual_obj keep them."""
        self._own_obj(x)
        self._own_obj(y)
        for end in (x, y):
            if self._reduce_degrees(list(end.payload)) != end.payload:
                raise DomainMismatch(f"object {end.payload!r} has degrees outside the"
                                     f" grading group of {self.instance_id!r}")
        if not isinstance(matrix, RatMatrix):
            matrix = RatMatrix.from_rows(matrix)
        if matrix.rows != dim(y) or matrix.cols != dim(x):
            raise DomainMismatch(
                f"matrix is {matrix.rows}x{matrix.cols}, expected {dim(y)}x{dim(x)}"
            )
        tdeg, sdeg = y.payload, x.payload
        for (i, j) in matrix.num:
            if tdeg[i] != sdeg[j]:
                raise DomainMismatch(
                    f"entry ({i},{j}) connects degree {sdeg[j]} to degree {tdeg[i]}"
                )
        return Morphism(self.instance_id, x, y, matrix)

    def scalar_value(self, f: Morphism):
        if not self.is_scalar(f):
            raise DomainMismatch("not a scalar (I -> I) morphism")
        return f.payload.entry(0, 0)

    # monoidal structure ---------------------------------------------------

    def unit_object(self) -> ObjectRef:
        return self.obj((0,))

    def tensor_obj(self, x: ObjectRef, y: ObjectRef) -> ObjectRef:
        self._own_obj(x)
        self._own_obj(y)
        return ObjectRef(self.instance_id,
                         self._reduce_degrees([a + b for a in x.payload for b in y.payload]))

    def identity(self, x: ObjectRef) -> Morphism:
        self._own_obj(x)
        return Morphism(self.instance_id, x, x, RatMatrix.identity(dim(x)))

    def compose(self, g: Morphism, f: Morphism) -> Morphism:
        self.check_composable(g, f)
        return Morphism(self.instance_id, f.source, g.target, g.payload @ f.payload)

    def tensor(self, f: Morphism, g: Morphism) -> Morphism:
        self._own_mor(f)
        self._own_mor(g)
        return Morphism(
            self.instance_id,
            self.tensor_obj(f.source, g.source),
            self.tensor_obj(f.target, g.target),
            f.payload.kron(g.payload),
        )

    def _swap_matrix(self, x: ObjectRef, y: ObjectRef, scale) -> Morphism:
        """Permutation e_i (x) f_j |-> f_j (x) e_i, entry scaled by scale(dx, dy).

        scale is evaluated once per distinct pair of degrees, and the
        matrix is built over the lcm of the scales' denominators."""
        dx, dy = x.payload, y.payload
        nx, ny = len(dx), len(dy)
        nums, den = over_common_denominator(
            {(a, b): scale(a, b) for a in set(dx) for b in set(dy)})
        ent = {}
        for i in range(nx):
            a = dx[i]
            for j in range(ny):
                v = nums[(a, dy[j])]
                if v:
                    ent[(j * nx + i, i * ny + j)] = v
        return Morphism(
            self.instance_id,
            self.tensor_obj(x, y),
            self.tensor_obj(y, x),
            RatMatrix(nx * ny, nx * ny, ent, den),
        )

    def switching(self, x: ObjectRef, y: ObjectRef) -> Morphism:
        """s_{X,Y} = (id_Y (x) theta_X) . c_{X,Y}; plain braiding when the twist is trivial."""
        self._own_obj(x)
        self._own_obj(y)
        return self._swap_matrix(x, y, self._switch_scalar)

    # braided / balanced ----------------------------------------------------

    def braiding_c(self, x: ObjectRef, y: ObjectRef) -> Morphism:
        self._own_obj(x)
        self._own_obj(y)
        return self._swap_matrix(x, y, self._braid_scalar)

    def braiding_c_inv(self, x: ObjectRef, y: ObjectRef) -> Morphism:
        self._own_obj(x)
        self._own_obj(y)
        return self._swap_matrix(y, x, lambda b, a: 1 / rat(self._braid_scalar(a, b)))

    def twist_theta(self, x: ObjectRef) -> Morphism:
        self._own_obj(x)
        n = dim(x)
        ent = {(i, i): self._twist_scalar(x.payload[i]) for i in range(n)}
        return Morphism(self.instance_id, x, x, RatMatrix(n, n, ent))

    # additive capability -----------------------------------------------------

    def zero_object(self) -> ObjectRef:
        return self.obj(())

    def direct_sum(self, x: ObjectRef, y: ObjectRef) -> DirectSum:
        self._own_obj(x)
        self._own_obj(y)
        nx, ny = dim(x), dim(y)
        s = self.obj(x.payload + y.payload)
        inj1 = self.mor(x, s, RatMatrix(nx + ny, nx, {(i, i): 1 for i in range(nx)}))
        inj2 = self.mor(y, s, RatMatrix(nx + ny, ny, {(nx + j, j): 1 for j in range(ny)}))
        proj1 = self.mor(s, x, RatMatrix(nx, nx + ny, {(i, i): 1 for i in range(nx)}))
        proj2 = self.mor(s, y, RatMatrix(ny, nx + ny, {(j, nx + j): 1 for j in range(ny)}))
        return DirectSum(s, inj1, inj2, proj1, proj2)

    def add_mor(self, f: Morphism, g: Morphism) -> Morphism:
        self._own_mor(f)
        self._own_mor(g)
        if f.source != g.source or f.target != g.target:
            raise DomainMismatch("can only add parallel morphisms")
        return Morphism(self.instance_id, f.source, f.target, f.payload + g.payload)

    def negate_mor(self, f: Morphism) -> Morphism:
        self._own_mor(f)
        return Morphism(self.instance_id, f.source, f.target, -f.payload)

    def zero_mor(self, x: ObjectRef, y: ObjectRef) -> Morphism:
        self._own_obj(x)
        self._own_obj(y)
        return Morphism(self.instance_id, x, y, RatMatrix.zero(dim(y), dim(x)))

    # duals ---------------------------------------------------------------------

    def dual_obj(self, x: ObjectRef) -> ObjectRef:
        self._own_obj(x)
        return ObjectRef(self.instance_id, self._reduce_degrees([-d for d in x.payload]))

    def dual_data(self, x: ObjectRef):
        """(dual, ev, coev) with ev: X* (x) X -> I the index pairing and
        coev: I -> X (x) X* the diagonal element sum_i e_i (x) e^i."""
        xd = self.dual_obj(x)
        n = dim(x)
        unit = self.unit_object()
        ev = self.mor(self.tensor_obj(xd, x), unit,
                      RatMatrix(1, n * n, {(0, i * n + i): 1 for i in range(n)}))
        coev = self.mor(unit, self.tensor_obj(x, xd),
                        RatMatrix(n * n, 1, {(i * n + i, 0): 1 for i in range(n)}))
        return xd, ev, coev

    # traces -----------------------------------------------------------------

    def classical_trace(self, f: Morphism):
        """Sum of diagonal entries of an endomorphism."""
        self._own_mor(f)
        if f.source != f.target:
            raise NotEndo("classical trace needs an endomorphism")
        return f.payload.trace()

    # contraction kernels ---------------------------------------------------
    #
    # Each <op>_kernel takes the arguments of thickened.<op>_composite and
    # returns the same component; the thickened.py docstring states that
    # contract.  With indices flattened row-major, t is the |Y| x |Z| matrix
    # T (row y*|Z| + z) and b the |Z| x |X| matrix B (column z*|X| + x), so
    # each composite is one product, one reshape or one re-indexing of entries.

    def psi_kernel(self, tr) -> Morphism:
        """psi(Z, t, b) = (id_Y (x) b) . (t (x) id_X) as T @ B."""
        nz = dim(tr.z)
        product = tr.t.payload.reshape(dim(tr.cod), nz) @ tr.b.payload.reshape(nz, dim(tr.dom))
        return Morphism(self.instance_id, tr.dom, tr.cod, product)

    def pre_compose_kernel(self, tr, f: Morphism) -> Morphism:
        """b . (id_Z (x) f) as B @ F, flattened back to a row."""
        product = tr.b.payload.reshape(dim(tr.z), dim(tr.dom)) @ f.payload
        return Morphism(self.instance_id, self.tensor_obj(tr.z, f.source), tr.b.target,
                        product.reshape(1, product.rows * product.cols))

    def post_compose_kernel(self, f: Morphism, tr) -> Morphism:
        """(f (x) id_Z) . t as F @ T, flattened back to a column."""
        product = f.payload @ tr.t.payload.reshape(dim(tr.cod), dim(tr.z))
        return Morphism(self.instance_id, tr.t.source, self.tensor_obj(f.target, tr.z),
                        product.reshape(product.rows * product.cols, 1))

    def hat_comp_witness_kernel(self, tr1, tr2) -> Morphism:
        """g = (b1 (x) id_{Z2}) . (id_{Z1} (x) t2): Z1 -> Z2 as (B1 @ T2)^T."""
        b1 = tr1.b.payload.reshape(dim(tr1.z), dim(tr1.dom))
        t2 = tr2.t.payload.reshape(dim(tr2.cod), dim(tr2.z))
        return Morphism(self.instance_id, tr1.z, tr2.z, (b1 @ t2).transpose())

    def add_triples_kernel(self, tr1, tr2) -> ThickTriple:
        """The sum over Z = Z1 (+) Z2 in direct_sum basis order, with both
        summands over the lcm of their denominators: t1's entry y*n1 + z
        moves to y*(n1 + n2) + z and t2's entry y*n2 + z to
        y*(n1 + n2) + n1 + z; b is b1 followed by b2 shifted by n1*|X|."""
        n1, n2, nx, ny = dim(tr1.z), dim(tr2.z), dim(tr1.dom), dim(tr1.cod)
        n = n1 + n2
        t1, t2, b1, b2 = tr1.t.payload, tr2.t.payload, tr1.b.payload, tr2.b.payload
        tden, bden = lcm(t1.den, t2.den), lcm(b1.den, b2.den)
        s1, s2 = tden // t1.den, tden // t2.den
        t = {(i // n1 * n + i % n1, 0): v * s1 for (i, _), v in t1.num.items()}
        t.update({(i // n2 * n + n1 + i % n2, 0): v * s2 for (i, _), v in t2.num.items()})
        s1, s2, shift = bden // b1.den, bden // b2.den, n1 * nx
        b = {(0, j): v * s1 for (_, j), v in b1.num.items()}
        b.update({(0, shift + j): v * s2 for (_, j), v in b2.num.items()})
        z = ObjectRef(self.instance_id, tr1.z.payload + tr2.z.payload)
        unit = tr1.t.source
        return ThickTriple(
            dom=tr1.dom, cod=tr1.cod, z=z,
            t=Morphism(self.instance_id, unit, self.tensor_obj(tr1.cod, z),
                       RatMatrix(ny * n, 1, t, tden)),
            b=Morphism(self.instance_id, self.tensor_obj(z, tr1.dom), unit,
                       RatMatrix(1, n * nx, b, bden)),
        )

    def canonical_thickener_kernel(self, f: Morphism, xd: ObjectRef) -> Morphism:
        """t = (f (x) id_X*) . coev, whose entry y*|X| + x is f[y][x]: f's
        matrix read row-major into a column."""
        m = f.payload
        return Morphism(self.instance_id, self.unit_object(), self.tensor_obj(f.target, xd),
                        m.reshape(m.rows * m.cols, 1))


def _split_cod(inst, t: Morphism, x: ObjectRef, xd: ObjectRef) -> ObjectRef:
    """Recover Y from t: I -> Y (x) X*, given X and its dual."""
    n = dim(x)
    if t.source != inst.unit_object():
        raise DomainMismatch("t must have the unit object as source")
    if n == 0:
        raise DomainMismatch("Y cannot be recovered from t: I -> Y (x) X*"
                             " when X is the zero object")
    if dim(t.target) % n != 0:
        raise DomainMismatch("target of t does not factor as Y (x) X*")
    y = ObjectRef(inst.instance_id,
                  inst._reduce_degrees([d - xd.payload[0] for d in t.target.payload[::n]]))
    if inst.tensor_obj(y, xd) != t.target:
        raise DomainMismatch("target of t does not factor as Y (x) X*")
    return y


def phi(t: Morphism, x: ObjectRef) -> Morphism:
    """Turn t: I -> Y (x) X* into the map X -> Y it represents,
    (id_Y (x) ev) . (t (x) id_X), which is psi of alpha(t, X)."""
    return psi(alpha(t, x))


def phi_inv(f: Morphism) -> Morphism:
    """Inverse of phi on a dualizable source: f |-> (f (x) id_X*) . coev,
    the t of the canonical thickener of f."""
    return canonical_thickener(f).t


def alpha(t: Morphism, x: ObjectRef):
    """Package t: I -> Y (x) X* as the thick triple (X*, t, ev) over dom X."""
    inst = instance_of(t)
    xd, ev, _ = inst.dual_data(x)
    y = _split_cod(inst, t, x, xd)
    return ThickTriple(dom=x, cod=y, z=xd, t=t, b=ev)


class FinVect(MatrixCategory):
    """Finite-dimensional rational vector spaces with the plain swap."""

    instance_id = "finvect"

    def _reduce_degrees(self, ds):
        return (0,) * len(ds)

    def space(self, n: int) -> ObjectRef:
        return self.obj((0,) * n)


class SuperVect(MatrixCategory):
    """Z/2-graded vector spaces with the sign-twisted switching.

    An object records the parity of each basis vector; morphisms are even.
    The switching on homogeneous vectors is x (x) y |-> (-1)^{|x||y|} y (x) x,
    making the instance symmetric; the categorical trace of the canonical
    thickener of f comes out as the super trace classtr(eps . f).
    """

    instance_id = "supervect"

    def _reduce_degrees(self, ds):
        return tuple([d % 2 for d in ds])

    def _braid_scalar(self, a, b):
        return -1 if (a and b) else 1

    def space(self, even: int, odd: int) -> ObjectRef:
        return self.obj((0,) * even + (1,) * odd)

    def grading_involution(self, x: ObjectRef) -> Morphism:
        """eps_X: +1 on even, -1 on odd basis vectors."""
        n = dim(x)
        ent = {(i, i): (-1 if x.payload[i] else 1) for i in range(n)}
        return Morphism(self.instance_id, x, x, RatMatrix(n, n, ent))

    def super_trace(self, f: Morphism):
        """classtr(eps . f)."""
        self._own_mor(f)
        if f.source != f.target:
            raise NotEndo("super trace needs an endomorphism")
        return self.classical_trace(self.compose(self.grading_involution(f.source), f))
