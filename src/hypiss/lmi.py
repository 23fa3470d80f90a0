"""Affine symmetric-matrix inequality systems over structured decision
variables.

A problem is a set of square matrices, affine in the scalar entries of
scalar / diagonal / full variables, each constrained to be
negative semidefinite shifted by -eps*I or positive semidefinite shifted by
+eps*I.  A builder writes each matrix as a plain numpy formula over the
variable matrices, symmetric blocks assembled by `sym_block`, and `affine`
reads its constant and one coefficient per entry off one evaluation of the
formula on a stack of unit entries, in canonical form (exactly symmetric,
terms sorted by entry, zero terms dropped).

`vectorize` compiles a problem into its one evaluated form, StandardForm:
every constraint becomes a block F(x) = F0 + sum_i x_i F_i >= eps I over
one flat entry vector x, the standard form of Boyd, El Ghaoui, Feron and
Balakrishnan (*Linear Matrix Inequalities in System and Control Theory*,
1994).  Every block is a dense symmetric matrix, whatever its structure:
the interior-point solver (`sdp`) treats each one, a diagonal one
included, as one positive semidefinite cone.  `restate` poses one
constraint of a form again, with the same per-constraint code, which is
the only reader of a constraint's sense and eps.  The solver and the
margin re-check both read those blocks at the same x, and
StandardForm.pack / unpack convert between x and per-variable matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from . import linalg

SCALAR = "scalar"
DIAGONAL = "diagonal"
FULL = "full"
_KINDS = (SCALAR, DIAGONAL, FULL)

LEQ = "leq"  # expr <= -eps*I
GEQ = "geq"  # expr >= +eps*I

DEFAULT_EPS = 1e-6

EntryRef = tuple[str, int]


@dataclass(frozen=True)
class VarSpec:
    """Shape declaration for one decision variable.

    Entry order: scalar has the single entry 0; diagonal variables list the
    diagonal; full variables are row-major.
    """

    name: str
    kind: str
    rows: int
    cols: int

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ValueError("variable name must be a nonempty string")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"variable {self.name}: dimensions must be positive")
        if self.kind in (SCALAR, DIAGONAL) and self.rows != self.cols:
            raise ValueError(f"variable {self.name}: {self.kind} variables are square")
        if self.kind == SCALAR and self.rows != 1:
            raise ValueError(f"variable {self.name}: scalar variables are 1x1")

    @staticmethod
    def scalar(name: str) -> "VarSpec":
        return VarSpec(name, SCALAR, 1, 1)

    @staticmethod
    def diagonal(name: str, n: int) -> "VarSpec":
        return VarSpec(name, DIAGONAL, n, n)

    @staticmethod
    def full(name: str, rows: int, cols: int) -> "VarSpec":
        return VarSpec(name, FULL, rows, cols)

    @property
    def n_entries(self) -> int:
        return self.rows if self.kind == DIAGONAL else self.rows * self.cols

    def matrix_from_entries(self, entries) -> np.ndarray:
        e = np.asarray(entries, dtype=float)
        if e.shape != (self.n_entries,):
            raise ValueError(
                f"variable {self.name}: expected {self.n_entries} entries, got {e.shape}")
        return np.diag(e) if self.kind == DIAGONAL else e.reshape(self.rows, self.cols).copy()

    def entries_from_matrix(self, a) -> np.ndarray:
        m = np.asarray(a, dtype=float)
        if m.shape != (self.rows, self.cols):
            raise ValueError(
                f"variable {self.name}: expected a {self.rows}x{self.cols} matrix, "
                f"got shape {m.shape}")
        if self.kind != DIAGONAL:
            return m.flatten()
        # not == 0, so that a NaN off the diagonal is refused too
        if not np.all(m[~np.eye(self.rows, dtype=bool)] == 0.0):
            raise ValueError(f"variable {self.name}: diagonal, but an entry off the "
                             "diagonal is not 0")
        return np.diagonal(m).copy()


@dataclass(frozen=True)
class Affine:
    """A square matrix affine in variable entries, in the canonical form
    that `affine` gives it: const + sum over coeffs of entry * coefficient,
    the constant and every coefficient exactly symmetric, the terms sorted
    by (variable name, entry index), no zero coefficient."""

    shape: tuple[int, int]
    const: np.ndarray
    coeffs: dict[EntryRef, np.ndarray]


def affine(variables, linear, const=None) -> Affine:
    """The affine matrix F(x) = const + linear(x) in standard form, its
    coefficient of each entry F_i the linear part at the unit entry e_i.

    ``linear(*stacks)`` is called once, with one stack per variable (in the
    order given) along a leading axis: slice k holds the variables' values
    at the k-th unit entry of them all, the last slice all zero.  Written
    in numpy operations that broadcast over that axis (``w.swapaxes(-1,
    -2)`` for a transpose), the formula of a block reads as the block.  The
    constant and each coefficient are made exactly symmetric, (A + A^T)/2,
    and zero coefficients are dropped.  ``const`` defaults to zero, and a
    linear part that is not zero at zero (a constant written into it) or a
    result that is not square raises ValueError."""
    total = sum(v.n_entries for v in variables)
    stacks, refs = [], []
    for spec in variables:
        stack = np.zeros((total + 1, spec.rows, spec.cols))
        k = np.arange(spec.n_entries)
        place = k * (spec.cols + 1) if spec.kind == DIAGONAL else k
        stack.reshape(total + 1, -1)[len(refs) + k, place] = 1.0
        stacks.append(stack)
        refs += [(spec.name, i) for i in range(spec.n_entries)]
    lin = np.asarray(linear(*stacks), dtype=float)
    base = np.zeros(lin.shape[-2:]) if const is None else np.asarray(const, dtype=float)
    if base.ndim != 2 or base.shape[0] != base.shape[1]:
        raise ValueError(f"an affine matrix must be square, got shape {base.shape}")
    lin = np.broadcast_to(lin, (total + 1,) + base.shape)
    if np.any(lin[total] != 0.0):
        raise ValueError("the linear part is not zero at zero; "
                         "its constant belongs in const")
    sym = (lin[:total] + lin[:total].swapaxes(-1, -2)) / 2.0
    kept = np.any(sym != 0.0, axis=(1, 2)).tolist()
    coeffs = {refs[k]: sym[k] for k in sorted(range(total), key=refs.__getitem__) if kept[k]}
    return Affine(base.shape, (base + base.T) / 2.0, coeffs)


def sym_block(rows: list[list]) -> np.ndarray:
    """The symmetric block matrix of an upper triangle of blocks, over the
    leading (stack) axes the blocks broadcast to.

    ``rows[i][j]`` for j >= i gives the (i, j) block as an array, or None
    for a zero block above the diagonal.  Blocks below the diagonal must be
    None and are filled with the transposed mirror blocks.
    """
    nb = len(rows)
    if any(len(r) != nb for r in rows):
        raise ValueError("block description must be a square list of lists")
    for i in range(nb):
        if any(rows[i][j] is not None for j in range(i)):
            raise ValueError("blocks below the diagonal must be None (mirrored)")
        if rows[i][i] is None:
            raise ValueError("diagonal blocks are required")
    blocks = {(i, j): np.asarray(b, dtype=float) for i, row in enumerate(rows)
              for j, b in enumerate(row) if b is not None}
    sizes = [blocks[i, i].shape[-1] for i in range(nb)]
    offs = [0, *accumulate(sizes)]
    lead = np.broadcast_shapes(*(b.shape[:-2] for b in blocks.values()))
    out = np.zeros(lead + (offs[-1], offs[-1]))
    for (i, j), b in blocks.items():
        if b.shape[-2:] != (sizes[i], sizes[j]):
            raise ValueError(
                f"block ({i},{j}) has shape {b.shape[-2:]}, expected {(sizes[i], sizes[j])}")
        r, c = slice(offs[i], offs[i + 1]), slice(offs[j], offs[j + 1])
        out[..., r, c] = b
        if i != j:
            out[..., c, r] = b.swapaxes(-1, -2)
    return out


@dataclass(frozen=True)
class Constraint:
    """One semidefinite constraint: expr <= -eps*I or expr >= +eps*I.

    The expression is an `affine` matrix, in its canonical form.
    ``eps=None`` defers to the problem-wide slack; an explicit value (0.0
    included) overrides it for this constraint alone.
    """

    expr: Affine
    sense: str
    label: str = ""
    eps: float | None = None

    def __post_init__(self):
        if self.sense not in (LEQ, GEQ):
            raise ValueError(f"unknown constraint sense {self.sense!r}")
        # not >=, so that a NaN slack is refused too
        if self.eps is not None and not self.eps >= 0.0:
            raise ValueError("constraint eps must be nonnegative")


@dataclass(frozen=True)
class LmiProblem:
    variables: tuple[VarSpec, ...]
    constraints: tuple[Constraint, ...]
    objective: tuple[tuple[EntryRef, float], ...] | None = None
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not self.eps >= 0.0:
            raise ValueError("problem eps must be nonnegative")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        declared = {v.name: v.n_entries for v in self.variables}

        def check_ref(ref, where):
            name, idx = ref
            if name not in declared:
                raise ValueError(f"{where} references undeclared variable {name!r}")
            if not 0 <= idx < declared[name]:
                raise ValueError(f"{where} references entry {idx} of {name!r} "
                                 f"(has {declared[name]} entries)")

        for k, con in enumerate(self.constraints):
            where = con.label or f"constraint {k}"
            for ref in con.expr.coeffs:
                check_ref(ref, where)
        if self.objective is not None:
            obj = tuple(sorted(((r, float(w)) for r, w in dict(self.objective).items())))
            object.__setattr__(self, "objective", obj)
            for ref, _ in obj:
                check_ref(ref, "objective")


@dataclass(frozen=True)
class StandardBlock:
    """One constraint over the flat entry vector x: it holds at x when
    value(x) = base + sum_k x[idx[k]] coeffs[k] >= eps I.

    The sense is folded into the sign of base and coeffs, so expr <= -eps I
    arrives as -expr >= eps I; eps stays a field of its own.
    """

    label: str
    dim: int
    base: np.ndarray
    idx: np.ndarray
    coeffs: np.ndarray
    eps: float

    def value(self, x: np.ndarray) -> np.ndarray:
        """base + sum_k x[idx[k]] coeffs[k], summed term by term in
        coefficient order; exactly symmetric, like base and coeffs."""
        out = self.base.copy()
        for k, coeff in zip(self.idx.tolist(), self.coeffs):
            out += x[k] * coeff
        return out


@dataclass(frozen=True)
class StandardForm:
    """A whole problem over one flat entry vector x: the variables' entries
    in declaration order, one block per constraint in declaration order,
    and the objective as a vector over x (None without one)."""

    refs: tuple[EntryRef, ...]
    objective: np.ndarray | None
    blocks: tuple[StandardBlock, ...]
    variables: tuple[VarSpec, ...]

    @property
    def n(self) -> int:
        return len(self.refs)

    def pack(self, values: dict) -> np.ndarray:
        """The entry vector of per-variable values, by name: a matrix of the
        variable's shape or, for all but full variables, its flat entries.
        A missing or unknown variable, a wrong shape, a non-finite entry or
        an entry off a diagonal variable's diagonal that is not 0 raises
        ValueError."""
        unknown = sorted(set(values) - {spec.name for spec in self.variables})
        if unknown:
            raise ValueError(f"no variable named {unknown[0]!r} in this form")
        parts = []
        for spec in self.variables:
            if spec.name not in values:
                raise ValueError(f"no value given for variable {spec.name!r}")
            v = np.asarray(values[spec.name], dtype=float)
            if v.ndim <= 1 and spec.kind != FULL:
                flat = np.atleast_1d(v)
                if flat.shape != (spec.n_entries,):
                    raise ValueError(
                        f"variable {spec.name}: expected {spec.n_entries} entries, "
                        f"got shape {v.shape}")
            else:
                flat = spec.entries_from_matrix(v)
            if not np.all(np.isfinite(flat)):
                raise ValueError(f"variable {spec.name}: non-finite entries")
            parts.append(flat)
        return np.concatenate(parts) if parts else np.zeros(0)

    def unpack(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """The entry vector as one matrix per variable, by name."""
        out, pos = {}, 0
        for spec in self.variables:
            out[spec.name] = spec.matrix_from_entries(x[pos:pos + spec.n_entries])
            pos += spec.n_entries
        return out


def _standard_block(con: Constraint, index: dict[EntryRef, int], eps: float) -> StandardBlock:
    """The block of one constraint over the entries index (entry -> place
    in x), in a problem posed with slack eps."""
    e = con.expr
    dim = e.shape[0]
    sign = -1.0 if con.sense == LEQ else 1.0
    coeffs = (np.stack(list(e.coeffs.values()))
              if e.coeffs else np.zeros((0, dim, dim)))
    return StandardBlock(
        label=con.label,
        dim=dim,
        base=sign * e.const,
        idx=np.array([index[r] for r in e.coeffs], dtype=int),
        coeffs=sign * coeffs,
        eps=eps if con.eps is None else con.eps,
    )


def vectorize(problem: LmiProblem) -> StandardForm:
    """Compile the problem to its standard form (see StandardBlock)."""
    refs = [(spec.name, k) for spec in problem.variables for k in range(spec.n_entries)]
    index = {r: i for i, r in enumerate(refs)}
    blocks = [_standard_block(con, index, problem.eps) for con in problem.constraints]

    obj = None
    if problem.objective is not None:
        obj = np.zeros(len(refs))
        for ref, w in problem.objective:
            obj[index[ref]] += w

    return StandardForm(
        refs=tuple(refs),
        objective=obj,
        blocks=tuple(blocks),
        variables=problem.variables,
    )


def restate(sf: StandardForm, con: Constraint, eps: float) -> StandardForm:
    """The standard form sf with its block of con's label posed again from
    con, as `vectorize` poses it in a problem with slack eps; the entry
    vector, the objective and every other block are sf's own objects.  So a
    family of problems that differ in one constraint is vectorized once and
    restated per member, and each member is the same bits as its own
    `vectorize`.  Raises ValueError when sf has no block of that label, when
    con reads an entry that sf does not have, or when eps is not >= 0."""
    if not eps >= 0.0:
        raise ValueError("problem eps must be nonnegative")
    at = [k for k, blk in enumerate(sf.blocks) if blk.label == con.label]
    if len(at) != 1:
        raise ValueError(f"expected one block labelled {con.label!r}, found {len(at)}")
    index = {r: i for i, r in enumerate(sf.refs)}
    unknown = [r for r in con.expr.coeffs if r not in index]
    if unknown:
        raise ValueError(f"{con.label} references entry {unknown[0]!r}, not in this form")
    blocks = list(sf.blocks)
    blocks[at[0]] = _standard_block(con, index, eps)
    return replace(sf, blocks=tuple(blocks))


def margin(block: StandardBlock, x: np.ndarray) -> float:
    """Signed slack of one block at x, min_eig(value(x)) - eps by
    `linalg.sym_eig`; positive means strictly satisfied."""
    return float(linalg.sym_eig([linalg.SymMatrix(block.value(x))])[0][0]) - block.eps


def margins_batch(points) -> list[list[float]]:
    """The margin of every block of each (standard form, x) pair, in
    declaration order, from one stacked eigendecomposition of all the
    values (`linalg.sym_eig`); a block's margin does not depend on the
    other pairs.  Raises `linalg.ConvergenceError` when a value fails the
    eigensolver's in-package checks."""
    points = list(points)
    lows = iter(linalg.sym_eig([linalg.SymMatrix(blk.value(x))
                                for sf, x in points for blk in sf.blocks]))
    return [[float(next(lows)[0]) - blk.eps for blk in sf.blocks] for sf, _ in points]


def problem_margins(sf: StandardForm, x: np.ndarray) -> list[float]:
    """The margin of every block at x, in declaration order: margins_batch
    of one pair."""
    return margins_batch([(sf, x)])[0]
