"""Shared test machinery: random matrices and configurations, plus the
basis-change and reordering transformations used by the invariance tests."""

from __future__ import annotations

import ast
import copy
import inspect
import json
import random
from itertools import combinations

from vancoh import (Branch, CurveComponent, EigenvalueData, IntegerMatrix, IntPolynomial,
                    IsolatedPoint, SliceConfiguration, SpecialPoint, branch_kernel, linalg,
                    matrix, model, parse_configuration, serialize_configuration)
from vancoh.corpus import bundled
from vancoh.linalg import rank as matrix_rank

import oracles


def load_corpus(name: str) -> SliceConfiguration:
    result = parse_configuration(json.loads(dict(bundled())[name].read_text()))
    assert result.configuration is not None and not result.violations
    return result.configuration


def document_slots(doc):
    """Every (container, key) position of a decoded document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield doc, key
        yield from document_slots(value)


def corpus_documents() -> list[dict]:
    """The decoded corpus documents, then a copy of each with `polar_data`,
    a `costalk_rank` at every special point and `monodromy_data` holding
    two `eigen_dims` and two `jordan_sizes` entries."""
    docs = [json.loads(path.read_text()) for _, path in bundled()]
    filled = copy.deepcopy(docs)
    for doc in filled:
        ncomp = len(doc["components"])
        doc["polar_data"] = [[1, 0], [0, 1]]
        for q in doc["special_points"]:
            q["costalk_rank"] = q.get("costalk_rank", 0)
        entries = [{"eigenvalue": "1", "total": 1, "components": [1] * ncomp},
                   {"eigenvalue": "-1", "total": 0, "components": [0] * ncomp}]
        doc["monodromy_data"] = {"char_poly": [-1, 1], "component_char_polys": [[-1, 1]] * ncomp,
                                 "eigen_dims": entries, "jordan_sizes": copy.deepcopy(entries)}
    return docs + filled


ODD_VALUES = (None, True, -1, 0, 7, 2.5, "", "S1", [], [[]], [1, True], [[1], [1, 2]],
              [[1, 0], [0, 1.5]], {}, [{}], {"id": "S1"})


def mutated_document(rng: random.Random, docs: list[dict]) -> dict:
    """A copy of one of `docs` after 0-5 edits, each one of: delete a key,
    add an unknown key, append to a list (a copy of one of its items or an
    odd value), or replace a value with an odd one from `ODD_VALUES`."""
    doc = copy.deepcopy(rng.choice(docs))
    for _ in range(rng.randrange(6)):
        slots = list(document_slots(doc))
        op = rng.randrange(4)
        odd = copy.deepcopy(rng.choice(ODD_VALUES))
        if op == 0:
            keyed = [(c, k) for c, k in slots if isinstance(c, dict)]
            if keyed:
                container, key = rng.choice(keyed)
                del container[key]
        elif op == 1:
            dicts = [doc] + [c[k] for c, k in slots if isinstance(c[k], dict)]
            rng.choice(dicts)[f"extra{rng.randrange(3)}"] = odd
        elif op == 2:
            lists = [c[k] for c, k in slots if isinstance(c[k], list)]
            if lists:
                target = rng.choice(lists)
                if target and rng.getrandbits(1):
                    odd = copy.deepcopy(rng.choice(target))
                target.append(odd)
        elif slots:
            container, key = rng.choice(slots)
            container[key] = odd
    return doc


def emitted_codes() -> set[str]:
    """Every code `model._validate` can emit, read off the module source: the
    literal first argument of each `Violation(...)` call, and each
    `f"{kind}-..."` template filled with every `kind` passed to
    `_check_monodromy`."""
    calls = [node for node in ast.walk(ast.parse(inspect.getsource(model)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    kinds = [call.args[3].value for call in calls if call.func.id == "_check_monodromy"]
    codes = set()
    for call in calls:
        if call.func.id == "Violation":
            code = call.args[0]
            if isinstance(code, ast.JoinedStr):
                codes.update(kind + code.values[1].value for kind in kinds)
            else:
                codes.add(code.value)
    return codes


def _with_monodromy(**changes):
    return lambda cfg: cfg._replace(monodromy_data=cfg.monodromy_data._replace(**changes))


def _with_s1(**changes):
    return lambda cfg: cfg._replace(components=(cfg.components[0]._replace(**changes),)
                                    + cfg.components[1:])


def _with_q1(**changes):
    return lambda cfg: cfg._replace(special_points=(cfg.special_points[0]._replace(**changes),))


def _with_branch0(**changes):
    def mutate(cfg):
        q = cfg.special_points[0]
        branches = (q.branches[0]._replace(**changes),) + q.branches[1:]
        return _with_q1(branches=branches)(cfg)
    return mutate


# One mutation of xyz per row, each giving exactly the one violation listed;
# together the rows reach every code `validate` can emit.
SINGLE_FAULTS = {
    "original_s-range": (lambda cfg: cfg._replace(original_n=2, original_s=1),
                         [("dimension-range", "original_s")]),
    "dimension-reduction": (lambda cfg: cfg._replace(n=4), [("dimension-reduction", "n")]),
    "duplicate-id": (lambda cfg: cfg._replace(isolated_points=(IsolatedPoint("S1", 0),)),
                     [("duplicate-id", "S1")]),
    # the branch of S1 is checked against neither rank of a repeated S1
    "duplicate-component-id": (lambda cfg: cfg._replace(monodromy_data=None, components=(
                                   *cfg.components,
                                   CurveComponent("S1", 0, 2, (IntegerMatrix.identity(2),)))),
                               [("duplicate-id", "S1")]),
    # nor are the loops of either copy counted against the branches of S1
    "duplicate-component-id-no-loops": (lambda cfg: cfg._replace(monodromy_data=None, components=(
                                            *cfg.components, CurveComponent("S1", 0, 2, ()))),
                                        [("duplicate-id", "S1")]),
    "negative-genus": (_with_s1(genus=-1), [("negative-genus", "S1")]),
    "transversal-rank-0": (_with_s1(transversal_rank=0), [("transversal-rank", "S1")]),
    "transversal-rank-negative": (_with_s1(transversal_rank=-1), [("transversal-rank", "S1")]),
    "loop-shape": (_with_s1(loop_monodromies=(matrix([[1, 0]]),)),
                   [("loop-shape", "S1[loop 0]")]),
    "loop-not-unimodular": (_with_s1(loop_monodromies=(matrix([[2]]),)),
                            [("loop-not-unimodular", "S1[loop 0]")]),
    "loop-count": (_with_s1(loop_monodromies=()), [("loop-count", "S1")]),
    "loop-count-extra": (_with_s1(loop_monodromies=(matrix([[1]]),) * 2),  # its one loop, twice
                         [("loop-count", "S1")]),
    "branch-shape": (_with_branch0(monodromy=matrix([[1, 0]])),
                     [("branch-shape", "q1[branch 0]")]),
    "branch-not-unimodular": (_with_branch0(monodromy=matrix([[2]])),
                              [("branch-not-unimodular", "q1[branch 0]")]),
    "unknown-component": (lambda cfg: _with_branch0(component_id="S9")(
                              _with_s1(loop_monodromies=())(cfg)),
                          [("unknown-component", "q1[branch 0]")]),
    "negative-fq-low": (_with_q1(fq_rank_low=-1), [("negative-rank", "q1")]),
    "negative-fq-high": (_with_q1(fq_rank_high=-1), [("negative-rank", "q1")]),
    "negative-costalk": (_with_q1(costalk_rank=-1), [("negative-rank", "q1")]),
    "iota-shape": (_with_q1(iota=matrix([[1, 0], [-1, 1]])), [("iota-shape", "q1")]),
    "iota-not-injective": (_with_q1(iota=matrix([[1, 1], [-1, -1], [0, 0]])),
                           [("iota-not-injective", "q1")]),
    "negative-milnor": (lambda cfg: cfg._replace(isolated_points=(IsolatedPoint("r1", -1),)),
                        [("negative-rank", "r1")]),
    "polar-length": (lambda cfg: cfg._replace(polar_data=((1, 0),) * 3),
                     [("polar-length", "polar_data")]),
    "polar-negative": (lambda cfg: cfg._replace(polar_data=((3, -1),)),
                       [("polar-negative", "polar_data[0]")]),
    "zero-char-poly": (_with_monodromy(char_poly=IntPolynomial(())),
                       [("zero-polynomial", "monodromy_data.char_poly")]),
    "zero-component-char-poly": (
        _with_monodromy(component_char_polys=(
            IntPolynomial((-1, 1)), IntPolynomial(()), IntPolynomial((-1, 1)))),
        [("zero-polynomial", "monodromy_data.component_char_polys[1]")]),
    "char-poly-count": (_with_monodromy(component_char_polys=(IntPolynomial((-1, 1)),) * 2),
                        [("char-poly-count", "monodromy_data")]),
    "negative-eigen-total": (_with_monodromy(eigen_dims=(EigenvalueData("1", -1, (1, 1, 1)),)),
                             [("negative-rank", "monodromy_data.eigen_dims[1]")]),
    "negative-jordan-component": (
        _with_monodromy(jordan_sizes=(EigenvalueData("1", 1, (1, -1, 1)),)),
        [("negative-rank", "monodromy_data.jordan_sizes[1]")]),
    "eigenvalue-count": (_with_monodromy(jordan_sizes=(EigenvalueData("1", 1, (1, 1)),)),
                         [("eigenvalue-count", "monodromy_data.jordan_sizes[1]")]),
    "duplicate-eigen-label": (
        _with_monodromy(eigen_dims=(EigenvalueData("1", 9, (1, 1, 1)),
                                    EigenvalueData("1", 0, (1, 1, 1)))),
        [("duplicate-eigenvalue", "monodromy_data.eigen_dims[1]")]),
    "duplicate-jordan-label": (
        _with_monodromy(jordan_sizes=(EigenvalueData("1", 1, (1, 1, 1)),
                                      EigenvalueData("-1", 0, (0, 0, 0)),
                                      EigenvalueData("1", 1, (1, 1, 1)))),
        [("duplicate-eigenvalue", "monodromy_data.jordan_sizes[1]")]),
}


def diagonal_of(d: IntegerMatrix) -> list[int]:
    return [d.data[i][i] for i in range(min(d.rows, d.cols))]


def hstack(matrices: list[IntegerMatrix]) -> IntegerMatrix:
    """Matrices of equal height side by side."""
    rows = matrices[0].rows
    assert all(m.rows == rows for m in matrices), "hstack row mismatch"
    data = tuple(sum(parts, ()) for parts in zip(*(m.data for m in matrices)))
    return IntegerMatrix(rows, sum(m.cols for m in matrices), data)


def vstack(matrices: list[IntegerMatrix]) -> IntegerMatrix:
    """Matrices of equal width one above the other."""
    cols = matrices[0].cols
    assert all(m.cols == cols for m in matrices), "vstack column mismatch"
    return IntegerMatrix(sum(m.rows for m in matrices), cols,
                         tuple(row for m in matrices for row in m.data))


def scaled(m: IntegerMatrix, c: int) -> IntegerMatrix:
    """Every entry of ``m`` times ``c``."""
    return IntegerMatrix(m.rows, m.cols, tuple(tuple(c * x for x in r) for r in m.data))


def rand_matrix(rng: random.Random, rows: int, cols: int, bound: int) -> IntegerMatrix:
    return IntegerMatrix(rows, cols, tuple(tuple(rng.randint(-bound, bound) for _ in range(cols))
                                           for _ in range(rows)))


def rand_unimodular(rng: random.Random, n: int, bound: int = 3) -> IntegerMatrix:
    """Random determinant +-1 matrix with entries bounded by `bound`,
    built from row swaps, sign flips and bounded shear steps."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randrange(0, 4 * n + 1)):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            m[i], m[j] = m[j], m[i]
        elif op == 1:
            m[i] = [-x for x in m[i]]
        elif op == 2 and i != j:
            c = rng.choice((-1, 1))
            candidate = [x + c * y for x, y in zip(m[i], m[j])]
            if max(abs(x) for x in candidate) <= bound:
                m[i] = candidate
    return matrix(m)


def rank_deficient(m):
    """``m`` with its last row replaced by the first plus the second last."""
    rows = list(m.data[:-1])
    return matrix(rows + [[x + y for x, y in zip(rows[0], rows[-1])]])


def differential_cases():
    """Seeded random matrices, their unimodular conjugates, unimodular
    matrices, the empty shapes, an all-zero matrix, and stacks with entries
    up to 2^64: the [m; I] that kernel eliminates, the [A B; I 0] that
    intersect eliminates, and [A B; A 0]."""
    rng = random.Random(43)
    cases = [IntegerMatrix.zeros(r, c) for r, c in [(0, 0), (0, 1), (0, 5), (1, 0), (6, 0)]]
    while len(cases) < 240:
        r, c = rng.randint(1, 12), rng.randint(1, 16)
        m = rand_matrix(rng, r, c, 9)
        if r > 1 and rng.random() < 0.3:
            m = rank_deficient(m)
        cases.append(m)
        cases.append(rand_unimodular(rng, r) * m * rand_unimodular(rng, c))
        if r == c or rng.random() < 0.2:
            cases.append(rand_unimodular(rng, r))
    cases.append(IntegerMatrix.zeros(4, 3))
    rng = random.Random(45)
    big = 2 ** 64
    for _ in range(15):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 6), big)
        if m.rows > 1 and rng.random() < 0.4:
            m = rank_deficient(m)
        cases.append(vstack([m, IntegerMatrix.identity(m.cols)]))
    for _ in range(15):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        a, b = rand_matrix(rng, r, c, big), rand_matrix(rng, r, c, big)
        if r > 1 and rng.random() < 0.5:
            a = rank_deficient(a)
        cases.append(vstack([hstack([a, b]), hstack([a, IntegerMatrix.zeros(r, c)])]))
    for _ in range(15):
        r, ca, cb = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a, b = rand_matrix(rng, r, ca, big), rand_matrix(rng, r, cb, big)
        if r > 1 and rng.random() < 0.5:
            a = rank_deficient(a)
        cases.append(vstack([hstack([a, b]), hstack([IntegerMatrix.identity(ca),
                                                     IntegerMatrix.zeros(ca, cb)])]))
    return cases


def sparse_cases():
    """Mostly-zero matrices: the rows of j for 4 and 5 generic planes, laid
    out by the reference, and 12 seeded matrices up to 24x20 with about 85%
    zero entries, each beside the [m; I] stack that kernel eliminates.  A
    nonzero entry is up to 2^64 one time in four and up to 9 otherwise,
    which keeps the Smith route of the differential table fast."""
    cases = [IntegerMatrix(len(rows), len(rows[0]), tuple(map(tuple, rows)))
             for rows in (oracles.reference(arrangement_config(m))[0] for m in (4, 5))]
    rng = random.Random(46)

    def entry():
        if rng.random() >= 0.15:
            return 0
        bound = 2 ** 64 if rng.random() < 0.25 else 9
        return rng.randint(-bound, bound)

    for _ in range(12):
        r, c = rng.randint(1, 24), rng.randint(1, 20)
        m = IntegerMatrix(r, c, tuple(tuple(entry() for _ in range(c)) for _ in range(r)))
        cases += [m, vstack([m, IntegerMatrix.identity(c)])]
    return cases


def exact_inverse(m: IntegerMatrix) -> IntegerMatrix:
    """Inverse of a unimodular matrix, solved over Q column by column and
    checked integral."""
    n = m.rows
    cols = [oracles.rational_solve(m.tolist(), [int(i == j) for i in range(n)])
            for j in range(n)]
    assert all(x.denominator == 1 for col in cols for x in col)
    return matrix([[int(col[i]) for col in cols] for i in range(n)])


def random_valid_config(rng: random.Random, max_components: int = 3,
                        max_points: int = 3, max_rank: int = 4,
                        bound: int = 3, with_costalk: bool = False) -> SliceConfiguration:
    """Generate a configuration that passes validation by construction.

    Branch monodromies are reused as the corresponding loop generators, so
    the invariant submodule automatically lies in every branch kernel.  The
    draws are not validated here: `test_random_draws_are_valid` in
    `tests/test_engine.py` checks those the two tables read, so a validation
    fault fails that check by name, not every table's setup.
    """
    s = rng.randrange(2, 4)
    n = rng.randrange(3, 6)
    ncomp = rng.randrange(1, max_components + 1)
    ranks = [rng.randrange(1, max_rank + 1) for _ in range(ncomp)]
    genera = [rng.randrange(0, 2) for _ in range(ncomp)]
    ids = [f"S{i + 1}" for i in range(ncomp)]

    npoints = rng.randrange(0, max_points + 1)
    point_branches: list[list[tuple[int, IntegerMatrix]]] = []
    for _ in range(npoints):
        nb = rng.randrange(1, 4)
        slots = []
        for _ in range(nb):
            ci = rng.randrange(ncomp)
            slots.append((ci, rand_unimodular(rng, ranks[ci], bound)))
        point_branches.append(slots)

    components = []
    for i in range(ncomp):
        loops = [rand_unimodular(rng, ranks[i], bound) for _ in range(2 * genera[i])]
        for slots in point_branches:
            loops.extend(mon for ci, mon in slots if ci == i)
        components.append(CurveComponent(ids[i], genera[i], ranks[i], tuple(loops)))

    points = []
    for qi, slots in enumerate(point_branches):
        branches = tuple(Branch(ids[ci], mon) for ci, mon in slots)
        kernel_rows = sum(branch_kernel(b).rank for b in branches)
        fq_low = rng.randrange(0, kernel_rows + 1)
        while True:
            iota = rand_matrix(rng, kernel_rows, fq_low, bound)
            if matrix_rank(iota) == fq_low:
                break
        fq_high = rng.randrange(0, 4)
        costalk = rng.randrange(0, 3) if with_costalk else None
        points.append(SpecialPoint(f"q{qi + 1}", branches, fq_low, fq_high, iota, costalk))

    isolated = tuple(IsolatedPoint(f"r{k + 1}", rng.randrange(0, 5))
                     for k in range(rng.randrange(0, 3)))

    return SliceConfiguration(
        n=n, original_n=n + s - 2, original_s=s,
        components=tuple(components),
        special_points=tuple(points),
        isolated_points=isolated,
    )


def dense_iota_config(rng: random.Random, mu: int, f1: int, f2: int, shared: int,
                      bound: int = 9) -> SliceConfiguration:
    """One rank-`mu` component with identity monodromies through two special
    points, one branch each, whose iotas are dense random `mu` x `f1` and
    `mu` x `f2` blocks with entries up to `bound`; the second repeats the
    first's leading `shared` columns.  Identity monodromies make every
    kernel the whole Z^mu, so the canonical bases are standard; the caller
    checks that the iotas drawn are injective."""
    iota1 = rand_matrix(rng, mu, f1, bound)
    iota2 = hstack([IntegerMatrix(mu, shared, tuple(r[:shared] for r in iota1.data)),
                    rand_matrix(rng, mu, f2 - shared, bound)])
    ident = IntegerMatrix.identity(mu)
    return SliceConfiguration(
        n=3, original_n=3, original_s=2,
        components=(CurveComponent("S", 0, mu, (ident, ident)),),
        special_points=tuple(
            SpecialPoint(f"q{k}", (Branch("S", ident),), iota.cols, 0, iota)
            for k, iota in enumerate((iota1, iota2))),
        isolated_points=())


def arrangement_document(m: int) -> dict:
    """The configuration document of m >= 3 planes in general position
    through a line of C^4, sliced to m generic lines S_i_j (the pairwise
    intersections, transversal type A1, genus 0, one loop [[1]] per
    point on them) meeting three at a time in the triple points q_i_j_k,
    each locally xyz = 0.  Its lowest group is Z^(m-1), the first Betti
    number of the Milnor fiber of a generic arrangement (Orlik and
    Randell, "The Milnor fiber of a generic arrangement", 1993); m = 3 and
    m = 4 are the corpus germs xyz and xyzu.

    The sign pattern of iota is derived, not chosen.  Orient the vanishing
    circle of S_a_b, a < b, as the loop on which x_a turns once forwards
    and x_b once backwards; the branch monodromies are trivial, so this
    is one orientation along the whole line.  At q_i_j_k, with i < j < k,
    the Milnor fiber x_i x_j x_k = 1 is a 2-torus with H_1 spanned by the
    loops g_i and g_j on which x_i or x_j turns and x_k compensates.  The
    circles of S_i_j, S_i_k and S_j_k are g_i - g_j, g_i and g_j, so the
    restriction to the three branches maps H^1 onto {a - b + c = 0},
    which the columns of [[1, 0], [1, 1], [0, 1]] span.  A pattern that
    no orientation of the lines produces gives wrong answers: xyz's own
    iota at every point gives Z^0 from m = 5 on.

    Built as plain JSON data: nothing here reaches vancoh."""
    lines = list(combinations(range(1, m + 1), 2))
    return {
        "n": 3, "original_n": 3, "original_s": 2,
        "components": [{"id": f"S_{a}_{b}", "genus": 0, "transversal_rank": 1,
                        "loop_monodromies": [[[1]]] * (m - 2)} for a, b in lines],
        "special_points": [
            {"id": f"q_{i}_{j}_{k}",
             "branches": [{"component_id": f"S_{a}_{b}", "monodromy": [[1]]}
                          for a, b in ((i, j), (i, k), (j, k))],
             "fq_rank_low": 2, "fq_rank_high": 1, "costalk_rank": 1,
             "iota": [[1, 0], [1, 1], [0, 1]]}
            for i, j, k in combinations(range(1, m + 1), 3)],
        "isolated_points": [],
    }


def arrangement_config(m: int) -> SliceConfiguration:
    result = parse_configuration(arrangement_document(m))
    assert result.configuration is not None and not result.violations
    return result.configuration


def _iota_blocks(q: SpecialPoint) -> list[tuple[Branch, IntegerMatrix]]:
    blocks = []
    row0 = 0
    for b in q.branches:
        r = branch_kernel(b).rank
        block = IntegerMatrix(r, q.iota.cols,
                              tuple(q.iota.data[row0 + i] for i in range(r)))
        blocks.append((b, block))
        row0 += r
    return blocks


def conjugate_component(cfg: SliceConfiguration, component_id: str,
                        u: IntegerMatrix) -> SliceConfiguration:
    """Apply the basis change `u` to one component's transversal module.

    All loop and branch monodromies of the component are conjugated, and the
    affected iota row blocks are rewritten in the new canonical kernel bases.
    The result describes the same geometry in different coordinates.  The
    kernel bases and the new coordinates come from the oracles, not `linalg`.
    """
    u_inv = exact_inverse(u)
    components = tuple(
        c._replace(loop_monodromies=tuple(u * nu * u_inv for nu in c.loop_monodromies))
        if c.id == component_id else c
        for c in cfg.components)

    points = []
    for q in cfg.special_points:
        new_branches = []
        new_blocks = []
        for b, block in _iota_blocks(q):
            if b.component_id != component_id:
                new_branches.append(b)
                new_blocks.append(block)
                continue
            nb = Branch(b.component_id, u * b.monodromy * u_inv)
            old, new = (oracles.kernel_basis(m.shifted(-1).tolist(), m.cols)
                        for m in (b.monodromy, nb.monodromy))
            coords = [oracles.rational_solve(new, list(target))
                      for target in zip(*(u * matrix(old) * block).data)]
            assert all(x is not None and all(c.denominator == 1 for c in x) for x in coords), \
                "conjugated kernel lost a vector"
            new_branches.append(nb)
            # conjugation keeps the kernel's rank, so the block keeps its shape
            new_blocks.append(IntegerMatrix(block.rows, block.cols, tuple(
                tuple(int(x[i]) for x in coords) for i in range(block.rows))))
        if new_blocks:
            new_iota = vstack(new_blocks)
        else:
            new_iota = IntegerMatrix.zeros(0, q.fq_rank_low)
        points.append(q._replace(branches=tuple(new_branches), iota=new_iota))
    return cfg._replace(components=components, special_points=tuple(points))


def permute_config(cfg: SliceConfiguration, rng: random.Random) -> SliceConfiguration:
    """Reorder components, special points, branches within each point (with
    the matching iota row-block permutation), and isolated points."""
    components = list(cfg.components)
    rng.shuffle(components)

    points = []
    for q in cfg.special_points:
        blocks = _iota_blocks(q)
        rng.shuffle(blocks)
        branches = tuple(b for b, _ in blocks)
        if blocks:
            iota = vstack([blk for _, blk in blocks])
        else:
            iota = IntegerMatrix.zeros(0, q.fq_rank_low)
        points.append(q._replace(branches=branches, iota=iota))
    rng.shuffle(points)

    isolated = list(cfg.isolated_points)
    rng.shuffle(isolated)

    return cfg._replace(components=tuple(components), special_points=tuple(points),
                        isolated_points=tuple(isolated))


def report_signature(rep) -> tuple:
    """Everything a basis change or reordering must leave unchanged."""
    return (
        rep.lowest_group,
        rep.lowest_degree,
        rep.original_degree,
        rep.g_rank,
        tuple(sorted(rep.i0_contribution)),
        tuple(sorted((c.component_id, c.invariants.rank, c.coker, c.euler)
                     for c in rep.components)),
        rep.euler_total,
        (rep.six_term.lowest_pair, rep.six_term.domain, rep.six_term.codomain,
         rep.six_term.top_pair, rep.six_term.middle, rep.six_term.branch_coker,
         rep.six_term.consistent),
        (rep.bounds.upper_lowest, rep.bounds.lower_lowest, rep.bounds.min_bound,
         rep.bounds.betti_high, rep.bounds.polar),
        rep.shortcut_agrees,
    )


def count_calls(monkeypatch, module, name) -> list:
    """Wrap module.name for the test; the returned list collects each
    call's positional arguments; keyword arguments are passed on unrecorded."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    return calls


def record_echelons(monkeypatch) -> list:
    """Wrap linalg._echelon for the test; the returned list collects each
    call's columns as a list of tuples, copied before the elimination runs,
    since a generator argument is used up by the call."""
    calls = []
    original = linalg._echelon

    def recording(columns):
        calls.append([tuple(c) for c in columns])
        return original(calls[-1])

    monkeypatch.setattr(linalg, "_echelon", recording)
    return calls


def _edit_one(rng: random.Random, doc) -> None:
    """Set one integer to -1, 0 or 2, one string to another string of the
    document, or empty one list."""
    slots = [(c, k) for c, k in document_slots(doc) if type(c[k]) in (int, str, list)]
    if not slots:
        return
    container, key = rng.choice(slots)
    value = container[key]
    if type(value) is int:
        container[key] = rng.choice((-1, 0, 2))
    elif isinstance(value, str):
        container[key] = rng.choice([c[k] for c, k in slots if isinstance(c[k], str)])
    else:
        value.clear()


def _edit_component(rng: random.Random, doc, repeat: bool) -> None:
    """Set one component's rank to 0, -1 or -2, or repeat it under its id,
    keeping a prefix of its loops."""
    components = doc.get("components") if isinstance(doc, dict) else None
    named = ([c for c in components if isinstance(c, dict) and isinstance(c.get("id"), str)]
             if isinstance(components, list) else [])
    if not named:
        return
    if not repeat:
        rng.choice(named)["transversal_rank"] = rng.choice((0, -1, -2))
        return
    twin = copy.deepcopy(rng.choice(named))
    loops = twin.get("loop_monodromies")
    if isinstance(loops, list):
        del loops[rng.randrange(len(loops) + 1):]
    components.insert(rng.randrange(len(components) + 1), twin)


# where `pipeline_documents()` holds its `random_valid_config` draws
PIPELINE_DRAWS = slice(1000, 1150)


def pipeline_documents(seed: int = 1200) -> list[bytes]:
    """The seeded document set of the command line's document table
    (`tests/test_cli.py`, source `pipeline`), as file bytes; its valid
    documents are also a source of the engine's input table.  It holds
    `mutated_document` draws; corpus documents and mutants with one
    integer, string or list edited, with one component's rank set to 0, -1
    or -2, or with one component repeated under its id; and serialized
    `random_valid_config` and `dense_iota_config` draws, the last of them
    with more iota columns than rows, so not injective; and one document
    whose loop and branch monodromies are inconsistent."""
    rng = random.Random(seed)
    docs = corpus_documents()
    out = [mutated_document(rng, docs) for _ in range(400)]
    for k in range(600):
        doc = mutated_document(rng, docs) if k % 5 == 4 else copy.deepcopy(rng.choice(docs))
        if k % 3:
            _edit_component(rng, doc, repeat=k % 3 == 2)
        else:
            _edit_one(rng, doc)
        out.append(doc)
    out += [serialize_configuration(random_valid_config(rng, max_rank=5, with_costalk=bool(k % 2)))
            for k in range(150)]
    out += [serialize_configuration(dense_iota_config(rng, mu, mu - 2, mu - 3, 2))
            for mu in (6, 8, 10)]
    out.append(serialize_configuration(dense_iota_config(rng, 4, 5, 3, 2)))
    # T fails at q1 and S at q2: an internal defect, named at q1, where the walk meets it
    out.append({"n": 3, "original_n": 3, "original_s": 2, "isolated_points": [],
                "components": [{"id": c, "genus": 0, "transversal_rank": 1,
                                "loop_monodromies": [[[1]]]} for c in "ST"],
                "special_points": [{"id": q, "fq_rank_low": 0, "fq_rank_high": 0, "iota": [],
                                    "branches": [{"component_id": c, "monodromy": [[-1]]}]}
                                   for q, c in (("q1", "T"), ("q2", "S"))]})
    return [json.dumps(doc).encode() for doc in out]
