"""Seeded benchmark inputs whose answers are known.

Every document is built here from a seed, together with the outcome the
command line must produce for it.  The answers come from the corpus table
and from this module's own exact integer arithmetic; nothing here calls
``vancoh.linalg``, so the expectations stay independent of the code they
check.

Three workloads:

* ``germ_sums``: the corpus germs, the ``quadric_power_p_q`` grid, and
  k-fold block sums of corpus germs whose rank-1 components are padded and
  then conjugated by random unimodular matrices (``compute``).
* ``dense_iota``: high-rank components whose special points carry dense
  random ``iota`` blocks (``compute``).
* ``validate_mix``: the bytes of both workloads above plus single-fault
  mutants (``validate``), and two hostile documents that are probed
  separately.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "src" / "vancoh" / "corpus"

# Lowest group and rank ledger of each corpus germ, as in vancoh.corpus.
CORPUS_EXPECTED = {
    "xyz": {"group": "Z^2", "domain": 5, "codomain": 3, "kernel": 2, "upper": 3},
    "xyzu": {"group": "Z^3", "domain": 14, "codomain": 12, "kernel": 3, "upper": 6},
    "x2z_y2u": {"group": "0", "domain": 0, "codomain": 0, "kernel": 0, "upper": 0},
    "quadric_power_2_2": {"group": "Z^1", "domain": 1, "codomain": 0, "kernel": 1, "upper": 1},
    "quadric_power_3_2": {"group": "Z^2", "domain": 2, "codomain": 0, "kernel": 2, "upper": 2},
    "quadric_power_2_3": {"group": "Z^2", "domain": 2, "codomain": 0, "kernel": 2, "upper": 2},
}
SUMMAND_GERMS = ("xyz", "xyzu", "x2z_y2u")

# germ_sums ladder: (k, pad rank, documents) per rung, then the quadric grid.
SUM_RUNGS = ((3, 3, 7), (4, 3, 3), (5, 3, 3))
QUADRIC_GRID = tuple((p, q) for p in (2, 3, 4, 5, 6) for q in (2, 3, 4, 5, 6))

# dense_iota ladder: (components, transversal rank, iota columns, documents)
# per rung.  The median falls inside the rank-14 rung and the tail inside
# the rank-18 rung; the single rank-40 document has the 80 x 88 j whose
# entries grow to thousands of bits.
DENSE_RUNGS = ((1, 6, 5, 11), (2, 6, 5, 6), (1, 14, 11, 8), (1, 18, 14, 16), (1, 40, 24, 1))
IOTA_BOUND = 9

# validate_mix mutates documents of these rungs only, so that the mix of
# document sizes, and with it the median and the batch time, does not shift
# from seed to seed.
MUTANT_RUNGS = ("sum-k3-r3", "dense-c1-mu14")

HOSTILE_DIGITS = 4400
HOSTILE_DEPTH = 100_000


# ---------------------------------------------------------------------------
# Exact integer arithmetic of the benchmark's own
# ---------------------------------------------------------------------------

def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def block_diag(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    na, nb = len(a), len(b)
    return ([row + [0] * nb for row in a]
            + [[0] * na + row for row in b])


def rank_q(rows: list[list[int]]) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination.

    ``tests/oracles.py::rational_rank`` gives the same answer with
    ``Fraction`` arithmetic, but about forty times slower on the rank-40
    blocks of ``dense_iota``, which would add seconds to every run's input
    generation; the benchmark's tests check that the two agree.
    """
    a = [list(r) for r in rows if any(r)]
    if not a:
        return 0
    ncols = len(a[0])
    r = 0
    prev = 1
    for col in range(ncols):
        pivot = next((i for i in range(r, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p = a[r][col]
        for i in range(r + 1, len(a)):
            f = a[i][col]
            a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], a[r])]
        prev = p
        r += 1
        if r == len(a):
            break
    return r


def unimodular_pair(rng: random.Random, n: int, steps: int,
                    bound: int) -> tuple[list[list[int]], list[list[int]]]:
    """Random U with |entries| <= bound, and its exact inverse.

    Built from row operations on U; each is undone by the inverse column
    operation on U^-1, so no division is ever needed.
    """
    u = identity(n)
    v = identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(4)
        if op == 0 and i != j:
            u[i], u[j] = u[j], u[i]
            for row in v:
                row[i], row[j] = row[j], row[i]
        elif op == 1:
            u[i] = [-x for x in u[i]]
            for row in v:
                row[i] = -row[i]
        elif i != j:
            c = rng.choice((-1, 1))
            candidate = [x + c * y for x, y in zip(u[i], u[j])]
            if max(abs(x) for x in candidate) <= bound:
                u[i] = candidate
                for row in v:
                    row[j] -= c * row[i]
    if matmul(u, v) != identity(n):
        raise AssertionError("unimodular generator lost its inverse")
    return u, v


def fixed_point_free(rng: random.Random, n: int) -> list[list[int]]:
    """Random unimodular P with no fixed vector: P - I is nonsingular."""
    while True:
        p, _ = unimodular_pair(rng, n, 6 * n, 3)
        delta = [[x - int(i == j) for j, x in enumerate(row)] for i, row in enumerate(p)]
        if rank_q(delta) == n:
            return p


def canonical_sign(v: list[int]) -> int:
    """Sign that makes the first nonzero entry of ``v`` positive."""
    lead = next(x for x in v if x)
    return 1 if lead > 0 else -1


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

def corpus_doc(name: str) -> dict:
    return json.loads((CORPUS_DIR / f"{name}.json").read_text())


def quadric_doc(p: int, q: int) -> dict:
    """``quadric_power_p_q``: one loop-free component of rank (p-1)(q-1)."""
    return {"n": 3, "original_n": 3, "original_s": 2,
            "components": [{"id": "S1", "genus": 0,
                            "transversal_rank": (p - 1) * (q - 1),
                            "loop_monodromies": []}],
            "special_points": [], "isolated_points": []}


def padded_summand(germ: dict, tag: str, pad: int, rng: random.Random) -> dict:
    """One summand of a block sum: ids renamed, monodromy data dropped.

    Each rank-1 component with loops is padded to rank ``pad`` by a summand
    on which every monodromy has no fixed vector, then conjugated by a
    random unimodular U.  The branch kernel ker(nu - 1) is then Z * U e1,
    whose canonical basis is the primitive U e1 with a positive leading
    entry; the iota rows are rescaled by that sign.
    """
    conj: dict[str, tuple] = {}
    components = []
    for c in germ["components"]:
        loops = c["loop_monodromies"]
        entry = {"id": f"{c['id']}_{tag}", "genus": c["genus"],
                 "transversal_rank": c["transversal_rank"], "loop_monodromies": loops}
        if c["transversal_rank"] == 1 and loops and pad > 1:
            pads = [fixed_point_free(rng, pad - 1) for _ in loops]
            u, u_inv = unimodular_pair(rng, pad, 8 * pad, 4)
            sign = canonical_sign([row[0] for row in u])
            conj[c["id"]] = (u, u_inv, pads, 2 * c["genus"], sign)
            entry["transversal_rank"] = pad
            entry["loop_monodromies"] = [matmul(matmul(u, block_diag(nu, pw)), u_inv)
                                         for nu, pw in zip(loops, pads)]
        components.append(entry)

    seen = {cid: 0 for cid in conj}
    points = []
    for q in germ["special_points"]:
        branches = []
        row_signs = []
        for b in q["branches"]:
            cid = b["component_id"]
            mono = b["monodromy"]
            # Corpus branches have rank 1: one iota row when nu = 1, none when nu = -1.
            fixed = 1 if mono == [[1]] else 0
            sign = 1
            if cid in conj:
                u, u_inv, pads, slot0, sign = conj[cid]
                pw = pads[slot0 + seen[cid]]
                seen[cid] += 1
                mono = matmul(matmul(u, block_diag(mono, pw)), u_inv)
            row_signs.extend([sign] * fixed)
            branches.append({"component_id": f"{cid}_{tag}", "monodromy": mono})
        iota = [[s * x for x in row] for s, row in zip(row_signs, q["iota"])]
        point = {"id": f"{q['id']}_{tag}", "branches": branches,
                 "fq_rank_low": q["fq_rank_low"], "fq_rank_high": q["fq_rank_high"],
                 "iota": iota}
        if "costalk_rank" in q:
            point["costalk_rank"] = q["costalk_rank"]
        points.append(point)
    return {"components": components, "special_points": points,
            "isolated_points": [{**r, "id": f"{r['id']}_{tag}"}
                                for r in germ["isolated_points"]]}


def block_sum(names: list[str], pad: int, rng: random.Random) -> dict:
    doc = {"n": 3, "original_n": 3, "original_s": 2,
           "components": [], "special_points": [], "isolated_points": []}
    for i, name in enumerate(names):
        part = padded_summand(corpus_doc(name), str(i + 1), pad, rng)
        for key in ("components", "special_points", "isolated_points"):
            doc[key].extend(part[key])
    return doc


def sum_expected(names: list[str]) -> dict:
    total = {k: sum(CORPUS_EXPECTED[n][k] for n in names)
             for k in ("domain", "codomain", "kernel", "upper")}
    total["group"] = f"Z^{total['kernel']}" if total["kernel"] else "0"
    return total


def dense_doc(rng: random.Random, ncomp: int, mu: int, f: int) -> tuple[dict, dict]:
    """Components of rank ``mu`` with identity monodromies, each meeting two
    special points whose iota blocks are dense random injective mu x f
    matrices.

    With identity monodromies every branch kernel is Z^mu with the standard
    basis, so ker j pairs x = iota1 y1 = iota2 y2 and its rank is
    f1 + f2 - rank_Q[iota1 | iota2] per component.
    """
    ident = identity(mu)
    components, points = [], []
    kernel = 0
    low_total = 0
    for c in range(ncomp):
        cid = f"C{c + 1}"
        components.append({"id": cid, "genus": 0, "transversal_rank": mu,
                           "loop_monodromies": [ident, ident]})
        blocks = []
        for k in range(2):
            while True:
                iota = [[rng.randint(-IOTA_BOUND, IOTA_BOUND) for _ in range(f)]
                        for _ in range(mu)]
                if rank_q(iota) == f:
                    break
            blocks.append(iota)
            points.append({"id": f"q{c + 1}_{k + 1}",
                           "branches": [{"component_id": cid, "monodromy": ident}],
                           "fq_rank_low": f, "fq_rank_high": rng.randrange(0, 4),
                           "iota": iota})
            low_total += f
        joined = [r1 + r2 for r1, r2 in zip(*blocks)]
        kernel += len(blocks[0][0]) + len(blocks[1][0]) - rank_q(joined)
    doc = {"n": 3, "original_n": 3, "original_s": 2, "components": components,
           "special_points": points, "isolated_points": []}
    expected = {"group": f"Z^{kernel}" if kernel else "0",
                "domain": ncomp * mu + low_total, "codomain": 2 * ncomp * mu,
                "kernel": kernel, "upper": ncomp * mu}
    return doc, expected


# ---------------------------------------------------------------------------
# Single-fault mutants for validate_mix
# ---------------------------------------------------------------------------

def _looped(doc):
    return [c for c in doc["components"] if c["loop_monodromies"]]


def _branched(doc):
    return [q for q in doc["special_points"] if q["branches"]]


def _with_iota(doc):
    return [q for q in doc["special_points"] if q["fq_rank_low"] >= 1 and q["iota"]]


def _scaled(m):
    return [[2 * x for x in row] for row in m]


# code -> (applicability, mutation); each mutation breaks exactly one invariant.
MUTATIONS = {
    "dimension-reduction": (lambda d: True,
                            lambda d, rng: d.update(n=d["n"] + 1)),
    "duplicate-id": (lambda d: d["special_points"],
                     lambda d, rng: rng.choice(d["special_points"]).update(
                         id=rng.choice(d["components"])["id"])),
    "loop-count": (_looped,
                   lambda d, rng: rng.choice(_looped(d))["loop_monodromies"].pop()),
    "loop-not-unimodular": (_looped, lambda d, rng: _mutate_loop(d, rng, _scaled)),
    "loop-shape": (_looped,
                   lambda d, rng: _mutate_loop(d, rng, lambda m: identity(len(m) + 1))),
    "branch-not-unimodular": (_branched, lambda d, rng: _mutate_branch(d, rng, _scaled)),
    "branch-shape": (_branched,
                     lambda d, rng: _mutate_branch(d, rng, lambda m: identity(len(m) + 1))),
    "iota-shape": (lambda d: d["special_points"],
                   lambda d, rng: _bump(rng.choice(d["special_points"]), "fq_rank_low")),
    "iota-not-injective": (_with_iota, lambda d, rng: _zero_column(rng.choice(_with_iota(d)))),
    "negative-rank": (lambda d: d["special_points"],
                      lambda d, rng: rng.choice(d["special_points"]).update(fq_rank_high=-1)),
    "malformed-document": (_looped, lambda d, rng: _mutate_loop(
        d, rng, lambda m: [[str(x) for x in row] for row in m])),
}


def _mutate_loop(doc, rng, fn):
    loops = rng.choice(_looped(doc))["loop_monodromies"]
    w = rng.randrange(len(loops))
    loops[w] = fn(loops[w])


def _mutate_branch(doc, rng, fn):
    b = rng.choice(rng.choice(_branched(doc))["branches"])
    b["monodromy"] = fn(b["monodromy"])


def _bump(point, key):
    point[key] += 1


def _zero_column(point):
    for row in point["iota"]:
        row[0] = 0


def mutants(bases: list[tuple[str, dict]], rng: random.Random) -> list[tuple[str, bytes, dict]]:
    """One mutant per invariant from each rung in MUTANT_RUNGS, plus a
    truncated file."""
    out = []
    for code, (applies, mutate) in MUTATIONS.items():
        for i, rung in enumerate(MUTANT_RUNGS):
            candidates = [(name, doc) for name, doc in bases
                          if name.rsplit("-", 1)[0] == rung and applies(doc)]
            name, base = rng.choice(candidates)
            doc = json.loads(json.dumps(base))
            mutate(doc, rng)
            out.append((f"mut-{code}-{i}-{name}", encode(doc),
                        {"status": 1, "codes": [code]}))
    # A file cut short is rejected by the decoder rather than the reader.
    name, base = rng.choice([b for b in bases if b[0].rsplit("-", 1)[0] == MUTANT_RUNGS[0]])
    raw = encode(base)
    out.append((f"mut-truncated-{name}", raw[: len(raw) // 2],
                {"status": 1, "codes": ["malformed-document"]}))
    return out


def hostile_documents() -> list[tuple[str, bytes, dict]]:
    """Inputs that must still yield one malformed-document report each."""
    expect = {"status": 1, "codes": ["malformed-document"]}
    digits = b'{"n": ' + b"7" * HOSTILE_DIGITS + b"}"
    nested = b"[" * HOSTILE_DEPTH
    return [("hostile-long-integer", digits, dict(expect)),
            ("hostile-deep-nesting", nested, dict(expect))]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def encode(doc: dict) -> bytes:
    return (json.dumps(doc, indent=1) + "\n").encode()


def _compute_expect(answer: dict) -> dict:
    return {"status": 0, "codes": [], "answer": answer}


def germ_sums(seed: int) -> list[tuple[str, bytes, dict]]:
    rng = random.Random(f"germ_sums/{seed}")
    docs = []
    for name, answer in CORPUS_EXPECTED.items():
        raw = (CORPUS_DIR / f"{name}.json").read_bytes()
        docs.append((f"corpus-{name}", raw, _compute_expect(answer)))
    for p, q in QUADRIC_GRID:
        m = (p - 1) * (q - 1)
        answer = {"group": f"Z^{m}", "domain": m, "codomain": 0, "kernel": m, "upper": m}
        docs.append((f"quadric-{p}-{q}", encode(quadric_doc(p, q)), _compute_expect(answer)))
    for k, pad, count in SUM_RUNGS:
        for i in range(count):
            names = [SUMMAND_GERMS[j % len(SUMMAND_GERMS)] for j in range(k)]
            rng.shuffle(names)
            docs.append((f"sum-k{k}-r{pad}-{i}", encode(block_sum(names, pad, rng)),
                         _compute_expect(sum_expected(names))))
    return docs


def dense_iota(seed: int) -> list[tuple[str, bytes, dict]]:
    rng = random.Random(f"dense_iota/{seed}")
    docs = []
    for ncomp, mu, f, count in DENSE_RUNGS:
        for i in range(count):
            doc, answer = dense_doc(rng, ncomp, mu, f)
            docs.append((f"dense-c{ncomp}-mu{mu}-{i}", encode(doc), _compute_expect(answer)))
    return docs


def validate_mix(seed: int) -> list[tuple[str, bytes, dict]]:
    rng = random.Random(f"validate_mix/{seed}")
    valid = germ_sums(seed) + dense_iota(seed)
    docs = [(name, raw, {"status": 0, "codes": []}) for name, raw, _ in valid]
    bases = [(name, json.loads(raw)) for name, raw, _ in valid]
    return docs + mutants(bases, rng)


WORKLOADS = {
    "germ_sums": (germ_sums, True),
    "dense_iota": (dense_iota, True),
    "validate_mix": (validate_mix, False),
}


def build(workload: str, seed: int) -> tuple[list[tuple[str, bytes, dict]], bool]:
    """Documents (name, bytes, expected outcome) and the compute flag.

    The order is shuffled so that small and large documents alternate: a
    slow moment of the machine then hits a mix of sizes, not one rung.
    """
    make, compute = WORKLOADS[workload]
    docs = make(seed)
    random.Random(f"{workload}/order/{seed}").shuffle(docs)
    return docs, compute


def shape(raw: bytes) -> tuple[int, int]:
    """(components, branches) of a document, (0, 0) if it does not decode."""
    try:
        doc = json.loads(raw)
        comps = len(doc["components"])
        branches = sum(len(q["branches"]) for q in doc["special_points"])
    except (ValueError, RecursionError, KeyError, TypeError):
        return 0, 0
    return comps, branches
