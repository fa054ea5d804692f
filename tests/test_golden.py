"""Byte-identity of the command line and demo outputs: each command runs in
a fresh interpreter, must exit 0, and its stdout must hash to the recorded
digest.  A change to any report, ledger or demo line fails here.  The
loader digest pins what the parser makes of seeded malformed documents, the
Smith digests pin the canonical diagonal and cokernel apart from the
transforms u and v, the echelon digest pins the raw column echelons of the
elimination core, pivot choice and operation order included, and the
cross-check digest pins the canonical bases the interaction cross-check
intersects.  `test_cli.py`'s document table pins every report of `cli.run`."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from vancoh import analyze, linalg, parse_configuration, serialize_configuration
from vancoh.corpus import bundled
from vancoh.linalg import IntegerMatrix, cokernel, smith_normal_form

from helpers import (corpus_documents, dense_iota_config, differential_cases, load_corpus,
                     mutated_document, rand_matrix, random_valid_config)

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = {
    # equal to `compute --format json` over the corpus files in `bundled()` order
    "corpus --format json": "9dbdd6c103fc2a538696f718f1fefe7716744b32ec242bd59515683392151edf",
    "corpus --format json --verbose":
        "b31f697e5d04ac94eb58f87ef9c2ef0e53b3b029a93f1669d9619d9bf0398412",
    "corpus --verbose": "28f4bda582a33252a526d1e06c1a348cd868c2fe41e071a69240dd2a9c61629c",
    "01_exact_integer_linear_algebra":
        "5798fa356eb90a5bd67b2e6403f353ef6c30a7eb15d8a20cef50bae892d7e3f7",
    "02_three_planes_walkthrough": "4fe28fdf6478179e1ce239cdac1c1e27fcd6bb07f105dcd27e03bf842a5452f5",
    "03_bounds_and_monodromy": "57f61799b7057b9109619a999114870857a768ae6d4a7f8f085bc2e2116bb60b",
    "04_batch_reports": "5f66f5b697407a429d259394c2fe9661ee47172dc50674ca25ee166c5c31b192",
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_digest(command):
    args = (["-m", "vancoh.cli", *command.split()] if command.startswith("corpus")
            else [f"demos/{command}.py"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN[command]


LOADER_DIGEST = "740ecc9a46e1480e170fb14cd93877103a6ab66cb15f2b49a8a3b619500f841b"


def test_loader_digest():
    """Violations, unknown keys and re-serialized configuration of 2,000
    seeded mutated corpus documents."""
    rng = random.Random(2000)
    docs = corpus_documents()
    digest = hashlib.sha256()
    for _ in range(2000):
        result = parse_configuration(mutated_document(rng, docs))
        cfg = result.configuration
        digest.update(json.dumps([[v._asdict() for v in result.violations], result.unknown_keys,
                                  None if cfg is None else serialize_configuration(cfg)],
                                 sort_keys=True).encode())
    assert digest.hexdigest() == LOADER_DIGEST


def smith_matrices():
    """The empty shapes, a zero matrix and 2,400 seeded matrices: shapes up
    to 9x11, entries up to 1,000, every third one a product through a
    narrower middle, so rank-deficient."""
    rng = random.Random(2400)
    matrices = [IntegerMatrix.zeros(rows, cols) for rows in (0, 3) for cols in (0, 4)]
    for k in range(2400):
        rows, cols = rng.randint(1, 9), rng.randint(1, 11)
        if k % 3:
            matrices.append(rand_matrix(rng, rows, cols, rng.choice((1, 9, 1000))))
        else:
            middle = rng.randrange(min(rows, cols))
            matrices.append(rand_matrix(rng, rows, middle, rng.choice((1, 3, 10)))
                            * rand_matrix(rng, middle, cols, rng.choice((1, 3, 10))))
    return matrices


SMITH_CANONICAL_DIGEST = "58423b33a53501d48d8ef7439de73199cd634065ea6169c5285eb752c10dfb74"
SMITH_TRANSFORM_DIGEST = "66fccd9251fa311bebf658866213d09a7ee93a384bd81c2b2be526f3a12dfdba"


def test_smith_canonical_digest():
    """The Smith diagonal d and `cokernel` of each of `smith_matrices`: both
    are canonical, so this digest moves only if an answer does."""
    digest = hashlib.sha256()
    for m in smith_matrices():
        digest.update(repr((smith_normal_form(m).d.data, cokernel(m))).encode())
    assert digest.hexdigest() == SMITH_CANONICAL_DIGEST


def test_smith_transform_digest():
    """The Smith transforms u and v of each of `smith_matrices`.  They are
    not canonical: this digest pins the elimination's operation order."""
    digest = hashlib.sha256()
    for m in smith_matrices():
        u, _, v = smith_normal_form(m)
        digest.update(repr((u.data, v.data)).encode())
    assert digest.hexdigest() == SMITH_TRANSFORM_DIGEST


BIG = 2 ** 200
# columns, not rows: each list is one call of `_echelon`
ECHELON_TIES = [
    [(3, 1, 0), (-3, 2, 1), (3, 5, -1), (-3, 0, 2)],  # equal |entry|, mixed signs
    [(0, 4, 1), (0, -4, 3), (0, 4, -2)],  # the same, one row down
    [(2, 4, 1), (2, 4, 1), (6, 0, 1), (2, 4, 1)],  # duplicate columns
    [(0, 0, 0), (1, 2, 3), (0, 0, 0), (4, 5, 6), (0, 0, 0)],  # zero columns
    [(0, 0), (0, 0)],
    [(-7, 3)], [(6, 1), (-4, 0)], [(0, -5), (0, 10)],  # negative final pivots
    [(BIG, 1, 0), (BIG - 1, 0, 1), (-BIG + 3, 7, 2)],  # entries near 2^200
    [(BIG, -BIG), (-BIG, BIG + 1), (BIG + 1, BIG)],
]
ECHELON_DIGEST = "7a085d3ef65e9c7afe351feb78a8c514e32223931b91a50d431eaa292f7a5d40"


def test_echelon_digest():
    """The (pivot row, column) pairs `_echelon` returns for the rows and for
    the columns of each `differential_cases()` matrix, and for hand-written
    columns whose pivot search meets ties.  The columns are not canonical:
    this digest pins which column each pivot search takes and the order of
    the column operations."""
    digest = hashlib.sha256()
    for m in differential_cases():
        digest.update(repr((linalg._echelon(m.data), linalg._echelon(zip(*m.data)))).encode())
    for columns in ECHELON_TIES:
        digest.update(repr(linalg._echelon(columns)).encode())
    assert digest.hexdigest() == ECHELON_DIGEST


CROSS_CHECK_DIGEST = "04ad415e047454bca589be79d3d712ee994be1373786f1162a98c6e348644383"


def test_cross_check_digest(monkeypatch):
    """Both argument bases and the result basis of every `linalg.intersect`
    call `analyze` makes, the interaction cross-check, on the corpus, 400
    seeded random configurations of rank up to 6 and 6 seeded dense-iota
    configurations of rank 6 to 16."""
    digest = hashlib.sha256()
    original = linalg.intersect

    def recording(a, b):
        result = original(a, b)
        digest.update(repr((a, b, result)).encode())
        return result

    monkeypatch.setattr(linalg, "intersect", recording)
    rng = random.Random(400)
    configs = ([load_corpus(name) for name, _ in bundled()]
               + [random_valid_config(rng, max_rank=6, with_costalk=bool(k % 2))
                  for k in range(400)]
               + [dense_iota_config(rng, mu, mu - 2, mu - 3, 2) for mu in range(6, 17, 2)])
    for cfg in configs:
        analyze(cfg)
    assert digest.hexdigest() == CROSS_CHECK_DIGEST
