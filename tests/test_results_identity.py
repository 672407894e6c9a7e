"""Exact results pinned by digest: reduce, to_lv_canonical and same_class.

A fixed set of seeded redundant maps (non-redundant cores padded with
conserved and kernel variables and hidden by a change of variables), half
of them with an initial state, goes through the whole structural pipeline.
The `repr` of every output (maps, step records, transforms, constants of
motion) is hashed, so any change to an exact result, or to the type of an
entry, changes the digest.  A change that alters results on purpose must
regenerate it with

    PYTHONPATH=src python tests/test_results_identity.py
"""

from __future__ import annotations

import hashlib

from qpmaps import apply_qm, reduce, same_class, to_lv_canonical
from qpmaps.sampling import (
    make_rng,
    random_invertible_transform,
    random_nonredundant_map,
    random_positive_state,
)

from conftest import inflate_map

EXPECTED = "97f3c6d41e4857746aa1ff583fd70043a1fae613d6dbb41dcf93b7f027e9b19f"


def pipeline_digest() -> str:
    rng = make_rng("results-identity", seed=8)
    h = hashlib.sha256()
    for j in range(40):
        n = 2 + j % 6
        core = random_nonredundant_map(rng, n, n + j % 3)
        qp = inflate_map(rng, core, 1 + (j // 4) % 2, 1 + (j // 8) % 2)
        initial = random_positive_state(rng, qp.n) if j % 2 else None
        report = reduce(qp, initial)
        lv, constants = to_lv_canonical(report.final)
        copy = apply_qm(report.final, random_invertible_transform(rng, n))
        found = same_class(report.final, copy)
        assert found is not None
        for part in (report.final, report.steps, report.constants, lv,
                     constants, copy, found):
            h.update(repr(part).encode())
    return h.hexdigest()


def test_pipeline_results_match_digest():
    assert pipeline_digest() == EXPECTED


if __name__ == "__main__":
    print(pipeline_digest())
