"""The emitted exact expressions must not change form.

``tests/data/golden_expressions.json`` holds the ``str()`` of every boundary
density, ``pi0_density`` and the Gamma-ratio jets at zero.  Densities display
as ``dtnzeta.sfunc.rationalize`` of their jet at ``s = 0``; ``a0_density(2, 1)``
was last re-recorded, equal in value, when the display moved to that form.
The semantic checks in ``test_symbolint.py`` would accept any equal
expression; this test requires the same string, also from the hand-written
references.  The ``str()`` of every ``term_table`` piece and of the
``derive-terms`` sum row was recorded when Gamma normalization moved into
``dtnzeta.sfunc.rationalize``.
"""

import json
from pathlib import Path

import pytest
import sympy as sp

from dtnzeta.cli import RunConfig, run
from dtnzeta.sfunc import gamma_ratio_at_zero
from dtnzeta.symbolcas import chart
from dtnzeta.symbolint import (TERM_LABELS, _density_display, a0_density, a0_reference,
                               pi0_density, q_density, q_density_reference, term_table)

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_expressions.json").read_text())


@pytest.mark.parametrize("m,q", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_densities(m, q):
    assert str(a0_density(m, q)) == GOLDEN[f"a0_density({m}, {q})"]
    assert str(q_density(m, q)) == GOLDEN[f"q_density({m}, {q})"]


@pytest.mark.parametrize("density, reference", [(a0_density, a0_reference),
                                                (q_density, q_density_reference)],
                         ids=["a0", "q"])
@pytest.mark.parametrize("m,q", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_display_of_reference(density, reference, m, q):
    # the hand-written reference, an independently written expression of the
    # same value, displays as the same string as the derived density
    assert str(_density_display(chart(m, q), reference(m, q))) == str(density(m, q))


@pytest.mark.parametrize("q", [0, 1, 2])
def test_pi0_density(q):
    assert str(pi0_density(q)) == GOLDEN[f"pi0_density({q})"]


@pytest.mark.parametrize("k", ["1", "1/2", "2"])
def test_gamma_ratio_at_zero(k):
    assert [str(e) for e in gamma_ratio_at_zero(sp.Rational(k))] == GOLDEN[f"gamma_ratio_at_zero({k})"]


@pytest.mark.parametrize("q", [0, 1, 2])
def test_term_table(q):
    table = term_table(q)
    assert ({lab: str(table[lab]) for lab in TERM_LABELS}
            == {lab: GOLDEN[f"term_table({q})[{lab}]"] for lab in TERM_LABELS})
    rows = json.loads(run(RunConfig(command="derive-terms", q=q))[1])["rows"]
    assert rows[-1]["quantity"] == "trace-term-sum"
    assert rows[-1]["expression"] == GOLDEN[f"derive_terms_sum({q})"]
