"""One failure rule for every stacked check: a stack raises what its rows
raise one at a time, compared as (class, message)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdirac import NumericalContractError, arc_length, dirac_operator
from torusdirac.dirac import dirac_operators
from torusdirac.galerkin import basis_spinor
from torusdirac.geometry import _arc_lengths, raise_first
from torusdirac.perturbation import pseudoinverse
from torusdirac.trigpoly import resize_degree

from test_galerkin import PAST_BAND, WAVE

# passing, under-resolved after the inversion (0.99 on WAVE), singular and
# overflowing values; PAST_BAND fails every eps != 0 at its coframe tail
EPS_POOL = (0.0, -0.0, 0.1, -0.5, 0.3, 0.99, 1.5, -1.0, 2.0, 1e200, -1e200)
SWEEPS = st.tuples(st.sampled_from((WAVE, PAST_BAND)), st.lists(st.sampled_from(EPS_POOL), max_size=5))


def _outcome(build):
    """(class, message) of what ``build()`` raises, or its result."""
    try:
        return build()
    except NumericalContractError as exc:
        return type(exc), str(exc)


def _spinor_pool() -> list[np.ndarray]:
    """(2, 13) spinors: clean, at the edge harmonic 6, in the kernel of
    mode 1 or -1 and NaN."""
    clean = np.zeros((2, 13), dtype=complex)
    clean[:, 6 + 2] = (0.3, -0.1)
    wide = np.zeros((2, 13), dtype=complex)
    wide[:, 12] = (1.0, 1.0)
    kernel = [resize_degree(basis_spinor(n, kind), 6) for n in (1, -1) for kind in ("v", "w")]
    return [clean, wide, *kernel, np.full((2, 13), np.nan, dtype=complex)]


SPINORS = _spinor_pool()


class TestRaiseFirst:
    def test_first_row_then_first_check(self):
        def error(name):
            return lambda i: ValueError(f"{name} {i}")

        checks = [(np.array([False, False, True]), error("a")), (np.array([False, True, True]), error("b"))]
        with pytest.raises(ValueError, match="^b 1$"):
            raise_first(checks)
        checks[0][0][1] = True
        with pytest.raises(ValueError, match="^a 1$"):
            raise_first(checks)
        raise_first([(np.zeros((2, 3), bool), error("a"))])

    def test_rows_of_a_stack_count_in_c_order(self):
        fails = np.zeros((2, 3), bool)
        fails[1, 0] = fails[0, 2] = True
        with pytest.raises(ValueError, match="^2$"):
            raise_first([(fails, lambda i: ValueError(i))])
        with pytest.raises(ValueError, match="^0$"):
            raise_first([(np.bool_(True), lambda i: ValueError(i))])


class TestStacksFailAsTheirRows:
    @settings(max_examples=60)
    @given(SWEEPS)
    def test_operator_pass(self, sweep):
        cf, eps_values = sweep
        stacked = _outcome(lambda: dirac_operators(cf, eps_values, 256))
        rows = _outcome(lambda: [dirac_operator(cf, eps, 256) for eps in eps_values])
        if isinstance(rows, tuple):
            assert stacked == rows
        else:
            assert [(op.a_hat.tobytes(), op.p_hat.tobytes()) for op in stacked] == [
                (op.a_hat.tobytes(), op.p_hat.tobytes()) for op in rows
            ]

    @settings(max_examples=60)
    @given(SWEEPS)
    def test_arc_lengths(self, sweep):
        cf, eps_values = sweep
        stacked = _outcome(lambda: _arc_lengths(cf, np.array(eps_values, dtype=float)))
        rows = _outcome(lambda: [arc_length(cf, eps) for eps in eps_values])
        assert stacked == rows

    @settings(max_examples=60)
    @given(
        st.lists(st.tuples(st.sampled_from(range(len(SPINORS))), st.sampled_from((1, -1, 2))), min_size=1, max_size=4),
    )
    def test_pseudoinverse(self, rows):
        c = np.array([SPINORS[i] for i, _ in rows])
        n = np.array([n for _, n in rows])
        stacked = _outcome(lambda: pseudoinverse(c, n))
        alone = _outcome(lambda: [pseudoinverse(c[r], n[r]) for r in range(len(rows))])
        if isinstance(alone, tuple):
            assert stacked == alone
        else:
            assert stacked.tobytes() == np.array(alone).tobytes()
