import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmod.dispersion import (
    DispersionInstance,
    dispersion_expand,
    fixed_seed_instances,
)


@st.composite
def small_instances(draw):
    a = draw(st.sampled_from([1, 3, 5, 7]))
    Q = draw(st.integers(2, 3))
    R = draw(st.integers(2, 3))
    N = draw(st.integers(4, 6))
    M = draw(st.integers(5, 8))
    coeff = st.integers(-2, 2)
    alpha = {
        n: complex(draw(coeff), draw(coeff)) for n in range(N + 1, 2 * N + 1)
    }
    lam = {}
    for q in range(1, 3 * Q):  # generous cover of the psi0 support
        for r in range(R + 1, 2 * R + 1):
            lam[(q, 2, r)] = complex(draw(coeff), draw(coeff))
    return DispersionInstance(
        a=a, E=1, Q=Q, D=1, R=R, N=N, M=M, alpha=alpha, lam=lam
    )


class TestDispersionExpand:
    def test_all_zero_sequences(self):
        inst = DispersionInstance(a=1, E=1, Q=3, D=1, R=1, N=4, M=5, alpha={}, lam={})
        r = dispersion_expand(inst)
        assert (r.lhs, r.s1, r.s2, r.s3) == (0.0, 0.0, 0j, 0.0)

    def test_single_cell_square(self):
        # one nonzero lambda cell and one alpha entry: |z|^2 = z * conj(z)
        inst = DispersionInstance(
            a=1, E=1, Q=2, D=1, R=2, N=4, M=6,
            alpha={5: 2 - 1j},
            lam={(3, 2, 3): 1 + 1j},
        )
        r = dispersion_expand(inst)
        assert r.relative_error <= 1e-12

    def test_fixed_seed_family(self):
        insts = fixed_seed_instances(10, seed=0)
        assert len(insts) == 10
        for inst in insts:
            r = dispersion_expand(inst)
            assert r.relative_error <= 1e-9
            assert r.lhs >= 0.0  # sum of nonnegative weights times |.|^2

    def test_nontrivial_values(self):
        insts = fixed_seed_instances(10, seed=0)
        assert all(dispersion_expand(i).lhs > 0 for i in insts)

    def test_oversize_rejected(self):
        big = DispersionInstance(
            a=1, E=30, Q=30, D=30, R=30, N=30, M=30, alpha={}, lam={}
        )
        with pytest.raises(ValueError):
            dispersion_expand(big)

    def test_range_cap(self):
        with pytest.raises(ValueError):
            dispersion_expand(
                DispersionInstance(a=1, E=1, Q=31, D=1, R=1, N=4, M=5, alpha={}, lam={})
            )

    @given(small_instances())
    @settings(max_examples=25, deadline=None)
    def test_identity_for_arbitrary_weights(self, inst):
        # the opened-square identity is pure algebra: it must hold for any
        # coefficient tables, not only the seeded family
        r = dispersion_expand(inst)
        assert r.relative_error <= 1e-9
