import time

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
    E = draw(st.integers(1, 2))
    Q = draw(st.integers(2, 3))
    D = draw(st.integers(1, 2))
    R = draw(st.integers(2, 3))
    N = draw(st.integers(4, 6))
    M = draw(st.integers(5, 8))
    coeff = st.integers(-2, 2)
    alpha = {
        n: complex(draw(coeff), draw(coeff)) for n in range(N + 1, 2 * N + 1)
    }
    lam = {}
    for q in range(1, 3 * Q):  # generous cover of the psi0 support
        for d in range(D + 1, 2 * D + 1):
            for r in range(R + 1, 2 * R + 1):
                lam[(q, d, r)] = complex(draw(coeff), draw(coeff))
    return DispersionInstance(
        a=a, E=E, Q=Q, D=D, R=R, N=N, M=M, alpha=alpha, lam=lam
    )


def explicit_instance(a, E, Q, D, R, N, M):
    """Instance with every alpha and lambda cell set by a fixed formula."""
    alpha = {n: complex(3 * n % 5 - 2, n * n % 3 - 1) for n in range(N + 1, 2 * N + 1)}
    lam = {
        (q, d, r): complex((q + 2 * d + 3 * r) % 5 - 2, q * d * r % 3 - 1)
        for q in range(1, 3 * Q + 1)
        for d in range(D + 1, 2 * D + 1)
        for r in range(R + 1, 2 * R + 1)
    }
    return DispersionInstance(a=a, E=E, Q=Q, D=D, R=R, N=N, M=M, alpha=alpha, lam=lam)


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

    def test_empty_r_and_n_still_count_the_walk(self):
        # no (r, n) term at all, but the (e, q, d, m, b) walk alone ran 9.6 s
        # when the estimate left it out and read 0
        walk_only = DispersionInstance(
            a=1, E=30, Q=30, D=30, R=0, N=0, M=30, alpha={}, lam={}
        )
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="too large"):
            dispersion_expand(walk_only)
        assert time.perf_counter() - t0 < 1.0

    def test_range_cap(self):
        with pytest.raises(ValueError):
            dispersion_expand(
                DispersionInstance(a=1, E=1, Q=31, D=1, R=1, N=4, M=5, alpha={}, lam={})
            )

    @pytest.mark.parametrize("params,bits", [
        ((1, 2, 2, 2, 2, 4, 6), ("0x1.2b448f7d107eap+5", "0x1.4b5108cb6b29bp+0",
                                 "0x1.25ad621f4cadfp+1", "0x0.0p+0", "0x1.459fb37a9ebafp+5")),
        ((3, 2, 3, 2, 1, 5, 5), ("0x1.09b0ba565c6fbp+1", "0x1.508e49eb65e16p-5",
                                 "0x1.2eb3706ab4375p-4", "0x0.0p+0", "0x1.1759b8355a1bbp+1")),
        ((5, 3, 2, 2, 2, 4, 7), ("0x1.7fa2568e970e8p+4", "0x1.1baa30d00ffdap-2",
                                 "0x1.52bfed798a8c4p-1", "-0x1.471c71c71c71cp-5",
                                 "0x1.905faca2ef774p+4")),
        ((7, 3, 3, 2, 2, 6, 8), ("0x1.f3e12029773f5p+4", "0x1.bfa72da182ec5p-4",
                                 "0x1.02de06bc6b0a2p-2", "-0x1.910b3f90975a9p-7",
                                 "0x1.fa386931b913ep+4")),
        ((1, 3, 2, 2, 3, 5, 4), ("0x1.30efe6b74f031p+3", "0x1.26a4587e6b74fp-3",
                                 "0x1.3aaaaaaaaaaabp-2", "-0x1.5555555555554p-5",
                                 "0x1.4000000000000p+3")),
        ((1, 2, 1, 2, 2, 5, 8), ("0x1.3b3197886d6f4p+3", "0x1.28aaaaaaaaaaap-1",
                                 "0x1.56fdae5dfa619p-1", "0x0.0p+0", "0x1.5386a2a98210fp+3")),
    ])
    def test_pinned_bits_beyond_e2_d2(self, params, bits):
        # (a, E, Q, D, R, N, M): E in {2, 3} runs squarefree e in {3, 5, 6}
        # and skips e = 4; D = 2 runs d in {3, 4}; each sum pinned to the bit
        r = dispersion_expand(explicit_instance(*params))
        got = (r.lhs, r.s1, r.s2.real, r.s2.imag, r.s3)
        assert got == tuple(float.fromhex(b) for b in bits)

    @given(small_instances())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_identity_for_arbitrary_weights(self, inst):
        # the opened-square identity is pure algebra: it must hold for any
        # coefficient tables, not only the seeded family
        r = dispersion_expand(inst)
        assert r.relative_error <= 1e-9
