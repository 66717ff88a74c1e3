import hashlib

import pytest

from apmod.rng import SplitMix64

# sha256 of the first 1,000 draws of SplitMix64(n).below(n), comma-joined in
# decimal, and the first five of them; captured before the rejection loop of
# below() was restructured
BELOW_PINS = {
    1: ("7e0f8f11af1b6c00bd7b311f7c578f33d2942890992454101cddfbbd7e23dad5", [0, 0, 0, 0, 0]),
    2: ("6ccc7b1ab74bae386c5a352fa7242a39098f3553c43570874ab6a0a37336cc98", [0, 0, 1, 0, 1]),
    3: ("8ebca7db7917f7cf73ef5ae469efaaa1a8c5fb1b30f94ce9f5cf12c1a85d0dba", [0, 0, 0, 2, 0]),
    7: ("4726c437e8f0aa95b807573d40bd42aa9d5376d77381bcaa39cace8a3ec210a6", [2, 3, 0, 3, 5]),
    64: ("440a16e8ba153314cddd47f8c76792c5f3823f5af6208f99ecfa627975267a29", [3, 29, 38, 26, 60]),
    1000003: (
        "d58e55d5de4daebacf884e32bed4bf1919537783d2f5f70b21bce50c83973ed3",
        [494101, 684800, 714554, 897420, 417009],
    ),
    2**40 + 1: (
        "a09c017621d2940f0055bb30ee9b0d9a0b80abaee8a32e5cf0eb13c04c4edfe6",
        [508422482115, 942088833470, 1056006181696, 265956058021, 708766027188],
    ),
}


class TestBelow:
    @pytest.mark.parametrize("n", sorted(BELOW_PINS))
    def test_stream_pinned(self, n):
        rng = SplitMix64(n)
        draws = [rng.below(n) for _ in range(1000)]
        digest, head = BELOW_PINS[n]
        assert draws[:5] == head
        assert hashlib.sha256(",".join(map(str, draws)).encode()).hexdigest() == digest
        assert all(0 <= v < n for v in draws)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            SplitMix64(0).below(0)
