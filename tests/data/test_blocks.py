"""Block arithmetic."""

import pytest

from repro.data.blocks import block_bytes_used, n_blocks


class TestBlockMath:
    @pytest.mark.parametrize(
        "tuples,per_block,expected",
        [(0, 64, 0), (1, 64, 1), (64, 64, 1), (65, 64, 2), (128, 64, 2)],
    )
    def test_n_blocks(self, tuples, per_block, expected):
        assert n_blocks(tuples, per_block) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            n_blocks(-1, 64)

    def test_block_bytes_used(self):
        # 65 tuples of 64 B in 4 KB blocks -> 2 blocks -> 8 KB.
        assert block_bytes_used(65, 64, 4096) == 8192

