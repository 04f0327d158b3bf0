import random

import numpy as np
import pytest

from beg_dobrushin import ModelParams
from beg_dobrushin import kernel
from conftest import cell_lemma1_table, cell_tv_table, point_in_band


def seeded_grid(d):
    """Strip points, where the sweep evaluates Lemma 1, and a beta grid from 0
    to the default sweep's range."""
    rng = random.Random(500 + d)
    betas = np.array([0.0] + sorted(10 ** rng.uniform(-3, 1.7) for _ in range(24)))
    points = [point_in_band(band, rng) for band in "ABCABC"]
    return points, betas


class TestBatchedTables:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_beta_slices_match_single_beta_bit_for_bit(self, d):
        points, betas = seeded_grid(d)
        tails = kernel.classes(d).tails
        for x, y in points:
            tv = kernel.tv_table(d, x, y, betas)
            l1 = kernel.lemma1_table(d, x, y, betas)
            assert tv.shape == l1.shape == (len(betas), len(tails), 3)
            for i, beta in enumerate(betas.tolist()):
                params = ModelParams(x=x, y=y, beta=beta, d=d)
                assert tv[i].tobytes() == cell_tv_table(params, tails).tobytes(), (x, y, beta)
                assert l1[i].tobytes() == cell_lemma1_table(params, tails).tobytes(), (x, y, beta)

    def test_empty_beta_grid(self):
        assert kernel.tv_table(2, -3.0, 0.5, np.empty(0)).shape == (0, 10, 3)
        assert kernel.lemma1_table(2, -3.0, 0.5, np.empty(0)).shape == (0, 10, 3)


class TestMaxTv:
    def test_first_max_takes_first_occurrence(self):
        table = np.zeros((2, 3, 3))
        table[0, 1, 2] = table[0, 2, 0] = 5.0
        top, cls, pair = kernel.first_max(table)
        assert top.tolist() == [5.0, 0.0]
        assert (cls.tolist(), pair.tolist()) == ([1, 0], [2, 0])

    @pytest.mark.parametrize("block_cells", [1, 7, 25, 64])
    def test_blocks_do_not_change_result(self, block_cells, monkeypatch):
        betas = np.geomspace(1e-3, 50, 33)
        whole = kernel.first_max(kernel.tv_table(2, 0.2, -1.9, betas))
        monkeypatch.setattr(kernel, "_BLOCK_CELLS", block_cells)
        blocked = kernel.max_tv(2, 0.2, -1.9, betas)
        for got, want in zip(blocked, whole):
            assert got.tobytes() == want.tobytes()

    def test_empty_beta_grid(self):
        top, cls, pair = kernel.max_tv(3, -3.0, 0.5, np.empty(0))
        assert len(top) == len(cls) == len(pair) == 0
