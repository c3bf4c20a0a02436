import numpy as np
import pytest

from ltcmh.dataset import LongTailSpec, synthesize_long_tailed


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def tiny_spec(**kw):
    """A 4-class long-tailed spec small enough for second-scale training."""
    defaults = dict(groups=[(2, 30), (2, 6)], d_x=8, d_y=6,
                    extra_per_class=4, mixed_fraction=0.2, latent_dim=4,
                    noise_std=0.3)
    defaults.update(kw)
    return LongTailSpec(**defaults)


def cuts_and_flips(raw: bytes):
    """Every proper prefix of raw, then raw with bit 0 or bit 7 of one byte
    flipped: the damaged files a loader sweep feeds in."""
    cases = [raw[:end] for end in range(len(raw))]
    for i in range(len(raw)):
        for bit in (0, 7):
            flipped = bytearray(raw)
            flipped[i] ^= 1 << bit
            cases.append(bytes(flipped))
    return cases


@pytest.fixture
def tiny_dataset():
    return synthesize_long_tailed(tiny_spec(), seed=0)
