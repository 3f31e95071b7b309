"""Digest of held-out fits, data no search setting was tuned on.

Not collected by pytest.  It prints one line per fit in ``fit_digest.py``'s
format, so ``tests/compare_digests.py`` compares two checkouts' outputs:

    PYTHONPATH=src python tests/heldout_digest.py > after.txt
    (cd <other checkout> && PYTHONPATH=src python <this script>) > before.txt
    python tests/compare_digests.py before.txt after.txt

The data are 94 sets, each fitted as lg, sn, aslg and baslg2, 376 fits:

- ``hgum<i>``, i < 45: Gumbel samples from ``default_rng([77, i])``;
- ``hlog<i>``, i < 45: logistic samples from ``default_rng([78, i])``;
  each draws its location U(-5, 5), its scale U(0.5, 3) and its size in
  82-200, in that order, then the sample;
- ``flat<k>``: ``linspace(-1, 1, 1200) * 2**k`` for k in -40, 0, 50 and
  200, flat-topped data in several units.

The fits are the search's own; there is no independent referee here.
The whole run takes about a minute.
"""

from __future__ import annotations

import numpy as np

from fit_digest import digest

FAMILIES = ("lg", "sn", "aslg", "baslg2")
SAMPLES = 45
FLAT_POWERS = (-40, 0, 50, 200)


def sample(entropy: int, idx: int, draw: str) -> np.ndarray:
    rng = np.random.default_rng([entropy, idx])
    loc, scale = rng.uniform(-5.0, 5.0), rng.uniform(0.5, 3.0)
    return getattr(rng, draw)(loc, scale, int(rng.integers(82, 201)))


def datasets():
    """(name, values) of every held-out dataset."""
    for idx in range(SAMPLES):
        yield f"hgum{idx}", sample(77, idx, "gumbel")
    for idx in range(SAMPLES):
        yield f"hlog{idx}", sample(78, idx, "logistic")
    for k in FLAT_POWERS:
        yield f"flat{k}", np.linspace(-1.0, 1.0, 1200) * 2.0 ** k


def main() -> None:
    for name, values in datasets():
        for family in FAMILIES:
            print(digest(name, family, values), flush=True)


if __name__ == "__main__":
    main()
