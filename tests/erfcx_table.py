"""Generator of ``baslg.models._ERFCX``, the skew-normal's table of erfcx pieces.

Not runtime code: ``tests/test_models.py`` rebuilds the table with it and
checks that the committed doubles are these, bit for bit.  Printing the
table as source, to paste over the committed one:

    PYTHONPATH=src python tests/erfcx_table.py

Piece k is the polynomial of degree ``_ERFCX_DEGREE`` in r = y - k that
interpolates G(y) = erfcx(t) / 2 at the Chebyshev points of its interval,
where y = N c / (c + sqrt(2) t) maps t in [0, inf] onto [0, N], with
N = ``_ERFCX_PIECES`` and c = ``_ERFCX_SHIFT``.  Piece k covers
|y - k| <= 1/2 within [0, N], so N + 1 pieces cover the range and the end
pieces are half as wide.  G vanishes like y at y = 0, so piece 0, where
r = y, interpolates G(y) / y one degree lower and is stored times r: its
constant term is exactly 0 and it keeps G's relative accuracy down to y = 0.
Everything is worked at 40 digits: the nodes, the values, and the solve for
the power-form coefficients, lowest first.  So only the final rounding to
doubles sets the committed values.
"""

from __future__ import annotations

import mpmath as mp

from baslg.models import _ERFCX_DEGREE, _ERFCX_PIECES, _ERFCX_SHIFT


def half_erfcx(y):
    """G(y) = erfcx(t) / 2 at the mpf point ``y`` of the table's variable."""
    t = (_ERFCX_SHIFT * _ERFCX_PIECES / y - _ERFCX_SHIFT) / mp.sqrt(2)
    return mp.erfc(t) * mp.exp(t * t) / 2


def chebyshev_interpolant(f, lo, hi, degree):
    """Power-form coefficients, lowest first, of the polynomial of ``degree``
    that interpolates ``f`` at the Chebyshev points of [lo, hi]."""
    nodes = [
        (lo + hi) / 2 + (hi - lo) / 2 * mp.cos(mp.pi * (2 * i + 1) / (2 * degree + 2))
        for i in range(degree + 1)
    ]
    vandermonde = mp.matrix([[r**j for j in range(degree + 1)] for r in nodes])
    return list(mp.lu_solve(vandermonde, mp.matrix([f(r) for r in nodes])))


def erfcx_table() -> tuple[float, ...]:
    """The table, piece after piece, each piece's coefficients lowest first."""
    out = []
    with mp.workdps(40):
        out += [0.0] + [
            float(c) for c in
            chebyshev_interpolant(lambda r: half_erfcx(r) / r, 0, mp.mpf(0.5), _ERFCX_DEGREE - 1)
        ]
        for k in range(1, _ERFCX_PIECES + 1):
            lo, hi = -mp.mpf(0.5), min(mp.mpf(0.5), _ERFCX_PIECES - k)
            out += [
                float(c) for c in
                chebyshev_interpolant(lambda r: half_erfcx(k + r), lo, hi, _ERFCX_DEGREE)
            ]
    return tuple(out)


if __name__ == "__main__":
    print('_ERFCX = np.array("""')
    table = [repr(v) for v in erfcx_table()]
    for i in range(0, len(table), 4):
        print("    " + " ".join(table[i:i + 4]))
    print('""".split(), dtype=float)')
