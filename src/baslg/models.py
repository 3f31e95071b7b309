"""Location-scale likelihood layer: BASLG2 plus the five reference families.

Family codes follow the CLI vocabulary:

    n       normal(mu, sigma)
    lg      logistic(mu, beta)
    la      Laplace(mu, beta)
    sn      Azzalini skew-normal(lambda, mu, sigma)
    aslg    alpha-skew-logistic(alpha, mu, beta), linear skewing polynomial
    baslg2  squared-polynomial skew-logistic(alpha, mu, beta)

Shape parameter first, then location, then scale, so the two-parameter
families are just (mu, scale).  All log-densities are written directly in
log space, with numpy alone.  The three logistic families share one
log-kernel, log g(x) = -|x| - 2 log1p(e^-|x|), which stays finite for any
standardised residual and within 1 ulp of the exact value.  The
skew-normal's log Phi is ``_log_ndtr``, one erfcx evaluation from a table
of polynomial pieces.  The normal and Laplace starts are their closed-form
MLEs, and those two families are flagged ``exact`` for ``fit_mle``.

Each log-density takes every parameter either as a float or as an (R, 1)
column, so one call can evaluate R parameter points at once (an (R, n)
result for n data).  Every term, per-row ones included, goes through the
same numpy ufuncs in both cases, and a ufunc gives an element the same bits
whatever array it sits in, so row i of such a call equals the call at the
floats of row i bit for bit.

The searched families' log-densities (lg, sn, aslg, baslg2) and
``_log_ndtr`` take ``work=None`` by keyword: rows of a scratch block, each
of the result's shape, into which they write their passes with ``out=``,
returning one of those rows.  A fit search hands each call rows of one
block it keeps (see ``fit._block_nll_factory``).  Called without one, they
allocate each row as an array of its own, so their result holds no other.
Either way the passes are the same ufuncs in the same order, so the values
are the same bits.  n and la, fitted in closed form, ignore ``work``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import _MU, StandardBaslg, _check_alpha
from .sampler import SamplerConfig, sample

__all__ = [
    "LocScaleModel",
    "CompetitorModel",
    "ParamSpace",
    "FAMILIES",
    "FamilyInfo",
    "validate_data",
]

_PI = math.pi
# log sqrt(2 pi), rounded as scipy.stats.norm rounds it: the skew-normal's
# normal term is norm.logpdf bit for bit.
_NORM_LOGC = np.log(np.sqrt(2 * np.pi))


def validate_data(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("data must be nonempty.")
    if not np.all(np.isfinite(arr)):
        raise ValueError("data must contain only finite values.")
    return arr


def _data_range(data: np.ndarray) -> float:
    """max - min of validated data; a ValueError names a range that overflows a double."""
    lo, hi = float(np.min(data)), float(np.max(data))
    if hi - lo == math.inf:
        raise ValueError(f"the data range [{lo!r}, {hi!r}] is wider than the largest double.")
    return hi - lo


# the most scratch rows a log-density writes: the skew-normal's two and _log_ndtr's four
_WORK_ROWS = 6


def _workspace(work, rows, *operands):
    """``work``, or else ``rows`` separate fresh arrays of the operands'
    broadcast shape, so that the row a log-density returns holds no other."""
    if work is None:
        shape = np.broadcast(*operands).shape
        work = [np.empty(shape) for _ in range(rows)]
    return work


def _standardise(y, mu, scale, out) -> np.ndarray:
    """(y - mu) / scale, written into ``out``."""
    np.subtract(y, mu, out=out)
    out /= scale
    return out


def _std_logistic_logpdf(x, work=None) -> np.ndarray:
    """log g(x) = -|x| - 2 log1p(e^-|x|), written into ``work[0]``, which
    may hold ``x`` itself; ``work[1]`` is scratch."""
    work = _workspace(work, 2, x)
    out, tail = work[0], work[1]
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=tail)
    np.log1p(tail, out=tail)
    tail *= 2.0
    out -= tail
    return out


def _log_skew_constant(alpha):
    """log C(alpha) of BASLG2 from the core's coefficients, for a float or a column.

    A float alpha goes in as a 0-d array, so that its powers are numpy's, as
    a column's are: Python's float power can differ from them by an ulp.
    The sum is ``core._constant``'s, term by term, less the odd terms: their
    logistic moments are 0, so each would add a signed zero to a sum of at
    least 4.  (Where ``alpha**3`` overflows, near 5.6e102, the full sum gives
    nan, this one inf; every public entry point rejects |alpha| > 1e70.)
    """
    a = np.asarray(alpha, float)
    return np.log(4.0 * _MU[0] + 8.0 * a * a * _MU[2] + a**4 * _MU[4])


# ---------------------------------------------------------------------------
# per-family log densities, params ordered (shape..., mu, scale)
# ---------------------------------------------------------------------------

def _logpdf_n(params, y, work=None):
    mu, sigma = params
    x = (y - mu) / sigma
    return -0.5 * x * x - np.log(sigma) - 0.5 * math.log(2.0 * _PI)


def _logpdf_lg(params, y, work=None):
    mu, beta = params
    work = _workspace(work, 2, y, mu, beta)
    out = _std_logistic_logpdf(_standardise(y, mu, beta, work[0]), work)
    out -= np.log(beta)
    return out[()]


def _logpdf_la(params, y, work=None):
    mu, beta = params
    return -np.abs(y - mu) / beta - np.log(2.0 * beta)


# erfcx(|x| / sqrt 2) / 2 for the skew-normal's log Phi, in the variable
# y = N c / (c + |x|), which maps |x| in [0, inf] onto [0, N]: piece k is a
# polynomial in r = y - k, valid for |r| <= 1/2.  Each piece interpolates at
# its Chebyshev points, worked at 40 digits and stored in power form, lowest
# coefficient first: Horner costs two array passes a degree, Clenshaw three.
# Piece 0 has a zero constant term, so the relative accuracy holds down to
# y = 0 (|x| = inf).  Within 6.7e-16 relative of erfcx / 2 over the range.
# tests/erfcx_table.py generates the table and the suite checks it bit for bit.
# It is parsed from one string: where no bytecode is cached (as under
# PYTHONDONTWRITEBYTECODE), compiling 399 float literals costs each process
# about 4 ms, parsing the string 0.3 ms.
_ERFCX_PIECES = 56
_ERFCX_DEGREE = 6
_ERFCX_SHIFT = 2.0
_ERFCX = np.array("""
    0.0 0.0035619846464413634 6.360686868643343e-05 8.518777060780202e-07
    5.070696715139999e-09 -1.1317001497408961e-10 -3.665887956125946e-12 0.0036264483466922574
    0.003691773711851088 6.6191739206011e-05 8.709552795587093e-07 4.449609325938255e-09
    -1.3535198469930747e-10 -3.734570547890203e-12 0.007385289063548129 0.003826787155344087
    6.882989307396526e-05 8.873253575153198e-07 3.7166954117864932e-09 -1.578167041257992e-10
    -3.7371685867023724e-12 0.01128179699247081 0.0039671229728860035 7.151253525639556e-05
    9.00539538864205e-07 2.8719128406185323e-09 -1.7997732335399827e-10 -3.631270996360071e-12
    0.015321335728472022 0.0041128602281208125 7.422953154670326e-05 9.101556079783208e-07
    1.918459849597203e-09 -2.0115223833684939e-10 -3.4075546092925888e-12 0.019509337357673903
    0.004264056405885277 7.696944722300428e-05 9.157511194856339e-07 8.630552338952936e-10
    -2.206217602003077e-10 -3.0628501512600733e-12 0.02385127960130914 0.004420744884724033
    7.97196277679918e-05 9.169377332553319e-07 -2.839687774996189e-10 -2.376682187154037e-10
    -2.601103455275655e-12 0.028352660527342942 0.004582932614015042 8.246632273709483e-05
    9.133755034518891e-07 -1.5087855180596155e-09 -2.516198277981218e-10 -2.0336448353549254e-12
    0.033018971077214535 0.004750598081002126 8.519485133896402e-05 9.047862509213976e-07
    -2.7944126378802267e-09 -2.6189384742598707e-10 -1.3786816921446625e-12 0.037855665738182824
    0.004923689647538411 8.788980567842148e-05 8.909651624325638e-07 -4.121255495567415e-09
    -2.6803445109012967e-10 -6.600586913447297e-13 0.04286813176667764 0.0051021243257583695
    9.053528517823629e-05 8.717898652402521e-07 -5.467818370743342e-09 -2.6974134646367504e-10
    9.455000027283503e-14 0.048061657430081436 0.005285787046840306 9.311515369921398e-05
    8.472264085156879e-07 -6.811529831287326e-09 -2.668864554210666e-10 8.557691785515337e-13
    0.053441399779535034 0.0054745304585813075 9.56133095178282e-05 8.173318196393392e-07
    -8.129619035861155e-09 -2.595175593567022e-10 1.5946947289718067e-12 0.059012352491974535
    0.00566817526708585 9.801395771072873e-05 7.822531616648082e-07 -9.399978388606214e-09
    -2.478494323670605e-10 2.2848553377721228e-12 0.06477931432444685 0.005866511117001045
    0.00010030187465297066 7.42223266518724e-07 -1.0601954131065755e-08 -2.3224433632759722e-10
    2.9037722700865556e-12 0.07074685870812243 0.006069297984892121 0.00010246265518957047
    6.975535299372675e-07 -1.171701832498631e-08 -2.1318465819620494e-10 3.434008182334245e-12
    0.07691930497500629 0.006276268042800616 0.00010448293444804006 6.486243107139207e-07
    -1.2729290818924246e-08 -1.9124087143415962e-10 3.8636788495758745e-12 0.08330069165992961
    0.00648712793470041 0.00010635057804368583 5.958735704463481e-07 -1.3625895747379439e-08
    -1.6703794450265646e-10 4.186470453873857e-12 0.08989475225751935 0.006701561398025343
    0.00010805483640027255 5.397844216355705e-07 -1.4397151838022581e-08 -1.4122291147320024e-10
    4.401251946234055e-12 0.09670489374240616 0.006919232155880823 0.0001095864608908253
    4.808722296616917e-07 -1.503660789738861e-08 -1.1443570116092749e-10 4.51139557053007e-12
    0.10373417808487947 0.007139787002842635 0.00011093778135244825 4.1967185001579265e-07
    -1.5540943593506958e-08 -8.728462383942672e-11 4.523922061777047e-12 0.11098530691721639
    0.00736285900801132 0.00011210274614020673 3.5672549000031027e-07 -1.5909760939938057e-08
    -6.032724360763015e-11 4.448575792601507e-12 0.11846060943120733 0.0075880707626835645
    0.00011307692719458535 2.9257157723822996e-07 -1.6145294033023887e-08 -3.4056789752505026e-11
    4.2969152271253965e-12 0.1261620335175918 0.007815037605987613 0.00011385749357843687
    2.2773490719771718e-07 -1.6252064188303848e-08 -8.89381773163628e-12 4.08148070367607e-12
    0.1340911400951666 0.008043370769451377 0.00011444315759684844 1.6271823738675998e-07
    -1.6236505354237367e-08 1.481747224162505e-11 3.8150787267269685e-12 0.1422491005225537
    0.008272680390105428 0.00011483409797350437 9.799540297166126e-08 -1.6106581231264577e-08
    3.6809024665351584e-11 3.5102020771523778e-12 0.15063669693974518 0.008502578350812634
    0.00011503186466072222 3.400595082918696e-08 -1.587141148526834e-08 5.6885658543412004e-11
    3.1785893570990075e-12 0.15925432534979195 0.00873268091559631 0.00011503926975538126
    -2.884877217412172e-08 -1.554092028691034e-08 7.491955561325426e-11 2.8309163319730055e-12
    0.1681020012231706 0.008962611136441551 0.00011486026872899947 -9.020818581605376e-08
    -1.5125516470555493e-08 9.084325594850927e-11 2.4766042624644274e-12 0.17717936738792756
    0.009192001016100102 0.00011449983580428756 -1.4975383720901604e-07 -1.4635811105234973e-08
    1.0464180827186927e-10 2.1237266504943296e-12 0.18648570395691852 0.009420493418656228
    0.00011396383686451534 -2.072097117653664e-07 -1.4082375320227847e-08 1.1634460628847058e-10
    1.7789946554119913e-12 0.19601994003844614 0.009647743725906266 0.00011325890280133112
    -2.6234165710788614e-07 -1.3475538866155197e-08 1.260173251554122e-10 1.4478020962605089e-12
    0.2057806669773947 0.009873421242927808 0.00011239230571963744 -3.1495608075284815e-07
    -1.2825228100719472e-08 1.3375426272574725e-10 1.134312770971244e-12 0.2157661528795954
    0.01009721036057593 0.00011137183994630251 -3.6489807443857576e-07 -1.214084081314808e-08
    1.3967129370285956e-10 8.415752581908164e-13 0.22597435818169073 0.010318811486089995
    0.00011020570934824848 -4.1204910583243293e-07 -1.1431154470866454e-08 1.438995637764185e-10
    5.716530250319796e-13 0.23640295204131748 0.010537941755597814 0.00010890242206485233
    -4.563244036445055e-07 -1.0704264006818959e-08 1.4657998564762024e-10 3.2576027184554625e-13
    0.24704932933719798 0.010754335544151391 0.00010747069340528129 -4.976701462113939e-07
    -9.967545088323925e-09 1.4785854873659894e-10 1.043963331276468e-13 0.25791062808500814
    0.010967744790115886 0.00010591935735556464 -5.360605473932343e-07 -9.227638846955462e-09
    1.4788241767361342e-10 -9.25264693809511e-14 0.2689837470920673 0.011177939151357341
    0.00010425728688247623 -5.714949178880479e-07 -8.490454241457205e-09 1.4679676941494977e-10
    -2.655648941122774e-13 0.2802653636914522 0.01138470601082968 0.00010249332300940928
    -6.03994765318067e-07 -7.761184520165474e-09 1.4474230291582225e-10 -4.156387514063713e-13
    0.2917519514136562 0.011587850348935513 0.0001006362124698745 -6.336009830038389e-07
    -7.044334604122151e-09 1.4185334675372913e-10 -5.439376900765338e-13 0.3034397974710432
    0.011787194499509178 9.869455361282049e-05 -6.603711653870814e-07 -6.343756594702828e-09
    1.3825648714648316e-10 -6.518409125231385e-13 0.3153250199468394 0.01198257780551573
    9.667675013609386e-05 -6.843770776536405e-07 -5.662690996169452e-09 1.3406963992130923e-10
    -7.408493679226332e-13 0.3274035845960446 0.012173856189638859 9.459097215540315e-05
    -7.057022982230915e-07 -5.0038116170539546e-09 1.294014939013011e-10 -8.125295977889214e-13
    0.3396713211803125 0.0123609016538972 9.244512407165562e-05 -7.244400453348075e-07
    -4.369272463341432e-09 1.2435125887252953e-10 -8.684681815798015e-13 0.3521239392724423
    0.012543601721326993 9.024681867531598e-05 -7.406911928588836e-07 -3.7607552541694646e-09
    1.1900865799660603e-10 -9.10235616514263e-13 0.36475704347859195 0.012721858831636134
    8.80033569186835e-05 -7.54562475560977e-07 -3.179516473720609e-09 1.1345411165355452e-10
    -9.393584353624811e-13 0.3775661480376675 0.012895589701599873 8.572171279230192e-05
    -7.661648802111167e-07 -2.6264331201904594e-09 1.0775906681609085e-10 -9.572983940947369e-13
    0.3905466907675471 0.01306472465985476 8.340852275713994e-05 -7.756122160059414e-07
    -2.1020465249633554e-09 1.0198643287862217e-10 -9.654376283855933e-13 0.40369404633691724
    0.013229206964672682 8.10700792071581e-05 -7.830198556354776e-07 -1.6066037944010241e-09
    9.619109120585838e-11 -9.65068768953251e-13 0.41700353884956415 0.013388992112273674
    7.871232746525813e-05 -7.885036368427772e-07 -1.1400965756500074e-09 9.042045141935666e-11
    -9.573891092166167e-13 0.43047045373503373 0.013544047142273682 7.63408658476002e-05
    -7.921789133825199e-07 -7.022969696881237e-10 8.471503255661387e-11 -9.434980265113943e-13
    0.44409004894571774 0.01369434994596738 7.396094836541001e-05 -7.941597437807085e-07
    -2.927905126781275e-10 7.910905170936393e-11 -9.243969643349617e-13 0.45785756546570283
    0.013839888582319318 7.157748966849986e-05 -7.945582061423966e-07 8.89937762436344e-11
    7.363100659708278e-11 -9.009913839367628e-13 0.4717682371412105 0.013980660605780392
    6.919507186987257e-05 -7.934838273709215e-07 4.4375622332434204e-10 6.830424179838391e-11
    -8.740941866607658e-13 0.48581729984622235 0.014116672409360017 6.681795292524585e-05
    -7.91043115484973e-07 7.723021029653168e-10 6.31474910978335e-11 -8.444301925000842e-13
    0.5 0.014247938585765452 6.445007627456889e-05 -7.873391842705454e-07
    1.0755179877065323e-09 5.816778459515614e-11 -8.207654997808727e-13
""".split(), dtype=float)
# one contiguous row per coefficient, so each gather reads a 57-double table
_ERFCX_COLUMNS = _ERFCX.reshape(_ERFCX_PIECES + 1, _ERFCX_DEGREE + 1).T.copy()


def _log_ndtr(x, work=None):
    """log Phi(x), the log of the standard normal cdf, elementwise.

    With e = erfcx(|x| / sqrt 2), Phi(-|x|) = (e / 2) exp(-x^2 / 2), so

        x <= 0:  log Phi(x) = log(e / 2) - x^2 / 2
        x > 0:   log Phi(x) = log1p(-(e / 2) exp(-x^2 / 2))

    Both keep full relative accuracy, the first out to x = -inf and the
    second where Phi(-x) is far below an ulp of 1.  x^2 / 2 is formed from x,
    not from a rounded |x| / sqrt 2, whose rounding the exponent would
    magnify near x = 37.  Every element takes both branches and the sign
    picks one.  So that no pass meets a subnormal, for which ``exp`` and
    products are many times slower, the x > 0 branch holds the exponent at
    -700 or above and e / 2 at 0.01 or above: that alters it only beyond
    x = 37.4, where log Phi(x) is within 1e-300 of 0.

    The passes write into ``work``, four rows of the input's shape, and the
    result is the first of them: the skew-normal hands on rows of its own.
    Without ``work`` each row is an array of its own, so the result holds
    none of the others.  A 0-d input gives a numpy scalar.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return _log_ndtr(x[None])[0]
    work = _workspace(work, 4, x)
    r, coef, half_e = work[0], work[1], work[2]
    # the fourth row, read as 8-byte integers, holds each element's piece
    k = work[3].view(np.int64)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.abs(x, out=r)
        r += _ERFCX_SHIFT
        np.divide(_ERFCX_SHIFT * _ERFCX_PIECES, r, out=r)
        np.rint(r, out=coef)
        r -= coef
        # a nan gives a garbage index, which mode="clip" keeps in the table
        np.copyto(k, coef, casting="unsafe")
        _ERFCX_COLUMNS[-1].take(k, mode="clip", out=half_e)
        for column in _ERFCX_COLUMNS[-2::-1]:
            half_e *= r
            half_e += column.take(k, mode="clip", out=coef)
        neg_half_sq = np.multiply(x, x, out=coef)
        neg_half_sq *= -0.5
        left = np.log(half_e, out=r)
        left += neg_half_sq
        right = np.maximum(neg_half_sq, -700.0, out=neg_half_sq)
        np.exp(right, out=right)
        right *= np.maximum(half_e, 0.01, out=half_e)
        np.negative(right, out=right)
        np.log1p(right, out=right)
        np.copyto(left, right, where=x > 0)
    # the clamps leave -1e-306 at +inf
    np.copyto(left, 0.0, where=x == np.inf)
    return left


def _logpdf_sn(params, y, work=None):
    # log 2 + (-x^2 / 2 - log sqrt(2 pi)) + log Phi(lam x) - log sigma
    lam, mu, sigma = params
    work = _workspace(work, _WORK_ROWS, y, lam, mu, sigma)
    x = _standardise(y, mu, sigma, work[0])
    out = np.square(x, out=work[1])
    np.negative(out, out=out)
    out /= 2.0
    out -= _NORM_LOGC
    np.add(math.log(2.0), out, out=out)
    out += _log_ndtr(np.multiply(lam, x, out=x), work[2:])
    out -= np.log(sigma)
    return out[()]


def _log_aslg_constant(alpha):
    """log C(alpha) of the alpha-skew-logistic, for a float or a column."""
    return np.log(2.0 + _PI**2 * alpha * alpha / 3.0)


# The aslg and baslg2 kernels are  k log1p(w^2) + log g(x) - log beta -
# log C(alpha),  with w = 1 - alpha x: their power k and log C, by family
# name, since a caller may wrap the log-density itself
_SKEWED = {
    "aslg": (1.0, _log_aslg_constant),
    "baslg2": (2.0, _log_skew_constant),
}


def _logpdf_skewed(family, params, y, work):
    """The aslg or baslg2 log-density, with w = 1 - alpha x in ``work[2]``."""
    power, log_c = _SKEWED[family]
    alpha, mu, beta = params
    work = _workspace(work, 3, y, alpha, mu, beta)
    x = _standardise(y, mu, beta, work[0])
    out = np.multiply(alpha, x, out=work[2])
    np.subtract(1.0, out, out=out)
    out *= out
    np.log1p(out, out=out)
    if power != 1.0:
        out *= power
    out += _std_logistic_logpdf(x, work)
    out -= np.log(beta)
    out -= log_c(alpha)
    return out[()]


def _logpdf_aslg(params, y, work=None):
    return _logpdf_skewed("aslg", params, y, work)


def _logpdf_baslg2(params, y, work=None):
    return _logpdf_skewed("baslg2", params, y, work)


# ---------------------------------------------------------------------------
# moment-matched starting points
# ---------------------------------------------------------------------------

def _rescaled(stat, data: np.ndarray) -> float:
    """``stat`` of the data scaled by the power of two that puts their
    largest magnitude in [1/2, 1), scaled back: exact steps."""
    shift = -math.frexp(float(np.max(np.abs(data))))[1]
    return math.ldexp(float(stat(np.ldexp(data, shift))), -shift)


def _mean(data: np.ndarray) -> float:
    """np.mean of the data, or ``_rescaled`` where the sum overflows; every
    other mean is left as it was."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = float(np.mean(data))
    return m if math.isfinite(m) else _rescaled(np.mean, data)


def _std(data: np.ndarray) -> float:
    """np.std of the data, or ``_rescaled`` where the squares overflow, or
    the variance is subnormal and has lost its digits; every other std is
    left as it was."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = float(np.std(data))
    return s if 2.0**-511 <= s < math.inf else _rescaled(np.std, data)


def _spread(data: np.ndarray) -> float:
    """The std of the data, 1e-6 where it is 0: a start's scale."""
    s = _std(data)
    return s if s > 0.0 else 1e-6


def _start_n(data):
    return (_mean(data), _spread(data))


def _start_lg(data):
    return (_mean(data), _spread(data) * math.sqrt(3.0) / _PI)


def _start_la(data):
    # np.median's value (sums start from +0.0, as in np.mean) without its NaN
    # check, which imports numpy.ma (7.6-7.9 ms cold); the data are finite
    n = data.size
    part = np.partition(data, [(n - 1) // 2, n // 2])
    hi = float(part[n // 2])
    med = 0.0 + hi if n % 2 else (0.0 + float(part[(n - 1) // 2]) + hi) / 2.0
    mad = _mean(np.abs(data - med))
    return (med, mad if mad > 0.0 else 1e-6)


def _start_sn(data):
    mean = _mean(data)
    sd = _spread(data)
    x = (data - mean) / sd
    g1 = float(np.mean(x**3))
    g1 = float(np.clip(g1, -0.98, 0.98))
    t = abs(g1) ** (2.0 / 3.0)
    delta2 = 0.5 * _PI * t / (t + ((4.0 - _PI) / 2.0) ** (2.0 / 3.0))
    delta2 = min(delta2, 0.98)
    delta = math.copysign(math.sqrt(delta2), g1)
    lam = delta / math.sqrt(1.0 - delta * delta)
    sigma = sd / math.sqrt(max(1.0 - 2.0 * delta * delta / _PI, 0.05))
    mu = mean - sigma * delta * math.sqrt(2.0 / _PI)
    return (float(np.clip(lam, -20.0, 20.0)), mu, sigma)


def _start_shape_logistic(data):
    mu, beta = _start_lg(data)
    return (0.0, mu, beta)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyInfo:
    """One family: its parameters, log-density and moment-matched start.

    ``exact`` marks a family whose ``start`` is its maximum-likelihood
    estimate, so that ``fit_mle`` returns it without a search.
    """

    name: str
    label: str
    param_names: tuple[str, ...]
    logpdf: Callable[..., np.ndarray]
    start: Callable[[np.ndarray], tuple]
    exact: bool = False

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    def log_likelihood(self, params, data) -> float:
        data = validate_data(data)
        self.validate_params(params)
        return float(np.sum(_logpdf_at(self.name, self.logpdf, tuple(map(float, params)), data)))

    def validate_params(self, params):
        if len(params) != self.n_params:
            raise ValueError(
                f"family {self.name!r} takes {self.n_params} parameters "
                f"{self.param_names}, got {len(params)}."
            )
        vals = [float(v) for v in params]
        if any(not math.isfinite(v) for v in vals):
            raise ValueError("parameters must be finite.")
        if vals[-1] <= 0.0:
            raise ValueError("scale parameter must be > 0.")
        if self.param_names[0] == "alpha":
            _check_alpha(vals[0])
        return vals


FAMILIES: dict[str, FamilyInfo] = {
    "n": FamilyInfo("n", "normal", ("mu", "sigma"), _logpdf_n, _start_n, exact=True),
    "lg": FamilyInfo("lg", "logistic", ("mu", "beta"), _logpdf_lg, _start_lg),
    "la": FamilyInfo("la", "laplace", ("mu", "beta"), _logpdf_la, _start_la, exact=True),
    "sn": FamilyInfo("sn", "skew-normal", ("lambda", "mu", "sigma"), _logpdf_sn, _start_sn),
    "aslg": FamilyInfo(
        "aslg", "alpha-skew-logistic", ("alpha", "mu", "beta"), _logpdf_aslg, _start_shape_logistic
    ),
    "baslg2": FamilyInfo(
        "baslg2",
        "balakrishnan-alpha-skew-logistic",
        ("alpha", "mu", "beta"),
        _logpdf_baslg2,
        _start_shape_logistic,
    ),
}


# ---------------------------------------------------------------------------
# parameter boxes for the optimizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSpace:
    """Box constraints in internal coordinates (scales are log-transformed)."""

    names: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    log_scale: tuple[bool, ...]

    def to_natural(self, x) -> tuple[float, ...]:
        return tuple(
            float(np.exp(v)) if is_log else float(v) for v, is_log in zip(x, self.log_scale)
        )

    def to_natural_columns(self, xs) -> tuple[np.ndarray, ...]:
        """Natural parameters of the rows of ``xs`` (R, d), one (R, 1) column each.

        Row i holds ``to_natural(xs[i])`` exactly: log-scales go through
        ``np.exp``, which ``to_natural`` also calls.  Each column is sliced
        from ``xs``, since iterating over a transposed (d, R, 1) view takes
        a quarter longer, and a search calls this once per block call.
        """
        xs = np.asarray(xs, float)
        return tuple([np.exp(xs[:, k:k + 1]) if is_log else xs[:, k:k + 1]
                      for k, is_log in enumerate(self.log_scale)])

    def to_internal(self, params) -> np.ndarray:
        vals = [
            math.log(v) if is_log else float(v)
            for v, is_log in zip(params, self.log_scale)
        ]
        return np.clip(np.asarray(vals), self.lower, self.upper)


def param_space(family: str, data) -> ParamSpace:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}.")
    data = validate_data(data)
    spread = _data_range(data) or 1.0
    lo, hi = float(np.min(data)), float(np.max(data))
    lo_mu = lo - 3.0 * spread
    hi_mu = hi + 3.0 * spread
    lo_scale = math.log(1e-8)
    hi_scale = math.log(3.0 * spread)
    if not (math.isfinite(lo_mu) and math.isfinite(hi_mu) and math.isfinite(hi_scale)):
        raise ValueError(f"the data range [{lo!r}, {hi!r}] is too wide: the search box "
                         "around it overflows a double.")
    names = FAMILIES[family].param_names
    lower, upper, log_scale = [], [], []
    for name in names:
        if name in ("alpha", "lambda"):
            lower.append(-50.0)
            upper.append(50.0)
            log_scale.append(False)
        elif name == "mu":
            lower.append(lo_mu)
            upper.append(hi_mu)
            log_scale.append(False)
        else:
            lower.append(lo_scale)
            upper.append(hi_scale)
            log_scale.append(True)
    return ParamSpace(names, tuple(lower), tuple(upper), tuple(log_scale))


# ---------------------------------------------------------------------------
# user-facing model objects
# ---------------------------------------------------------------------------

def _logpdf_wide(family, params, y):
    """The aslg or baslg2 log-density where ``w * w`` overflows a double.

    There the kernel's log1p(w^2) reads +inf; it is 2 log|w| + log1p(w^-2),
    and the second term, below 1.1e-308 beside 2 log|w| >= 709, is under
    half an ulp of the first, so it is left out.  |w| is above 1.3e154, so
    w = -alpha x to a relative 1e-154, and log|w| is taken as
    log|alpha| + log|x|, because alpha x itself may overflow.
    """
    power, log_c = _SKEWED[family]
    alpha, mu, beta = params
    x = (y - mu) / beta
    log_w = np.log(abs(alpha)) + np.log(np.abs(x))
    return (
        power * (2.0 * log_w)
        + _std_logistic_logpdf(x)
        - np.log(beta)
        - log_c(alpha)
    )


def _logpdf_at(family, logpdf, params, y):
    """``logpdf(params, y)``, the log-density of ``family``, for the public
    log-densities and likelihoods.

    The family log-densities are the fit search's kernels, and they are
    written for the residuals a search meets.  Two cases are mended here:

    - A y whose standardised residual x = (y - mu) / scale is infinite,
      y = +-inf included, reads -inf.  The aslg and baslg2 kernels meet
      inf - inf there, and a zero shape parameter makes 0 * inf, so those
      points are evaluated at mu instead and then set to -inf.
    - Where the aslg and baslg2 kernels' ``w * w`` overflows, they read
      +inf, and ``_logpdf_wide`` recomputes those entries.

    Every other entry keeps the kernel's bits, and no overflow warning
    escapes.
    """
    y = np.asarray(y, float)
    mu, scale = params[-2:]
    with np.errstate(over="ignore"):
        infinite = np.isinf((y - mu) / scale)
        out = logpdf(params, np.where(infinite, mu, y))
    wide = out == np.inf
    if wide.any():
        out = np.array(out)
        out[wide] = _logpdf_wide(family, params, y[wide])
    return np.where(infinite, -np.inf, out)[()]


@dataclass(frozen=True)
class LocScaleModel:
    """BASLG2(alpha) shifted by mu and scaled by beta > 0."""

    alpha: float
    mu: float = 0.0
    beta: float = 1.0

    def __post_init__(self):
        vals = FAMILIES["baslg2"].validate_params((self.alpha, self.mu, self.beta))
        object.__setattr__(self, "alpha", vals[0])
        object.__setattr__(self, "mu", vals[1])
        object.__setattr__(self, "beta", vals[2])

    def standard(self) -> StandardBaslg:
        return StandardBaslg(self.alpha)

    def params(self) -> tuple[float, float, float]:
        return (self.alpha, self.mu, self.beta)

    def _residual(self, y):
        """(y - mu) / beta; where it overflows, +-inf is the right residual."""
        with np.errstate(over="ignore"):
            return (np.asarray(y, float) - self.mu) / self.beta

    def pdf(self, y):
        return self.standard().pdf(self._residual(y)) / self.beta

    def cdf(self, y):
        return self.standard().cdf(self._residual(y))

    def sf(self, y):
        return self.standard().sf(self._residual(y))

    def logpdf(self, y):
        return _logpdf_at("baslg2", _logpdf_baslg2, self.params(), y)

    def log_likelihood(self, data) -> float:
        return FAMILIES["baslg2"].log_likelihood(self.params(), data)

    def sample(self, n, cfg: SamplerConfig = SamplerConfig()) -> np.ndarray:
        """mu + beta z for n standard draws z.  Where beta z overflows but
        the sum need not, the entry is 2 (mu/2 + (beta/2) z), whose halvings
        and doubling are exact, so it is the sum rounded once."""
        z = sample(self.standard(), n, cfg)
        with np.errstate(over="ignore"):
            out = self.mu + self.beta * z
            wide = np.isinf(out)
            out[wide] = 2.0 * (self.mu / 2.0 + (self.beta / 2.0) * z[wide])
        return out


@dataclass(frozen=True)
class CompetitorModel:
    """One of the reference families at fixed parameters."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in FAMILIES or self.family == "baslg2":
            raise ValueError(
                f"competitor family must be one of "
                f"{sorted(set(FAMILIES) - {'baslg2'})}, got {self.family!r}."
            )
        vals = FAMILIES[self.family].validate_params(self.params)
        object.__setattr__(self, "params", tuple(vals))

    def logpdf(self, y):
        return _logpdf_at(self.family, FAMILIES[self.family].logpdf, self.params, y)

    def pdf(self, y):
        return np.exp(self.logpdf(y))

    def log_likelihood(self, data) -> float:
        return FAMILIES[self.family].log_likelihood(self.params, data)
