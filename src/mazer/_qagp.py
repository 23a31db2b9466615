"""QUADPACK's QAGP, run in lockstep over many integrals of one array integrand.

A line-by-line port of `dqagpe` with `dqk21`, `dqpsrt` and `dqelg`
(Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, QUADPACK, 1983):
the same 21-point Gauss-Kronrod rule, bisection of the interval with the
largest error estimate, Wynn epsilon extrapolation, roundoff and stopping
tests.  Each integral takes the decisions `scipy.integrate.quad(f, a, b,
points=...)` takes, so it bisects the same intervals and returns the same
result up to the rounding of the integrand.

The port is a generator: it yields the intervals it needs ruled, first the
npts + 1 intervals of the first pass and then the two halves of each
bisection, and is sent back their `dqk21` results.  `qagp` runs any number
of these integrals together: each round it evaluates the integrand once, on
the 21 Kronrod nodes of every interval that any unfinished integral asked
for, and hands each integral its own rows.

The work arrays are 1-based, as in the Fortran (entry 0 is unused), so the
port can be read against it statement by statement.
"""

from __future__ import annotations

import math
import sys
from itertools import islice
from typing import Callable, Generator, NamedTuple, Sequence

import numpy as np

EPMACH = sys.float_info.epsilon  # d1mach(4)
UFLOW = sys.float_info.min  # d1mach(1)
OFLOW = sys.float_info.max  # d1mach(2)

# 21-point Kronrod abscissae on [-1, 1] (xgk(11) = 0 is the centre), their
# weights, and the weights of the 10-point Gauss rule on xgk(2), xgk(4), ...
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208745046429,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_XGK_ARRAY = np.array(_XGK)


class QagpProblem(NamedTuple):
    """One integral over [a, b], a < b, with breakpoints and `dqagpe`'s tolerances."""

    a: float
    b: float
    points: Sequence[float]
    epsabs: float
    epsrel: float
    limit: int


class QagpResult(NamedTuple):
    """`dqagpe`'s result, abserr, neval, ier and last."""

    value: float
    abserr: float
    neval: int
    ier: int
    last: int


def _nodes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 21 Kronrod nodes of each interval [a_i, b_i], one row per interval.

    Row layout: the centre, then centr - hlgth xgk(j) and centr + hlgth
    xgk(j) for j = 1..10, computed as `dqk21` computes them.
    """
    centr = (0.5 * (a + b))[:, None]
    absc = (0.5 * (b - a))[:, None] * _XGK_ARRAY
    return np.concatenate([centr, centr - absc, centr + absc], axis=1)


def _qk21(fv: Sequence[float], a: float, b: float):
    """`dqk21` on the 21 integrand values `fv` laid out as `_nodes` lays them.

    Returns (result, abserr, resabs, resasc), summed in the Fortran's order.
    """
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fc = fv[0]
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        fval1 = fv[1 + j]
        fval2 = fv[11 + j]
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv[1 + j] - reskh) + abs(fv[11 + j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, r**1.5), without the OverflowError of a huge r**1.5
        ratio = 200.0 * abserr / resasc
        abserr = resasc * (1.0 if ratio >= 1.0 else ratio**1.5)
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist, iord, nrmax: int):
    """`dqpsrt`: keep iord descending in elist; returns (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        if nrmax != 1:
            for _ in range(nrmax - 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax -= 1
        jupbn = last if last <= limit // 2 + 2 else limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmax here, then errmin traversing bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab, res3la, nres: int):
    """`dqelg`, Wynn's epsilon algorithm; returns (result, abserr, n, nres)."""
    nres += 1
    abserr = OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = OFLOW
        num = n
        k1 = n
        converged = False
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * EPMACH
            if err2 <= tol2 and err3 <= tol3:
                # e0, e1 and e2 agree to machine accuracy
                result = res
                abserr = err2 + err3
                converged = True
                break
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if not abs(ss * e1) > 1e-4:
                # irregular behaviour in the table
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if error <= abserr:
                abserr = error
                result = res
        if not converged:
            if n == limexp:
                n = 2 * (limexp // 2) - 1
            ib = 2 if num % 2 == 0 else 1
            for _ in range(newelm + 1):
                epstab[ib] = epstab[ib + 2]
                ib += 2
            if num != n:
                indx = num - n + 1
                for i in range(1, n + 1):
                    epstab[i] = epstab[indx]
                    indx += 1
            if nres < 4:
                res3la[nres] = result
                abserr = OFLOW
            else:
                abserr = (
                    abs(result - res3la[3])
                    + abs(result - res3la[2])
                    + abs(result - res3la[1])
                )
                res3la[1] = res3la[2]
                res3la[2] = res3la[3]
                res3la[3] = result
    abserr = max(abserr, 5.0 * EPMACH * abs(result))
    return result, abserr, n, nres


def _dqagpe(
    a: float,
    b: float,
    points: Sequence[float],
    epsabs: float,
    epsrel: float,
    limit: int,
) -> Generator[tuple[Sequence[float], Sequence[float]], list, QagpResult]:
    """`dqagpe` on [a, b] with breakpoints `points`, as a generator.

    It yields the left and right ends of the intervals it needs ruled, is
    sent their `_qk21` results, and returns its `QagpResult`.

    Raises ValueError, at its first step, for a >= b, and where `dqagpe`
    returns ier = 6 for invalid input: a breakpoint outside [a, b],
    limit <= len(points), or tolerances that cannot be met.
    """
    npts = len(points)
    npts2 = npts + 2
    if limit <= npts or (epsabs <= 0.0 and epsrel < max(50.0 * EPMACH, 0.5e-28)):
        raise ValueError(
            f"invalid QAGP input: limit={limit}, {npts} breakpoints, "
            f"epsabs={epsabs}, epsrel={epsrel}"
        )
    pts = sorted([a, *points, b])
    if not a < b or pts[0] != a or pts[-1] != b:
        raise ValueError(f"need a < b and breakpoints in [a, b]: [{a}, {b}]")
    nint = npts + 1

    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 2)
    level = [0] * (limit + 1)
    ndin = [0] * (nint + 1)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4

    # first integral and error approximations
    ier = 0
    result = 0.0
    abserr = 0.0
    resabs = 0.0
    first = yield pts[:-1], pts[1:]
    for i, (area1, error1, defabs, resa) in enumerate(first, start=1):
        abserr = abserr + error1
        result = result + area1
        ndin[i] = 1 if (error1 == resa and error1 != 0.0) else 0
        resabs = resabs + defabs
        level[i] = 0
        elist[i] = error1
        alist[i] = pts[i - 1]
        blist[i] = pts[i]
        rlist[i] = area1
        iord[i] = i
    errsum = 0.0
    for i in range(1, nint + 1):
        if ndin[i] == 1:
            elist[i] = abserr
        errsum = errsum + elist[i]

    # test on accuracy
    last = nint
    neval = 21 * nint
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if abserr <= 100.0 * EPMACH * resabs and abserr > errbnd:
        ier = 2
    if nint > 1:
        for i in range(1, npts + 1):
            ind1 = iord[i]
            for j in range(i + 1, nint + 1):
                ind2 = iord[j]
                if not elist[ind1] > elist[ind2]:
                    ind1 = ind2
                    k = j
            if ind1 != iord[i]:
                iord[k] = iord[i]
                iord[i] = ind1
        if limit < npts2:
            ier = 1
    if ier != 0 or abserr <= errbnd:
        return _finish(result, abserr, neval, ier, last)

    # initialization
    rlist2[1] = result
    maxerr = iord[1]
    errmax = elist[maxerr]
    area = result
    nrmax = 1
    nres = 0
    numrl2 = 1
    ktmin = 0
    extrap = False
    noext = False
    erlarg = errsum
    ertest = errbnd
    levmax = 1
    iroff1 = iroff2 = iroff3 = 0
    ierro = 0
    correc = 0.0
    abserr = OFLOW
    ksgn = 1 if dres >= (1.0 - 50.0 * EPMACH) * resabs else -1

    # main loop: bisect the interval with the nrmax-th largest error estimate;
    # exit_to is the Fortran label the loop leaves to
    exit_to = 170
    for last in range(npts2, limit + 1):
        levcur = level[maxerr] + 1
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        (area1, error1, _, defab1), (area2, error2, _, defab2) = yield (
            (a1, a2), (b1, b2)
        )

        # improve previous approximations to integral and error, test accuracy
        neval += 42
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (
                abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                or erro12 < 0.99 * errmax
            ):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        level[maxerr] = levcur
        level[last] = levcur
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # roundoff, the subdivision limit, and bad behaviour at a point
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
            ier = 4

        # append the newly created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            exit_to = 190
            break
        if ier != 0:
            break
        if noext:
            continue
        erlarg = erlarg - erlast
        if levcur + 1 <= levmax:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if level[maxerr] + 1 <= levmax:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: before bisecting,
            # decrease the sum of the errors over the larger intervals
            jupbnd = last if last <= 2 + limit // 2 else limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if level[maxerr] + 1 <= levmax:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # perform extrapolation
        numrl2 += 1
        rlist2[numrl2] = area
        if numrl2 > 2:
            reseps, abseps, numrl2, nres = _qelg(numrl2, rlist2, res3la, nres)
            ktmin += 1
            if ktmin > 5 and abserr < 1e-3 * errsum:
                ier = 5
            if abseps < abserr:
                ktmin = 0
                abserr = abseps
                result = reseps
                correc = erlarg
                ertest = max(epsabs, epsrel * abs(reseps))
                if abserr < ertest:
                    break
            # prepare bisection of the smallest interval
            if numrl2 == 1:
                noext = True
            if ier >= 5:
                break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        levmax += 1
        erlarg = errsum

    # set the final result
    if exit_to == 170:
        if abserr == OFLOW:
            exit_to = 190
        elif ier + ierro == 0:
            exit_to = 180
        else:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                exit_to = 190 if abserr / abs(result) > errsum / abs(area) else 180
            elif abserr > errsum:
                exit_to = 190
            else:
                exit_to = 210 if area == 0.0 else 180
    if exit_to == 180:
        # test on divergence
        if not (ksgn == -1 and max(abs(result), abs(area)) <= resabs * 0.01):
            ratio = result / area if area != 0.0 else (math.inf if result else math.nan)
            if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                ier = 6
    elif exit_to == 190:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    return _finish(result, abserr, neval, ier, last)


def _finish(result, abserr, neval, ier, last) -> QagpResult:
    if ier > 2:
        ier -= 1
    return QagpResult(result, abserr, neval, ier, last)


def qagp(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    problems: Sequence[QagpProblem],
) -> list[QagpResult]:
    """Every problem's integral by `dqagpe`, in lockstep: one call of f per round.

    `f(x, owner)` maps a 1-d array of abscissae to the array of integrand
    values, where x[i] belongs to problems[owner[i]].  Each round rules every
    interval that the unfinished problems asked for, so each problem takes
    exactly the steps, and returns exactly the result, it would take alone.
    Raises ValueError for an invalid problem, before f is called.
    """
    ports = [_dqagpe(*problem) for problem in problems]
    asks = {i: next(port) for i, port in enumerate(ports)}
    results: list = [None] * len(ports)
    while asks:
        lo = [x for left, _ in asks.values() for x in left]
        hi = [x for _, right in asks.values() for x in right]
        nodes = _nodes(np.array(lo, dtype=float), np.array(hi, dtype=float))
        owner = np.repeat(list(asks), [21 * len(left) for left, _ in asks.values()])
        values = np.asarray(f(nodes.ravel(), owner), dtype=float)
        rows = zip(values.reshape(nodes.shape), lo, hi)
        asked, asks = asks, {}
        for i, (left, _) in asked.items():
            # one interval's values become Python floats at a time, which
            # keeps few of them alive
            ruled = [_qk21(fv.tolist(), a, b) for fv, a, b in islice(rows, len(left))]
            try:
                asks[i] = ports[i].send(ruled)
            except StopIteration as done:
                results[i] = done.value
    return results
