"""Adaptive quadrature on a finite interval, on numpy alone.

A port of QUADPACK's QAGS and QAGP (``dqagse``/``dqagpe`` with ``dqk21``,
``dqpsrt`` and ``dqelg``; R. Piessens, E. de Doncker-Kapenga, C. Ueberhuber
and D. Kahaner, *QUADPACK*, Springer 1983), the routines scipy's
``quad`` runs on a finite interval without and with breakpoints.
Importing scipy's integration package costs far more than any quadrature
this package runs, so the algorithm lives here:

- each interval is integrated by the 21-point Gauss-Kronrod rule, whose
  difference from the embedded 10-point Gauss rule estimates the error;
- the interval with the largest error is bisected until the total error
  meets ``max(epsabs, epsrel * |integral|)``;
- ``points`` start the subdivision at the breakpoints (QAGP);
- when the smallest intervals carry the largest errors, Wynn's
  epsilon-algorithm extrapolates the sequence of integral estimates,
  which resolves integrable end-point singularities.

The integrand is called on arrays: once for the 21 nodes of every initial
interval, then once per bisection for the 42 nodes of both halves. The
bookkeeping follows the Fortran statement by statement, and its lists keep
QUADPACK's 1-based indices (element 0 is unused), so the port reads
against the original; the Kronrod sums run in the original order.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = ["QuadratureError", "quad"]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


EPSREL = 1.49e-8  # scipy's quad default
LIMIT = 200

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
# the epsilon table's sentinel: an inf would make every difference against
# it infinite and stop the table after one step
_OFLOW = sys.float_info.max

# Kronrod nodes xgk(1..10) (the 11th is the centre) and weights wgk(1..11);
# the even-numbered nodes xgk(2), xgk(4), ..., xgk(10) are the 10-point
# Gauss nodes, with weights wg(1..5)
_XGK = np.array([
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
])
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077715963932340,
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
# 0-based positions in _XGK of the Gauss nodes, then of the Kronrod-only ones
_GAUSS = (1, 3, 5, 7, 9)
_KRONROD = (0, 2, 4, 6, 8)

_MESSAGES = {
    1: "the maximum number of subdivisions ({limit}) was reached",
    2: "roundoff error prevents the requested tolerance",
    3: "extremely bad integrand behaviour inside the interval",
    4: "roundoff error in the extrapolation table",
    5: "the integral is probably divergent or slowly convergent",
}


def _dqk21(func, lo, hi):
    """``dqk21`` on each interval ``[lo[i], hi[i]]``, in one integrand call.

    Returns ``(result, abserr, resabs, resasc)`` per interval: the Kronrod
    estimate, its error estimate, and the rule applied to ``|f|`` and to
    ``|f - mean|``.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    centr = 0.5 * (lo + hi)
    hlgth = 0.5 * (hi - lo)
    absc = hlgth[:, None] * _XGK
    nodes = np.concatenate((centr[:, None], centr[:, None] - absc,
                            centr[:, None] + absc), axis=1)
    values = np.asarray(func(nodes.ravel()), dtype=float)
    out = []
    for row, half in zip(values.reshape(nodes.shape).tolist(),
                         hlgth.tolist()):
        fc = row[0]
        fv1 = row[1:11]
        fv2 = row[11:]
        resg = 0.0
        resk = _WGK[10] * fc
        resabs = abs(resk)
        for j in _GAUSS:
            fsum = fv1[j] + fv2[j]
            resg = resg + _WG[j // 2] * fsum
            resk = resk + _WGK[j] * fsum
            resabs = resabs + _WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
        for j in _KRONROD:
            fsum = fv1[j] + fv2[j]
            resk = resk + _WGK[j] * fsum
            resabs = resabs + _WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
        reskh = resk * 0.5
        resasc = _WGK[10] * abs(fc - reskh)
        for j in range(10):
            resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh)
                                         + abs(fv2[j] - reskh))
        dhlgth = abs(half)
        resabs = resabs * dhlgth
        resasc = resasc * dhlgth
        abserr = abs((resk - resg) * half)
        if resasc != 0.0 and abserr != 0.0:
            abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
        if resabs > _UFLOW / (50.0 * _EPMACH):
            abserr = max((_EPMACH * 50.0) * resabs, abserr)
        out.append((resk * half, abserr, resabs, resasc))
    return out


def _dqpsrt(limit, last, maxerr, elist, iord, nrmax):
    """Keep ``iord`` sorted by descending error; return the next interval.

    Returns ``(maxerr, errmax, nrmax)``: the index of the interval with
    the ``nrmax``-th largest error, that error, and ``nrmax``.
    """
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
        # only as many errors as subdivisions remain are kept in order
        jupbn = last if last <= limit // 2 + 2 else limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmax here, then errmin bottom-up
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


def _dqelg(n, epstab, res3la, nres):
    """One step of Wynn's epsilon-algorithm on ``epstab[1..n]``.

    Returns ``(n, result, abserr, nres)``: the table's new length, the
    extrapolated limit and its error estimate, and the call count.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
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
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 agree to machine accuracy: converged
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        if not abs(ss * e1) > 1e-4:
            # irregular behaviour: drop the rest of the table
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error <= abserr:
            abserr = error
            result = res
    # shift the table
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
        abserr = _OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def quad(func, a: float, b: float, epsabs: float, epsrel: float = EPSREL,
         limit: int = LIMIT, points=None) -> tuple[float, float]:
    """Integrate ``func`` over ``[a, b]``, ``a <= b``, to
    ``max(epsabs, epsrel * |integral|)``.

    ``func`` maps an array of nodes to an array of values. Without
    ``points`` this is QAGS; with them (values outside ``(a, b)`` are
    dropped) it is QAGP, started from the breakpoints. Returns the integral
    and its error estimate. Raises QuadratureError where scipy's ``quad``
    warns: too many subdivisions, roundoff, bad integrand behaviour, or
    divergence.
    """
    qags = points is None
    breaks = [a] + sorted({float(p) for p in points or () if a < p < b}) + [b]
    nint = len(breaks) - 1
    if not a <= b or limit < nint or (
            epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28)):
        raise ValueError("quad needs a <= b, a limit of at least one "
                         "interval per breakpoint and a positive tolerance")
    size = limit + 1
    alist = [0.0] * size
    blist = [0.0] * size
    rlist = [0.0] * size
    elist = [0.0] * size
    iord = [0] * size
    level = [0] * size
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    ier = 0

    # first approximation: the Kronrod rule on each initial interval
    first = _dqk21(func, breaks[:-1], breaks[1:])
    result = 0.0
    abserr = 0.0
    absint = 0.0  # the rule applied to |f|
    flat = []
    for i, (area1, error1, defabs, resasc) in enumerate(first, start=1):
        abserr = abserr + error1
        result = result + area1
        absint = absint + defabs
        # an interval whose error is its whole spread gets the total error
        flat.append(error1 == resasc and error1 != 0.0)
        alist[i] = breaks[i - 1]
        blist[i] = breaks[i]
        rlist[i] = area1
        elist[i] = error1
        iord[i] = i
    errsum = 0.0
    for i in range(1, nint + 1):
        if flat[i - 1]:
            elist[i] = abserr
        errsum = errsum + elist[i]
    last = nint
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if abserr <= 100.0 * _EPMACH * absint and abserr > errbnd:
        ier = 2
    if qags:
        if limit == 1:
            ier = 1
        done = (ier != 0 or (abserr <= errbnd and abserr != first[0][3])
                or abserr == 0.0)
    else:
        # order the initial intervals by descending error
        for i in range(1, nint):
            ind1 = iord[i]
            k = i
            for j in range(i + 1, nint + 1):
                ind2 = iord[j]
                if not elist[ind1] > elist[ind2]:
                    ind1 = ind2
                    k = j
            if ind1 != iord[i]:
                iord[k] = iord[i]
                iord[i] = ind1
        if nint > 1 and limit < nint + 1:
            ier = 1
        done = ier != 0 or abserr <= errbnd
    if done:
        return _finish(result, abserr, ier, limit)

    rlist2[1] = result
    maxerr = iord[1]
    errmax = elist[maxerr]
    area = result
    nrmax = 1
    nres = 0
    numrl2 = 2 if qags else 1
    ktmin = 0
    extrap = False
    noext = False
    erlarg = errsum
    ertest = errbnd
    correc = 0.0
    # an interval is "large" while it is longer than ``small`` (QAGS) or
    # its bisection level is below ``levmax`` (QAGP)
    small = 0.0
    levmax = 1
    iroff1 = iroff2 = iroff3 = 0
    ierro = 0
    abserr = _OFLOW
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * absint else -1

    def large(index):
        if qags:
            return abs(blist[index] - alist[index]) > small
        return level[index] < levmax

    sum_up = False
    for last in range(nint + 1, limit + 1):
        # bisect the interval with the nrmax-th largest error
        levcur = level[maxerr] + 1
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        (area1, error1, _, defab1), (area2, error2, _, defab2) = _dqk21(
            func, (a1, a2), (b1, b2))
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if (abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12)
                    and erro12 >= 0.99 * errmax):
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
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        # an interval too short to bisect: bad integrand behaviour there
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (
                abs(a2) + 1000.0 * _UFLOW):
            ier = 4
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
        maxerr, errmax, nrmax = _dqpsrt(limit, last, maxerr, elist, iord,
                                        nrmax)
        if errsum <= errbnd:
            sum_up = True
            break
        if ier != 0:
            break
        if qags and last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if (abs(b1 - a1) > small) if qags else levcur < levmax:
            erlarg = erlarg + erro12
        if not extrap:
            # go on bisecting while the next interval is a large one
            if large(maxerr):
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: bisect the
            # large intervals, most erroneous first, before extrapolating
            jupbnd = last if last <= 2 + limit // 2 else limit + 3 - last
            found = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if large(maxerr):
                    found = True
                    break
                nrmax += 1
            if found:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        if qags or numrl2 > 2:
            numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la,
                                                  nres)
            ktmin += 1
            if ktmin > 5 and abserr < 1e-3 * errsum:
                ier = 5
            if abseps < abserr:
                ktmin = 0
                abserr = abseps
                result = reseps
                correc = erlarg
                ertest = max(epsabs, epsrel * abs(reseps))
                if abserr <= ertest if qags else abserr < ertest:
                    break
            if numrl2 == 1:
                noext = True
            if ier == 5:
                break
        # prepare the bisection of the smallest intervals
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        levmax += 1
        erlarg = errsum

    if not sum_up:
        # choose between the extrapolated result and the sum of intervals
        sum_up = abserr == _OFLOW
        test_divergence = not sum_up
        if not sum_up and ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                sum_up = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                sum_up = True
            elif area == 0.0:
                test_divergence = False
            test_divergence = test_divergence and not sum_up
        if test_divergence and not (
                ksgn == -1 and max(abs(result), abs(area)) <= absint * 0.01):
            if (area == 0.0 or not 0.01 <= result / area <= 100.0
                    or errsum > abs(area)):
                ier = 6
    if sum_up:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return _finish(result, abserr, ier, limit)


def _finish(result, abserr, ier, limit):
    if ier:
        raise QuadratureError("quadrature did not converge: "
                              + _MESSAGES[ier].format(limit=limit))
    return result, abserr
