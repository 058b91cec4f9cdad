"""A textbook reference of tkrr's six methods in plain NumPy, for the oracle test.

Written from the estimators' definitions, with none of the program's
machinery: a dense Gram from broadcast distances, np.linalg.solve, pooling
in index order, and every candidate fitted and evaluated on its own. A
method returns its prediction function; sa_tkrr also returns its pair.
"""

import math

import numpy as np


def gram(a, b, bw):
    return np.exp(-((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2) / bw)


class Fit:
    """f(x) = sum_i coef_i K(x, anchors_i), the solution of (K + n lam I) coef = y."""

    def __init__(self, x, y, lam, bw):
        self.anchors, self.bw = x, bw
        self.coef = np.linalg.solve(gram(x, x, bw) + len(y) * lam * np.eye(len(y)), y)

    def __call__(self, x):
        return gram(x, self.anchors, self.bw) @ self.coef


def lam_source(n, sched):
    return sched.scale * n ** (-1.0 / (2.0 * sched.r + sched.alpha))


def lam_debias(n0, h, sched):
    e = 1.0 / (1.0 + sched.alpha)
    return sched.scale * max(h, 1e-3) ** (-2.0 * e) * n0 ** (-e)


def krr(target, sched, bw):
    return Fit(target.x, target.y, lam_source(target.n, sched), bw)


def two_step(target, picked, h, sched, bw, debias=True):
    """Pooled KRR on the target and then the picked sources, plus KRR on its target residuals."""
    x = np.concatenate([target.x] + [s.x for s in picked])
    y = np.concatenate([target.y] + [s.y for s in picked])
    pooled = Fit(x, y, lam_source(len(y), sched), bw)
    if not debias:
        return pooled
    step = Fit(target.x, target.y - pooled(target.x), lam_debias(target.n, h, sched), bw)
    return lambda x: pooled(x) + step(x)


def halves(x, y, seed):
    """The first (n + 1) // 2 rows of a seeded permutation, then the rest, each in row order."""
    perm = np.random.default_rng(seed).permutation(len(y))
    return [(x[rows], y[rows]) for rows in (np.sort(perm[: (len(y) + 1) // 2]), np.sort(perm[(len(y) + 1) // 2 :]))]


def contrasts(t1, sources, sched, bw):
    """RKHS distance of each source's own KRR fit to the target-only fit on t1."""
    f0 = krr(t1, sched, bw)
    out = []
    for s in sources:
        fk = krr(s, sched, bw)
        q = (fk.coef @ gram(s.x, s.x, bw) @ fk.coef - 2.0 * fk.coef @ gram(s.x, t1.x, bw) @ f0.coef
             + f0.coef @ gram(t1.x, t1.x, bw) @ f0.coef)
        out.append(math.sqrt(max(q, 0.0)))
    return np.array(out)


def candidate(level, target, sources, order, norms, sched, bw):
    """Target-only KRR, or the two-step fit on the `level` lowest-contrast sources at h = their largest contrast."""
    if level == 0:
        return krr(target, sched, bw)
    chosen = sorted(order[:level])
    return two_step(target, [sources[k] for k in chosen], max(norms[chosen]), sched, bw)


def prepare(target, sources, split_seed, sched, bw):
    """Split the target in halves, rank the sources on T1 and fit the m + 1 candidates there."""
    (x1, y1), t2 = halves(target.x, target.y, split_seed)
    t1 = type(target)(x1, y1)
    norms = contrasts(t1, sources, sched, bw)
    order = list(np.argsort(norms, kind="stable"))
    cands = [candidate(l, t1, sources, order, norms, sched, bw) for l in range(len(sources) + 1)]
    return cands, order, norms, t2


def sa_tkrr(prepared, target, sources, split_seed, sched, bw):
    """Hyper-sparse aggregation of the candidates on T2, then the chosen pair refitted on the target."""
    cands, order, norms, (x2, y2) = prepared
    (x21, y21), (x22, y22) = halves(x2, y2, split_seed)
    p21 = [f(x21) for f in cands]
    risks = [np.mean((y21 - p) ** 2) for p in p21]
    best = int(np.argmin(risks))
    phi = math.sqrt(math.log(len(cands) + 1) / len(y21))
    surv = [l for l, p in enumerate(p21)
            if risks[l] <= risks[best] + max(phi * math.sqrt(np.mean((p21[best] - p) ** 2)), phi * phi)]
    pair, best_risk = (surv[0], surv[0], 1.0), math.inf
    for i, a in enumerate(surv):
        for b in surv[i + 1 :]:
            fa, fb = cands[a](x22), cands[b](x22)
            denom = float((fa - fb) @ (fa - fb))
            t = 1.0 if denom == 0.0 else min(max(float((y22 - fb) @ (fa - fb)) / denom, 0.0), 1.0)
            risk = np.mean((y22 - t * fa - (1.0 - t) * fb) ** 2)
            if risk < best_risk:
                pair, best_risk = (a, b, t), risk
    a, b, t = pair
    fa, fb = (candidate(l, target, sources, order, norms, sched, bw) for l in (a, b))
    return (lambda x: t * fa(x) + (1.0 - t) * fb(x)), pair


def aew_tkrr(prepared):
    """The T1 candidates weighted by exp(-n2 * risk on T2 / (2 var(y2)))."""
    cands, _, _, (x2, y2) = prepared
    logits = np.array([-len(y2) * np.mean((y2 - f(x2)) ** 2) for f in cands]) / max(2.0 * np.var(y2), 1e-12)
    w = np.exp(logits - logits.max())
    w /= w.sum()
    return lambda x: sum(wl * f(x) for wl, f in zip(w, cands))


def methods(target, sources, transferable, split_seed, sched, bw):
    """Each method's prediction function on one cell."""
    known = [sources[k - 1] for k in transferable]
    prepared = prepare(target, sources, split_seed, sched, bw)
    return {
        "KRR": krr(target, sched, bw),
        "AhTKRR": two_step(target, known, 1.0, sched, bw),
        "AhTKRR_WD": two_step(target, known, 1.0, sched, bw, debias=False),
        "Pooled_TKRR": two_step(target, list(sources), 1.0, sched, bw),
        "SA_TKRR": sa_tkrr(prepared, target, sources, split_seed, sched, bw),
        "AEW_TKRR": aew_tkrr(prepared),
    }
