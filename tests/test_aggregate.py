import math

import numpy as np
import pytest

from tkrr import aggregate, kernels, krr
from tkrr.aggregate import (
    AggregateModel,
    CandidateSet,
    aew_aggregate,
    build_candidates,
    hyper_sparse_aggregate,
    prepare_candidates,
    rank_contrasts,
    sa_tkrr,
    split_uniform,
)
from tkrr.kernels import (
    Dataset,
    KernelConfig,
    RepresenterFunction,
    TooFewRowsError,
    WeightedSum,
)
from tkrr.harness import prediction_error
from tkrr.krr import (
    LambdaSchedule,
    fit_krr,
    schedule_lambda_debias,
    schedule_lambda_source,
)
from tkrr.rng import derive_seed
from tkrr.synthetic import SimSpec, gen_scenario
from tkrr.transfer import SourceCollection, fit_debias, fit_pooled

N_CASES = 100
CFG = KernelConfig(bandwidth=0.5)
SCHED = LambdaSchedule(scale=0.5)


def _dataset(rng, n, d=1):
    return Dataset(x=rng.random((n, d)), y=rng.normal(size=n))


def _function(rng, d=1, n_max=8):
    n = int(rng.integers(1, n_max))
    return RepresenterFunction(
        anchors=rng.random((n, d)), coefficients=rng.normal(size=n), kernel=CFG
    )


class TestSplitUniform:
    def test_rounding_rule(self):
        rng = np.random.default_rng(400)
        a, b = split_uniform(_dataset(rng, 11), seed=0)
        assert (a.n, b.n) == (6, 5)

    def test_partition_properties(self):
        rng = np.random.default_rng(401)
        for _ in range(N_CASES):
            n = int(rng.integers(2, 60))
            seed = int(rng.integers(0, 2**32))
            ds = _dataset(rng, n)
            a, b = split_uniform(ds, seed)
            assert a.n == min(max(int(math.floor(0.5 * n + 0.5)), 1), n - 1)
            assert a.n + b.n == n
            merged = np.sort(np.concatenate([a.y, b.y]))
            assert np.array_equal(merged, np.sort(ds.y))
            a2, b2 = split_uniform(ds, seed)
            assert np.array_equal(a.x, a2.x) and np.array_equal(b.y, b2.y)

    def test_keeps_row_order(self):
        ds = Dataset(x=np.arange(10.0)[:, None], y=np.arange(10.0))
        a, b = split_uniform(ds, seed=3)
        assert np.all(np.diff(a.y) > 0) and np.all(np.diff(b.y) > 0)

    def test_validation(self):
        rng = np.random.default_rng(402)
        with pytest.raises(TooFewRowsError):
            split_uniform(_dataset(rng, 1), 0)


class TestRankContrasts:
    def test_ranks_are_permutation(self):
        rng = np.random.default_rng(403)
        for _ in range(N_CASES):
            t1 = _dataset(rng, int(rng.integers(4, 20)))
            m = int(rng.integers(1, 5))
            sources = [_dataset(rng, int(rng.integers(3, 20))) for _ in range(m)]
            ranked = rank_contrasts(t1, sources, SCHED, CFG)
            assert sorted(ranked.ranks.tolist()) == list(range(1, m + 1))
            assert np.all(ranked.contrast_norms >= 0)
            assert ranked.candidates == ()

    def test_ties_break_by_source_index(self):
        rng = np.random.default_rng(404)
        t1 = _dataset(rng, 10)
        src = _dataset(rng, 8)
        ranked = rank_contrasts(t1, [src, src, src], SCHED, CFG)
        assert ranked.ranks.tolist() == [1, 2, 3]

    def test_orders_by_contrast(self):
        rng = np.random.default_rng(405)
        t1 = _dataset(rng, 30)
        near = Dataset(x=t1.x.copy(), y=t1.y.copy())
        far = Dataset(x=t1.x.copy(), y=t1.y + 25.0)
        ranked = rank_contrasts(t1, [far, near], SCHED, CFG)
        assert ranked.ranks.tolist() == [2, 1]
        assert ranked.nested_sets == ((), (2,), (2, 1))

    def test_rank_consistency_improves_with_sample_size(self):
        # two sources with well-separated true contrasts; the estimated
        # order should be recovered almost always once samples are large
        sched = LambdaSchedule(scale=0.1)
        cfg = KernelConfig(bandwidth=0.05)
        rates = []
        for n_k in (100, 500):
            spec = SimSpec(
                example="ex1", s=0.35, m=2, n0=500, n_k=n_k,
                fixed_shifts=(0.05, 0.35),
            )
            hits = 0
            for rep in range(N_CASES):
                tgt, srcs, _, _ = gen_scenario(spec, seed=derive_seed(7, n_k, rep))
                ranked = rank_contrasts(tgt, srcs, sched, cfg)
                hits += ranked.ranks.tolist() == [1, 2]
            rates.append(hits / N_CASES)
        assert rates[-1] >= 0.95
        assert rates == sorted(rates)

    def test_no_sources(self):
        rng = np.random.default_rng(406)
        ranked = rank_contrasts(_dataset(rng, 5), [], SCHED, CFG)
        assert (ranked.m, ranked.nested_sets, ranked.candidates) == (0, ((),), ())

    def test_no_square_gram_is_built(self, monkeypatch):
        # Each fit's squared norm comes from its own system, so no square
        # Gram (K(T1, T1) or a source's) is assembled: only each source's
        # cross Gram with T1. The contrasts are the per-source
        # rkhs_norm_diff(source fit, target fit) within 1e-12 relative, and
        # bit for bit rkhs_norm_diff given the identity norms.
        rng = np.random.default_rng(427)
        t1 = _dataset(rng, 15, d=2)
        sources = [_dataset(rng, n, d=2) for n in (9, 11, 8, 13)]
        f0 = fit_krr(t1, schedule_lambda_source(15, SCHED), CFG)
        grams = []
        real = kernels.gram_matrix

        def spy(cfg, x, x2=None):
            grams.append(x2 is None)
            return real(cfg, x, x2)

        monkeypatch.setattr(kernels, "gram_matrix", spy)
        ranked = rank_contrasts(t1, sources, SCHED, CFG, f0)
        assert grams == [False] * len(sources)
        monkeypatch.setattr(kernels, "gram_matrix", real)
        f0_sq = float(f0.coefficients @ (t1.y - f0.shift * f0.coefficients))
        for src, norm in zip(sources, ranked.contrast_norms):
            fk = fit_krr(src, schedule_lambda_source(src.n, SCHED), CFG)
            fk_sq = float(fk.coefficients @ (src.y - fk.shift * fk.coefficients))
            assert norm == kernels.rkhs_norm_diff(fk, f0, f0_sq, fk_sq)
            assert abs(norm - kernels.rkhs_norm_diff(fk, f0)) <= 1e-12 * norm

    def test_identity_norms_match_the_gram_form(self):
        # b.(y - s b) is b'Kb, the fit's squared RKHS norm, within 1e-12
        # relative, for target and source fits alike.
        rng = np.random.default_rng(428)
        for n, d in ((15, 2), (40, 1), (120, 3)):
            data = _dataset(rng, n, d)
            f = fit_krr(data, schedule_lambda_source(n, SCHED), CFG)
            want = kernels.rkhs_norm_sq(f)
            assert abs(aggregate._norm_sq(f, data.y) - want) <= 1e-12 * want


class TestBuildCandidates:
    def test_structure_and_ridges(self):
        # The pooled steps are a nested ladder on T1 followed by the sources
        # in rank order. Ridges are checked by refitting each pooled step at
        # its schedule value with fit_krr on the same rows, and pooled
        # predictions against fit_pooled's index-order fit, both within
        # fit_krr_nested's 1e-12 relative bound. The debias step is bit for
        # bit fit_debias on the same pooled object at T1's rows, the leading
        # rows of its system, and predicts as fit_debias on that object's
        # evaluated values at T1 does, within the same bound.
        rng = np.random.default_rng(407)
        t1 = _dataset(rng, 12)
        sources = [_dataset(rng, n) for n in (6, 9, 7)]
        t2 = _dataset(np.random.default_rng(413), 11)
        ranked = rank_contrasts(t1, sources, SCHED, CFG)
        assert ranked.ranks.tolist() != [1, 2, 3]
        f0 = fit_krr(t1, schedule_lambda_source(12, SCHED), CFG)
        cs = build_candidates(t1, sources, ranked, SCHED, CFG, f0, t2)
        assert len(cs.candidates) == 4
        assert cs.candidates[0].anchors is f0.anchors
        assert np.array_equal(cs.candidates[0].coefficients, f0.coefficients)
        x_test = rng.random((30, 1))

        def close(got, want):
            return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        for level, model in enumerate(cs.candidates[1:], start=1):
            assert isinstance(model, WeightedSum)
            assert model.weights.tolist() == [1.0, 1.0]
            pooled, debias = model.parts
            subset = cs.nested_sets[level]
            rows = [t1] + [sources[k - 1] for k in subset]
            assert np.array_equal(pooled.anchors, np.concatenate([d.x for d in rows]))
            n_pool = 12 + sum(sources[k - 1].n for k in subset)
            lam1 = schedule_lambda_source(n_pool, SCHED)
            ys = np.concatenate([d.y for d in rows])
            assert close(pooled(x_test), fit_krr(Dataset(pooled.anchors, ys), lam1, CFG)(x_test))
            coll = SourceCollection(sources=tuple(sources), transferable=tuple(sorted(subset)))
            assert close(pooled(x_test), fit_pooled(t1, coll, lam1, CFG)(x_test))
            h = max(cs.contrast_norms[k - 1] for k in subset)
            lam2 = schedule_lambda_debias(12, h, SCHED)
            batched = fit_debias(t1, pooled, lam2, CFG, slice(0, 12))
            assert np.array_equal(debias.coefficients, batched.coefficients)
            assert np.array_equal(debias.anchors, t1.x)
            assert close(debias(x_test), fit_debias(t1, pooled, lam2, CFG)(x_test))

    def test_no_factor_larger_than_t1(self, monkeypatch):
        # The m + 1 pooled systems (the candidates' and the whole-target
        # rung's) are solved by the ladder's PCG on one Gram, which factors
        # nothing larger than its preconditioner's r x r; every
        # factorization is of a system on T1's rows (the debias steps).
        rng = np.random.default_rng(409)
        t1 = _dataset(rng, 12)
        sources = [_dataset(rng, n) for n in (6, 9, 7, 5)]
        t2 = _dataset(np.random.default_rng(414), 10)
        ranked = rank_contrasts(t1, sources, SCHED, CFG)
        f0 = fit_krr(t1, schedule_lambda_source(12, SCHED), CFG)
        orders = []
        real = kernels.cho_factor

        def spy(system):
            orders.append(kernels._packed_order(system))
            return real(system)

        monkeypatch.setattr(kernels, "cho_factor", spy)
        fallbacks = []
        real_fit = krr.fit_krr
        monkeypatch.setattr(krr, "fit_krr", lambda data, *a: fallbacks.append(data.n) or real_fit(data, *a))
        cs = build_candidates(t1, sources, ranked, SCHED, CFG, f0, t2)
        assert cs.pooled.anchors.shape[0] == 12 + 6 + 9 + 7 + 5 + 10
        assert fallbacks == [] and orders == [12] * 4

    def test_whole_target_rung(self):
        # Given T2 and sources, the ladder's top rung is the pooled fit of the
        # whole target with every source: rows T1, the sources in rank order,
        # then T2, at the source-rate ridge for all rows. It predicts as the
        # index-order fit_pooled does, within fit_krr_nested's 1e-12 relative
        # bound, and adds no candidate. Without sources there is none.
        rng = np.random.default_rng(410)
        target = _dataset(rng, 24)
        sources = [_dataset(rng, n) for n in (6, 9, 7)]
        t1, t2 = split_uniform(target, 3)
        ranked = rank_contrasts(t1, sources, SCHED, CFG)
        assert ranked.ranks.tolist() != [1, 2, 3]
        f0 = fit_krr(t1, schedule_lambda_source(12, SCHED), CFG)
        cs = build_candidates(t1, sources, ranked, SCHED, CFG, f0, t2)
        assert len(cs.candidates) == 4
        order = [t1] + [sources[k - 1] for k in cs.nested_sets[-1]] + [t2]
        assert np.array_equal(cs.pooled.anchors, np.concatenate([d.x for d in order]))
        coll = SourceCollection(sources=tuple(sources), transferable=(1, 2, 3))
        own = fit_pooled(target, coll, schedule_lambda_source(24 + 22, SCHED), CFG)
        x_test = rng.random((30, 1))
        want = own(x_test)
        assert np.max(np.abs(cs.pooled(x_test) - want)) <= 1e-12 * np.max(np.abs(want))
        no_sources = rank_contrasts(t1, [], SCHED, CFG, f0)
        assert build_candidates(t1, [], no_sources, SCHED, CFG, f0, t2).pooled is None

    def test_fig6_whole_target_rung_matches_fit_pooled(self, monkeypatch):
        # At fig6 sizes with m = 10 (n0 = 600, 13 sources of 300 rows) the
        # ladder converges on every rung, the 4500-row top rung included:
        # krr.fit_krr, which fit_krr_nested falls back to, is never called.
        # The top rung predicts within 1e-12 relative of fit_pooled.
        spec = SimSpec(example="ex2mod", s=0.25, m=10)
        target, sources, _, _ = gen_scenario(spec, seed=derive_seed(20260815, 2, 0))
        sched, cfg = LambdaSchedule(scale=0.1), KernelConfig(bandwidth=0.1)
        fallbacks = []
        real = krr.fit_krr
        monkeypatch.setattr(krr, "fit_krr", lambda data, *a: fallbacks.append(data.n) or real(data, *a))
        _, cs = prepare_candidates(target, sources, 0, sched, cfg)
        assert fallbacks == []
        assert cs.pooled.anchors.shape == (4500, 3)
        coll = SourceCollection(sources=tuple(sources), transferable=tuple(range(1, 14)))
        own = fit_pooled(target, coll, schedule_lambda_source(4500, sched), cfg)
        x_test = np.random.default_rng(411).random((200, 3))
        want = own(x_test)
        assert np.max(np.abs(cs.pooled(x_test) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_batch_values_match_each_candidate(self):
        # The batched predictions at T2 are, row by row, each candidate
        # evaluated there on its own (on a copy of T2's rows, so nothing kept
        # is read back), within 1e-12 relative to the largest value.
        rng = np.random.default_rng(412)
        target = _dataset(rng, 30, d=2)
        for sources in ([_dataset(rng, n, d=2) for n in (8, 12, 10, 9)], []):
            t2, cs = prepare_candidates(target, sources, 5, SCHED, CFG)
            assert cs.values.shape == (len(sources) + 1, t2.n)
            for row, f in zip(cs.values, cs.candidates):
                want = f(t2.x.copy())
                assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))

    def test_candidate_count_validation(self):
        with pytest.raises(ValueError):
            CandidateSet(
                contrast_norms=np.array([1.0]),
                ranks=np.array([1]),
                candidates=(None, None, None),
            )
        with pytest.raises(ValueError):
            CandidateSet(
                contrast_norms=np.array([1.0, 2.0]),
                ranks=np.array([1, 1]),
            )


class TestEmpiricalRisk:
    def test_constant_zero_oracle(self):
        zero = RepresenterFunction(np.zeros((1, 1)), np.zeros(1), CFG)
        data = Dataset(x=np.random.default_rng(0).random((9, 1)), y=np.full(9, 2.0))
        assert prediction_error(zero, data.x, data.y) == 4.0

    def test_matches_summation(self):
        rng = np.random.default_rng(408)
        for _ in range(N_CASES):
            f = _function(rng)
            data = _dataset(rng, int(rng.integers(2, 25)))
            pred = f(data.x)
            manual = sum((y - p) ** 2 for y, p in zip(data.y, pred)) / data.n
            assert prediction_error(f, data.x, data.y) == pytest.approx(manual, abs=1e-12)


def _at(candidates, t2):
    # The candidates' predictions at t2's rows, row l for candidate l: the
    # values the aggregators take.
    return np.array([f(t2.x) for f in candidates])


def _aggregate_case(rng, n_candidates=None, n2=None):
    k = n_candidates or int(rng.integers(1, 7))
    candidates = [_function(rng) for _ in range(k)]
    t2 = _dataset(rng, n2 or int(rng.integers(8, 40)))
    return candidates, t2, int(rng.integers(0, 2**31))


class TestHyperSparse:
    def test_winner_survives_and_pair_is_from_survivors(self):
        rng = np.random.default_rng(409)
        for _ in range(N_CASES):
            candidates, t2, seed = _aggregate_case(rng)
            agg = hyper_sparse_aggregate(candidates, t2, seed, _at(candidates, t2))
            assert 0.0 <= agg.weight <= 1.0
            best, survivors = _survivors(candidates, t2, seed)
            assert best in survivors
            assert agg.idx_a in survivors and agg.idx_b in survivors

    def test_aggregation_optimality(self):
        # mixed pair does at least as well on T22 as any single survivor
        rng = np.random.default_rng(410)
        for _ in range(N_CASES):
            candidates, t2, seed = _aggregate_case(rng)
            agg = hyper_sparse_aggregate(candidates, t2, seed, _at(candidates, t2))
            _, t22 = split_uniform(t2, seed)
            mix_risk = prediction_error(agg, t22.x, t22.y)
            for idx in (agg.idx_a, agg.idx_b):
                assert mix_risk <= prediction_error(candidates[idx], t22.x, t22.y) + 1e-10

    def test_weight_matches_grid_search(self):
        rng = np.random.default_rng(411)
        for _ in range(50):
            candidates, t2, seed = _aggregate_case(rng, n_candidates=4)
            agg = hyper_sparse_aggregate(candidates, t2, seed, _at(candidates, t2))
            _, t22 = split_uniform(t2, seed)
            fa = candidates[agg.idx_a](t22.x)
            fb = candidates[agg.idx_b](t22.x)
            grid = np.linspace(0.0, 1.0, 1001)
            risks = np.mean(
                (t22.y[None, :] - (grid[:, None] * fa + (1 - grid)[:, None] * fb)) ** 2,
                axis=1,
            )
            mix_risk = float(np.mean((t22.y - (agg.weight * fa + (1 - agg.weight) * fb)) ** 2))
            assert mix_risk <= risks.min() + 1e-10

    def test_identical_candidates_give_weight_one(self):
        rng = np.random.default_rng(412)
        f = _function(rng)
        t2 = _dataset(rng, 12)
        agg = hyper_sparse_aggregate([f, f], t2, 5, _at([f, f], t2))
        assert agg.weight == 1.0

    def test_singleton_candidate(self):
        rng = np.random.default_rng(413)
        f = _function(rng)
        t2 = _dataset(rng, 10)
        agg = hyper_sparse_aggregate([f], t2, 0, _at([f], t2))
        assert agg.idx_a == agg.idx_b == 0
        assert agg.weight == 1.0

    def test_sub_halves_are_split_uniform_rows(self, monkeypatch):
        # The aggregation's T21 and T22 are row slices of the values at T2,
        # by the permutation split_uniform draws: bit for bit the rows of
        # split_uniform(t2, seed), responses and candidate values alike.
        rng = np.random.default_rng(428)
        halves, real = [], aggregate.split_uniform
        monkeypatch.setattr(aggregate, "split_uniform", lambda *a: halves.append(real(*a)) or halves[-1])
        for n in (2, 3, 17, 40):
            t2 = _dataset(rng, n, d=2)
            candidates = [lambda x, level=level: x[:, 0] + level for level in range(3)]
            halves.clear()
            hyper_sparse_aggregate(candidates, t2, 9, _at(candidates, t2))
            assert len(halves) == 1
            for got, half in zip(halves[0], real(t2, 9)):
                assert np.array_equal(got.y, half.y)
                assert np.array_equal(got.x.T, _at(candidates, half))
        with pytest.raises(TooFewRowsError):
            hyper_sparse_aggregate([candidates[0]], _dataset(rng, 1), 0, np.zeros((1, 1)))

    def test_values_shape_checked(self):
        # values must hold one row per candidate and one column per T2 row:
        # with fewer rows the margin's M would count candidates never scored.
        rng = np.random.default_rng(429)
        target = _dataset(rng, 24)
        t2, cs = prepare_candidates(target, [_dataset(rng, 12) for _ in range(3)], 2, SCHED, CFG)
        assert cs.values.shape == (4, t2.n)
        for values in (cs.values[:2], cs.values[:, :-1], cs.values.T, cs.values[0]):
            with pytest.raises(ValueError, match="want values of shape"):
                hyper_sparse_aggregate(cs.candidates, t2, 2, values)

    def test_deterministic(self):
        rng = np.random.default_rng(414)
        candidates, t2, seed = _aggregate_case(rng, n_candidates=5)
        a = hyper_sparse_aggregate(candidates, t2, seed, _at(candidates, t2))
        b = hyper_sparse_aggregate(candidates, t2, seed, _at(candidates, t2))
        assert (a.idx_a, a.idx_b, a.weight) == (b.idx_a, b.idx_b, b.weight)


def _survivors(candidates, t2, seed):
    # re-derive the margin rule independently of the implementation
    t21, _ = split_uniform(t2, seed)
    preds = [f(t21.x) for f in candidates]
    risks = [float(np.mean((t21.y - p) ** 2)) for p in preds]
    best = int(np.argmin(risks))
    phi = math.sqrt(math.log(len(candidates) + 1) / t21.n)
    kept = set()
    for idx in range(len(candidates)):
        dist = math.sqrt(float(np.mean((preds[best] - preds[idx]) ** 2)))
        if risks[idx] <= risks[best] + max(phi * dist, phi * phi):
            kept.add(idx)
    return best, kept


class TestSaTkrr:
    def test_deterministic_and_valid(self):
        rng = np.random.default_rng(415)
        target = _dataset(rng, 24)
        sources = [_dataset(rng, 14) for _ in range(3)]
        a = sa_tkrr(target, sources, 11, SCHED, CFG)
        b = sa_tkrr(target, sources, 11, SCHED, CFG)
        assert (a.idx_a, a.idx_b, a.weight) == (b.idx_a, b.idx_b, b.weight)
        xq = rng.random((5, 1))
        assert np.array_equal(a(xq), b(xq))

    def test_retrain_refits_on_full_target(self):
        rng = np.random.default_rng(416)
        target = _dataset(rng, 20)
        sources = [_dataset(rng, 10) for _ in range(2)]
        t2, cs = prepare_candidates(target, sources, 2, SCHED, CFG)
        picked = hyper_sparse_aggregate(cs.candidates, t2, 2, _at(cs.candidates, t2))
        model = sa_tkrr(target, sources, 2, SCHED, CFG)
        assert (model.idx_a, model.idx_b, model.weight) == (
            picked.idx_a, picked.idx_b, picked.weight
        )

        def target_rows(candidate):
            # Target rows are the anchors of the target-only fit, or of the
            # debias step of a two-step candidate.
            if isinstance(candidate, WeightedSum):
                candidate = candidate.parts[1]
            return candidate.anchors.shape[0]

        for i, w in ((model.idx_a, model.weight), (model.idx_b, 1.0 - model.weight)):
            if w != 0.0:
                assert target_rows(cs.candidates[i]) == 10  # prepared on the T1 half
                assert target_rows(model.candidates[i]) == 20  # refitted on everything

    @pytest.mark.parametrize("weight", [0.0, 1.0])
    def test_refits_only_the_weighted_candidate(self, monkeypatch, weight):
        rng = np.random.default_rng(423)
        target = _dataset(rng, 20)
        sources = [_dataset(rng, 10) for _ in range(2)]
        prepared = prepare_candidates(target, sources, 4, SCHED, CFG)
        fit_candidate = aggregate._fit_candidate
        refits = []

        def pick_pair(candidates, t2, split_seed, values):
            return AggregateModel(idx_a=1, idx_b=2, weight=weight, candidates=tuple(candidates))

        def counted(level, *args):
            refits.append(level)
            return fit_candidate(level, *args)

        monkeypatch.setattr(aggregate, "hyper_sparse_aggregate", pick_pair)
        monkeypatch.setattr(aggregate, "_fit_candidate", counted)
        model = sa_tkrr(target, sources, 4, SCHED, CFG, prepared)
        used = 1 if weight == 1.0 else 2
        assert refits == [used]
        assert (model.idx_a, model.idx_b, model.weight) == (1, 2, weight)
        chosen = fit_candidate(used, target, sources, prepared[1], SCHED, CFG)
        xq = rng.random((6, 1))
        assert np.array_equal(model(xq), chosen(xq))

    def test_shared_candidates_match_own(self):
        rng = np.random.default_rng(424)
        target = _dataset(rng, 22)
        sources = [_dataset(rng, 12) for _ in range(3)]
        prepared = prepare_candidates(target, sources, 6, SCHED, CFG)
        a = sa_tkrr(target, sources, 6, SCHED, CFG)
        b = sa_tkrr(target, sources, 6, SCHED, CFG, prepared)
        assert (a.idx_a, a.idx_b, a.weight) == (b.idx_a, b.idx_b, b.weight)
        xq = rng.random((5, 1))
        assert np.array_equal(a(xq), b(xq))

    def test_target_only_fit_is_solved_once(self, monkeypatch):
        # The ranking's target-only fit on T1 is candidate 0; the other
        # aggregate-level fits are one per source.
        rng = np.random.default_rng(425)
        target = _dataset(rng, 22)
        sources = [_dataset(rng, 12) for _ in range(3)]
        fits = []
        monkeypatch.setattr(
            aggregate, "fit_krr", lambda data, *a: fits.append(data.n) or fit_krr(data, *a)
        )
        t2, cs = prepare_candidates(target, sources, 7, SCHED, CFG)
        assert fits == [11, 12, 12, 12]
        t1, _ = split_uniform(target, 7)
        expect = fit_krr(t1, schedule_lambda_source(11, SCHED), CFG)
        assert np.array_equal(cs.candidates[0].coefficients, expect.coefficients)

    def test_no_sources_is_target_only_krr(self):
        rng = np.random.default_rng(426)
        target = _dataset(rng, 22)
        t2, cs = prepare_candidates(target, [], 8, SCHED, CFG)
        assert (cs.m, cs.nested_sets, len(cs.candidates)) == (0, ((),), 1)
        t1, _ = split_uniform(target, 8)
        expect = fit_krr(t1, schedule_lambda_source(11, SCHED), CFG)
        assert np.array_equal(cs.candidates[0].coefficients, expect.coefficients)
        model = sa_tkrr(target, [], 8, SCHED, CFG, (t2, cs))
        assert (model.idx_a, model.idx_b, model.weight) == (0, 0, 1.0)
        krr = fit_krr(target, schedule_lambda_source(22, SCHED), CFG)
        xq = rng.random((5, 1))
        assert np.array_equal(model(xq), krr(xq))
        aew = aew_aggregate(cs.candidates, t2, 1.0, cs.values)
        assert np.array_equal(aew(xq), cs.candidates[0](xq))

    def test_needs_four_rows(self):
        rng = np.random.default_rng(417)
        with pytest.raises(ValueError):
            sa_tkrr(_dataset(rng, 3), [_dataset(rng, 5)], 0, SCHED, CFG)


class TestAew:
    def test_weights_simplex(self):
        rng = np.random.default_rng(418)
        for _ in range(N_CASES):
            candidates, t2, _ = _aggregate_case(rng)
            model = aew_aggregate(candidates, t2, 1.0, _at(candidates, t2))
            assert abs(float(model.weights.sum()) - 1.0) <= 1e-12
            assert np.all(model.weights >= 0)

    def test_lower_risk_gets_higher_weight(self):
        rng = np.random.default_rng(419)
        candidates, t2, _ = _aggregate_case(rng, n_candidates=4)
        model = aew_aggregate(candidates, t2, 0.5, _at(candidates, t2))
        risks = [prediction_error(f, t2.x, t2.y) for f in candidates]
        order = np.argsort(risks)
        weights = model.weights[order]
        assert np.all(np.diff(weights) <= 1e-12)

    def test_high_temperature_flattens(self):
        rng = np.random.default_rng(420)
        candidates, t2, _ = _aggregate_case(rng, n_candidates=3)
        model = aew_aggregate(candidates, t2, 1e9, _at(candidates, t2))
        np.testing.assert_allclose(model.weights, 1.0 / 3.0, atol=1e-6)

    def test_prediction_is_convex_mix(self):
        rng = np.random.default_rng(421)
        candidates, t2, _ = _aggregate_case(rng, n_candidates=3)
        model = aew_aggregate(candidates, t2, 1.0, _at(candidates, t2))
        xq = rng.random((6, 1))
        manual = sum(
            w * f(xq) for w, f in zip(model.weights, candidates)
        )
        np.testing.assert_allclose(model(xq), manual, atol=1e-12)

    def test_validation(self):
        rng = np.random.default_rng(422)
        with pytest.raises(ValueError):
            aew_aggregate([], _dataset(rng, 5), 1.0, np.zeros((0, 5)))
        with pytest.raises(ValueError):
            aew_aggregate([_function(rng)], _dataset(rng, 5), 0.0, np.zeros((1, 5)))
        pair = [_function(rng), _function(rng)]
        for shape in ((2,), (2, 4), (1, 5), (3, 5), (5, 2)):
            with pytest.raises(ValueError, match="want values of shape"):
                aew_aggregate(pair, _dataset(rng, 5), 1.0, np.zeros(shape))


class TestModelTypes:
    def test_aggregate_model_validation(self):
        f = RepresenterFunction(np.zeros((1, 1)), np.ones(1), CFG)
        with pytest.raises(ValueError):
            AggregateModel(idx_a=0, idx_b=0, weight=1.5, candidates=(f,))
        with pytest.raises(ValueError):
            AggregateModel(idx_a=2, idx_b=0, weight=0.5, candidates=(f,))

    def test_aew_model_validation(self):
        # The AEW mixture is a WeightedSum, which needs one weight per part.
        f = RepresenterFunction(np.zeros((1, 1)), np.ones(1), CFG)
        with pytest.raises(ValueError):
            WeightedSum(parts=(f,), weights=np.array([0.5, 0.5]))

    def test_weighted_sum_skips_zero_weights_and_keeps_nesting(self):
        rng = np.random.default_rng(425)
        f, g, h = (_function(rng) for _ in range(3))
        inner = WeightedSum((f, g), (1.0, 1.0))
        xq = rng.random((7, 1))
        assert np.array_equal(inner(xq), f(xq) + g(xq))
        outer = WeightedSum((inner, h), (0.3, 0.7))
        assert np.array_equal(outer(xq), 0.3 * (f(xq) + g(xq)) + 0.7 * h(xq))

        def broken(x):
            raise AssertionError("a zero-weight part was evaluated")

        assert np.array_equal(WeightedSum((broken, h), (0.0, 1.0))(xq), h(xq))
        assert np.array_equal(WeightedSum((f, broken), (0.0, 0.0))(xq), np.zeros(7))