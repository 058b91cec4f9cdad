import math

import numpy as np
import pytest

from tkrr import aggregate
from tkrr.aggregate import (
    AggregateModel,
    AggregationParams,
    CandidateSet,
    aew_aggregate,
    build_candidates,
    empirical_risk,
    hyper_sparse_aggregate,
    model_predict,
    prepare_candidates,
    rank_contrasts,
    sa_tkrr,
    split_uniform,
)
from tkrr.kernels import Dataset, KernelConfig, RepresenterFunction, WeightedSum
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
        a, b = split_uniform(_dataset(rng, 11), 0.5, seed=0)
        assert (a.n, b.n) == (6, 5)

    def test_partition_properties(self):
        rng = np.random.default_rng(401)
        for _ in range(N_CASES):
            n = int(rng.integers(2, 60))
            frac = float(rng.uniform(0.1, 0.9))
            seed = int(rng.integers(0, 2**32))
            ds = _dataset(rng, n)
            a, b = split_uniform(ds, frac, seed)
            assert a.n == min(max(int(math.floor(frac * n + 0.5)), 1), n - 1)
            assert a.n + b.n == n
            merged = np.sort(np.concatenate([a.y, b.y]))
            assert np.array_equal(merged, np.sort(ds.y))
            a2, b2 = split_uniform(ds, frac, seed)
            assert np.array_equal(a.x, a2.x) and np.array_equal(b.y, b2.y)

    def test_keeps_row_order(self):
        ds = Dataset(x=np.arange(10.0)[:, None], y=np.arange(10.0))
        a, b = split_uniform(ds, 0.5, seed=3)
        assert np.all(np.diff(a.y) > 0) and np.all(np.diff(b.y) > 0)

    def test_validation(self):
        rng = np.random.default_rng(402)
        with pytest.raises(ValueError):
            split_uniform(_dataset(rng, 5), 0.0, 0)
        with pytest.raises(ValueError):
            split_uniform(_dataset(rng, 1), 0.5, 0)


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
        with pytest.raises(ValueError):
            rank_contrasts(_dataset(rng, 5), [], SCHED, CFG)


class TestBuildCandidates:
    def test_structure_and_ridges(self):
        # Ridges are checked by refitting each step at its schedule value:
        # the candidate must match bit for bit.
        rng = np.random.default_rng(407)
        t1 = _dataset(rng, 12)
        sources = [_dataset(rng, n) for n in (6, 9, 7)]
        ranked = rank_contrasts(t1, sources, SCHED, CFG)
        cs = build_candidates(t1, sources, ranked, SCHED, CFG)
        assert len(cs.candidates) == 4
        krr = cs.candidates[0]
        assert isinstance(krr, RepresenterFunction)
        expect = fit_krr(t1, schedule_lambda_source(12, SCHED), CFG)
        assert np.array_equal(krr.coefficients, expect.coefficients)
        for level, model in enumerate(cs.candidates[1:], start=1):
            assert isinstance(model, WeightedSum)
            assert model.weights.tolist() == [1.0, 1.0]
            pooled, debias = model.parts
            subset = cs.nested_sets[level]
            coll = SourceCollection(sources=tuple(sources), transferable=subset)
            n_pool = 12 + sum(sources[k - 1].n for k in subset)
            lam1 = schedule_lambda_source(n_pool, SCHED)
            want = fit_pooled(t1, coll, lam1, CFG)
            assert np.array_equal(pooled.coefficients, want.coefficients)
            h = max(cs.contrast_norms[k - 1] for k in subset)
            lam2 = schedule_lambda_debias(12, h, SCHED)
            want = fit_debias(t1, pooled, lam2, CFG)
            assert np.array_equal(debias.coefficients, want.coefficients)

    def test_candidate_count_validation(self):
        with pytest.raises(ValueError):
            CandidateSet(
                contrast_norms=np.array([1.0]),
                ranks=np.array([1]),
                nested_sets=((), (1,)),
                candidates=(None, None, None),
            )
        with pytest.raises(ValueError):
            CandidateSet(
                contrast_norms=np.array([1.0, 2.0]),
                ranks=np.array([1, 1]),
                nested_sets=((), (1,), (1, 2)),
            )


class TestEmpiricalRisk:
    def test_constant_zero_oracle(self):
        zero = RepresenterFunction(np.zeros((1, 1)), np.zeros(1), CFG)
        data = Dataset(x=np.random.default_rng(0).random((9, 1)), y=np.full(9, 2.0))
        assert empirical_risk(zero, data) == 4.0

    def test_matches_summation(self):
        rng = np.random.default_rng(408)
        for _ in range(N_CASES):
            f = _function(rng)
            data = _dataset(rng, int(rng.integers(2, 25)))
            pred = f(data.x)
            manual = sum((y - p) ** 2 for y, p in zip(data.y, pred)) / data.n
            assert empirical_risk(f, data) == pytest.approx(manual, abs=1e-12)


def _aggregate_case(rng, n_candidates=None, n2=None):
    k = n_candidates or int(rng.integers(1, 7))
    candidates = [_function(rng) for _ in range(k)]
    t2 = _dataset(rng, n2 or int(rng.integers(8, 40)))
    params = AggregationParams(split_seed=int(rng.integers(0, 2**31)))
    return candidates, t2, params


class TestHyperSparse:
    def test_winner_survives_and_pair_is_from_survivors(self):
        rng = np.random.default_rng(409)
        for _ in range(N_CASES):
            candidates, t2, params = _aggregate_case(rng)
            agg = hyper_sparse_aggregate(candidates, t2, params)
            assert 0.0 <= agg.weight <= 1.0
            best, survivors = _survivors(candidates, t2, params)
            assert best in survivors
            assert agg.idx_a in survivors and agg.idx_b in survivors

    def test_aggregation_optimality(self):
        # mixed pair does at least as well on T22 as any single survivor
        rng = np.random.default_rng(410)
        for _ in range(N_CASES):
            candidates, t2, params = _aggregate_case(rng)
            agg = hyper_sparse_aggregate(candidates, t2, params)
            _, t22 = split_uniform(t2, 0.5, params.split_seed)
            mix_risk = empirical_risk(agg, t22)
            for idx in (agg.idx_a, agg.idx_b):
                assert mix_risk <= empirical_risk(candidates[idx], t22) + 1e-10

    def test_weight_matches_grid_search(self):
        rng = np.random.default_rng(411)
        for _ in range(50):
            candidates, t2, params = _aggregate_case(rng, n_candidates=4)
            agg = hyper_sparse_aggregate(candidates, t2, params)
            _, t22 = split_uniform(t2, 0.5, params.split_seed)
            fa = model_predict(candidates[agg.idx_a], t22.x)
            fb = model_predict(candidates[agg.idx_b], t22.x)
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
        agg = hyper_sparse_aggregate([f, f], t2, AggregationParams(split_seed=5))
        assert agg.weight == 1.0

    def test_singleton_candidate(self):
        rng = np.random.default_rng(413)
        f = _function(rng)
        agg = hyper_sparse_aggregate([f], _dataset(rng, 10), AggregationParams())
        assert agg.idx_a == agg.idx_b == 0
        assert agg.weight == 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(414)
        candidates, t2, params = _aggregate_case(rng, n_candidates=5)
        a = hyper_sparse_aggregate(candidates, t2, params)
        b = hyper_sparse_aggregate(candidates, t2, params)
        assert (a.idx_a, a.idx_b, a.weight) == (b.idx_a, b.idx_b, b.weight)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            AggregationParams(c=0.0)
        with pytest.raises(ValueError):
            AggregationParams(phi=-1.0)
        with pytest.raises(ValueError):
            AggregationParams(phi="latest")


def _survivors(candidates, t2, params):
    # re-derive the margin rule independently of the implementation
    t21, _ = split_uniform(t2, 0.5, params.split_seed)
    preds = [model_predict(f, t21.x) for f in candidates]
    risks = [float(np.mean((t21.y - p) ** 2)) for p in preds]
    best = int(np.argmin(risks))
    phi = math.sqrt(math.log(len(candidates) + 1) / t21.n)
    kept = set()
    for idx in range(len(candidates)):
        dist = math.sqrt(float(np.mean((preds[best] - preds[idx]) ** 2)))
        if risks[idx] <= risks[best] + params.c * max(phi * dist, phi * phi):
            kept.add(idx)
    return best, kept


class TestSaTkrr:
    def test_deterministic_and_valid(self):
        rng = np.random.default_rng(415)
        target = _dataset(rng, 24)
        sources = [_dataset(rng, 14) for _ in range(3)]
        params = AggregationParams(split_seed=11)
        a = sa_tkrr(target, sources, params, SCHED, CFG)
        b = sa_tkrr(target, sources, params, SCHED, CFG)
        assert (a.idx_a, a.idx_b, a.weight) == (b.idx_a, b.idx_b, b.weight)
        xq = rng.random((5, 1))
        assert np.array_equal(model_predict(a, xq), model_predict(b, xq))

    def test_retrain_refits_on_full_target(self):
        rng = np.random.default_rng(416)
        target = _dataset(rng, 20)
        sources = [_dataset(rng, 10) for _ in range(2)]
        with_retrain = sa_tkrr(
            target, sources, AggregationParams(split_seed=2, retrain=True), SCHED, CFG
        )
        without = sa_tkrr(
            target, sources, AggregationParams(split_seed=2, retrain=False), SCHED, CFG
        )
        assert (with_retrain.idx_a, with_retrain.weight) == (without.idx_a, without.weight)

        def target_rows(model):
            # Target rows are the anchors of the target-only fit, or of the
            # debias step of a two-step candidate.
            inner = model.candidates[model.idx_a]
            if isinstance(inner, WeightedSum):
                inner = inner.parts[1]
            return inner.anchors.shape[0]

        assert target_rows(without) == 10  # fitted on the T1 half
        assert target_rows(with_retrain) == 20  # refitted on everything

    @pytest.mark.parametrize("weight", [0.0, 1.0])
    def test_refits_only_the_weighted_candidate(self, monkeypatch, weight):
        rng = np.random.default_rng(423)
        target = _dataset(rng, 20)
        sources = [_dataset(rng, 10) for _ in range(2)]
        params = AggregationParams(split_seed=4)
        prepared = prepare_candidates(target, sources, params, SCHED, CFG)
        fit_candidate = aggregate._fit_candidate
        refits = []

        def pick_pair(candidates, t2, params):
            return AggregateModel(idx_a=1, idx_b=2, weight=weight, candidates=tuple(candidates))

        def counted(level, *args):
            refits.append(level)
            return fit_candidate(level, *args)

        monkeypatch.setattr(aggregate, "hyper_sparse_aggregate", pick_pair)
        monkeypatch.setattr(aggregate, "_fit_candidate", counted)
        model = sa_tkrr(target, sources, params, SCHED, CFG, prepared)
        used = 1 if weight == 1.0 else 2
        assert refits == [used]
        assert (model.idx_a, model.idx_b, model.weight) == (1, 2, weight)
        chosen = fit_candidate(used, target, sources, prepared[1], SCHED, CFG)
        xq = rng.random((6, 1))
        assert np.array_equal(model_predict(model, xq), chosen(xq))

    def test_shared_candidates_match_own(self):
        rng = np.random.default_rng(424)
        target = _dataset(rng, 22)
        sources = [_dataset(rng, 12) for _ in range(3)]
        params = AggregationParams(split_seed=6)
        prepared = prepare_candidates(target, sources, params, SCHED, CFG)
        a = sa_tkrr(target, sources, params, SCHED, CFG)
        b = sa_tkrr(target, sources, params, SCHED, CFG, prepared)
        assert (a.idx_a, a.idx_b, a.weight) == (b.idx_a, b.idx_b, b.weight)
        xq = rng.random((5, 1))
        assert np.array_equal(a(xq), b(xq))

    def test_target_only_fit_is_solved_once(self, monkeypatch):
        # The ranking's target-only fit on T1 is candidate 0; the other
        # aggregate-level fits are one per source.
        rng = np.random.default_rng(425)
        target = _dataset(rng, 22)
        sources = [_dataset(rng, 12) for _ in range(3)]
        params = AggregationParams(split_seed=7)
        fits = []
        monkeypatch.setattr(
            aggregate, "fit_krr", lambda data, *a: fits.append(data.n) or fit_krr(data, *a)
        )
        t2, cs = prepare_candidates(target, sources, params, SCHED, CFG)
        assert fits == [11, 12, 12, 12]
        t1, _ = split_uniform(target, 0.5, params.split_seed)
        expect = fit_krr(t1, schedule_lambda_source(11, SCHED), CFG)
        assert np.array_equal(cs.candidates[0].coefficients, expect.coefficients)

    def test_no_sources_is_target_only_krr(self):
        rng = np.random.default_rng(426)
        target = _dataset(rng, 22)
        params = AggregationParams(split_seed=8)
        t2, cs = prepare_candidates(target, [], params, SCHED, CFG)
        assert (cs.m, cs.nested_sets, len(cs.candidates)) == (0, ((),), 1)
        t1, _ = split_uniform(target, 0.5, params.split_seed)
        expect = fit_krr(t1, schedule_lambda_source(11, SCHED), CFG)
        assert np.array_equal(cs.candidates[0].coefficients, expect.coefficients)
        model = sa_tkrr(target, [], params, SCHED, CFG, (t2, cs))
        assert (model.idx_a, model.idx_b, model.weight) == (0, 0, 1.0)
        krr = fit_krr(target, schedule_lambda_source(22, SCHED), CFG)
        xq = rng.random((5, 1))
        assert np.array_equal(model(xq), krr(xq))
        aew = aew_aggregate(cs.candidates, t2, temperature=1.0)
        assert np.array_equal(aew(xq), cs.candidates[0](xq))

    def test_needs_four_rows(self):
        rng = np.random.default_rng(417)
        with pytest.raises(ValueError):
            sa_tkrr(_dataset(rng, 3), [_dataset(rng, 5)], AggregationParams(), SCHED, CFG)


class TestAew:
    def test_weights_simplex(self):
        rng = np.random.default_rng(418)
        for _ in range(N_CASES):
            candidates, t2, _ = _aggregate_case(rng)
            model = aew_aggregate(candidates, t2, temperature=1.0)
            assert abs(float(model.weights.sum()) - 1.0) <= 1e-12
            assert np.all(model.weights >= 0)

    def test_lower_risk_gets_higher_weight(self):
        rng = np.random.default_rng(419)
        candidates, t2, _ = _aggregate_case(rng, n_candidates=4)
        model = aew_aggregate(candidates, t2, temperature=0.5)
        risks = [empirical_risk(f, t2) for f in candidates]
        order = np.argsort(risks)
        weights = model.weights[order]
        assert np.all(np.diff(weights) <= 1e-12)

    def test_high_temperature_flattens(self):
        rng = np.random.default_rng(420)
        candidates, t2, _ = _aggregate_case(rng, n_candidates=3)
        model = aew_aggregate(candidates, t2, temperature=1e9)
        np.testing.assert_allclose(model.weights, 1.0 / 3.0, atol=1e-6)

    def test_prediction_is_convex_mix(self):
        rng = np.random.default_rng(421)
        candidates, t2, _ = _aggregate_case(rng, n_candidates=3)
        model = aew_aggregate(candidates, t2, temperature=1.0)
        xq = rng.random((6, 1))
        manual = sum(
            w * model_predict(f, xq) for w, f in zip(model.weights, candidates)
        )
        np.testing.assert_allclose(model_predict(model, xq), manual, atol=1e-12)

    def test_validation(self):
        rng = np.random.default_rng(422)
        with pytest.raises(ValueError):
            aew_aggregate([], _dataset(rng, 5), 1.0)
        with pytest.raises(ValueError):
            aew_aggregate([_function(rng)], _dataset(rng, 5), 0.0)


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

    def test_model_predict_rejects_unknown(self):
        with pytest.raises(TypeError):
            model_predict(42, np.zeros((1, 1)))
