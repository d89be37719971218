"""Tests for bootstrap edge-stability analysis."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rcec import (
    CompositionMatrix,
    EstimatorConfig,
    ThresholdRule,
    bootstrap_stability,
    clr_transform,
    estimate,
    extract_edges,
    filter_stable,
    sample_case,
    threshold_matrix,
)
from rcec import stability, tuning
from rcec.simgen import basis_to_composition, get_case
from rcec.stability import Edge, SupportSet, _tally
from rcec.tuning import _subset_covariance


def case1_composition(n=80, p=12, seed=5):
    y = sample_case(get_case(1), n, p, seed)
    return basis_to_composition(y)


def independent_composition(n=80, p=12, seed=0):
    return basis_to_composition(np.random.default_rng(seed).normal(size=(n, p)))


FAST = EstimatorConfig(grid_size=12, seed=0)


# Per-pair loop references for the vectorised supports.

def loop_extract_edges(omega):
    edges = []
    iu, ju = np.triu_indices(omega.shape[0], k=1)
    for i, j in zip(iu, ju):
        w = omega[i, j]
        if w != 0.0:
            edges.append(Edge(i=int(i), j=int(j), sign=int(np.sign(w)), weight=float(w)))
    return SupportSet(edges=tuple(edges))


def loop_tally(baseline, replicate_supports):
    occurrences = {(e.i, e.j): 0 for e in baseline.edges}
    sign_hits = 0
    total_hits = 0
    recovered_fractions = []
    baseline_signs = {(e.i, e.j): e.sign for e in baseline.edges}
    for edges_b in replicate_supports:
        signs_b = {(e.i, e.j): e.sign for e in edges_b}
        hits = 0
        for pair, sign in baseline_signs.items():
            if pair in signs_b:
                occurrences[pair] += 1
                hits += 1
                total_hits += 1
                if signs_b[pair] == sign:
                    sign_hits += 1
        recovered_fractions.append(hits / len(baseline.edges) if baseline.edges else 1.0)
    stability = float(np.mean(recovered_fractions))
    return occurrences, stability, (sign_hits / total_hits) if total_hits else 1.0


def loop_replicate_values(x, config, replicates, seed, reuse_lambda, index_sampler=None):
    # Each replicate re-validates its resampled compositions and
    # clr-transforms them; returns the baseline fit and one row of values
    # at the baseline edges per replicate.
    baseline_fit = estimate(x, config)
    baseline = extract_edges(baseline_fit.omega)
    rows = [e.i for e in baseline.edges]
    cols = [e.j for e in baseline.edges]
    values = []
    for child in np.random.SeedSequence(seed).spawn(replicates):
        rng = np.random.default_rng(child)
        idx = index_sampler(rng, x.n) if index_sampler is not None else rng.integers(0, x.n, x.n)
        xb = CompositionMatrix(x.values[np.asarray(idx, dtype=np.intp)])
        if reuse_lambda:
            w = clr_transform(xb).values
            omega = threshold_matrix(
                _subset_covariance(w, config),
                baseline_fit.lambda_star,
                w.shape[0],
                config.rule,
                threshold_diagonal=config.threshold_diagonal,
            )
        else:
            omega = estimate(xb, config).omega
        values.append(omega[rows, cols])
    return baseline_fit, np.stack(values)


# Entries are exact zeros or either sign; symmetrised from the upper triangle.
entries = st.one_of(st.just(0.0), st.floats(-10.0, 10.0, allow_nan=False))


def symmetric(upper):
    upper = np.triu(upper, 1)
    return upper + upper.T + np.eye(upper.shape[0])


def symmetric_of(p):
    return hnp.arrays(np.float64, (p, p), elements=entries).map(symmetric)


symmetric_matrices = st.integers(2, 9).flatmap(symmetric_of)


class TestExtractEdges:
    def test_hand_values(self):
        omega = np.array(
            [
                [1.0, 0.5, 0.0],
                [0.5, 2.0, -0.25],
                [0.0, -0.25, 3.0],
            ]
        )
        support = extract_edges(omega)
        assert support.pairs() == {(0, 1), (1, 2)}
        by_pair = {(e.i, e.j): e for e in support}
        assert by_pair[(0, 1)].sign == 1
        assert by_pair[(0, 1)].weight == 0.5
        assert by_pair[(1, 2)].sign == -1
        assert by_pair[(1, 2)].weight == -0.25

    def test_diagonal_is_ignored(self):
        support = extract_edges(np.diag([5.0, -3.0, 2.0]))
        assert len(support) == 0
        assert support.pairs() == set()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="square"):
            extract_edges(np.zeros((2, 3)))

    def test_pairs_are_upper_triangle(self):
        omega = np.zeros((4, 4))
        omega[2, 0] = omega[0, 2] = -1.5
        support = extract_edges(omega)
        (edge,) = support.edges
        assert (edge.i, edge.j) == (0, 2)
        assert edge.weight == -1.5


class TestVectorisedSupports:
    @given(symmetric_matrices)
    def test_extract_edges_matches_loop(self, omega):
        support = extract_edges(omega)
        assert support == loop_extract_edges(omega)
        for e in support:
            assert (type(e.i), type(e.j), type(e.sign), type(e.weight)) == (int, int, int, float)

    @given(st.data())
    def test_tally_matches_loop(self, data):
        # Replicates keep, drop (exact zero) or flip each baseline edge and
        # carry unrelated entries elsewhere.
        baseline_omega = data.draw(symmetric_matrices)
        p = baseline_omega.shape[0]
        baseline = extract_edges(baseline_omega)
        replicates = data.draw(st.integers(1, 6))
        omegas = [data.draw(symmetric_of(p)) for _ in range(replicates)]
        for omega in omegas:
            for e in baseline.edges:
                scale = data.draw(st.sampled_from([0.0, 1.0, -1.0, 0.5]))
                omega[e.i, e.j] = omega[e.j, e.i] = scale * e.weight
        rows = [e.i for e in baseline.edges]
        cols = [e.j for e in baseline.edges]
        values = np.stack([omega[rows, cols] for omega in omegas])
        expected = loop_tally(baseline, [loop_extract_edges(o) for o in omegas])
        occurrences, stability, sign_agreement = _tally(baseline, values)
        assert occurrences == expected[0]
        assert list(occurrences) == list(expected[0])
        assert stability == expected[1]
        assert sign_agreement == expected[2]


class TestSupportSet:
    def test_container_protocol(self):
        edges = (Edge(0, 1, 1, 0.5), Edge(1, 3, -1, -0.2))
        support = SupportSet(edges=edges)
        assert len(support) == 2
        assert tuple(support) == edges
        assert support.pairs() == {(0, 1), (1, 3)}


class TestFilterStable:
    def test_threshold_filters_by_occurrence(self):
        edges = (Edge(0, 1, 1, 0.5), Edge(1, 2, -1, -0.3), Edge(2, 3, 1, 0.1))
        baseline = SupportSet(edges=edges, occurrences={(0, 1): 80, (1, 2): 50, (2, 3): 12})
        stable = filter_stable(baseline, 50)
        assert stable.pairs() == {(0, 1), (1, 2)}
        assert stable.occurrences == {(0, 1): 80, (1, 2): 50}

    def test_zero_threshold_keeps_everything(self):
        edges = (Edge(0, 1, 1, 0.5),)
        baseline = SupportSet(edges=edges, occurrences={(0, 1): 0})
        assert filter_stable(baseline, 0).pairs() == {(0, 1)}

    def test_missing_counts_are_zero(self):
        baseline = SupportSet(edges=(Edge(0, 1, 1, 0.5),), occurrences={})
        assert len(filter_stable(baseline, 1)) == 0


class TestBootstrapStability:
    def test_self_replication_is_perfectly_stable(self):
        # Resampling the identity permutation reproduces the baseline
        # estimate, so every edge recurs and agreement is total.
        x = case1_composition()
        result = bootstrap_stability(
            x,
            FAST,
            replicates=1,
            retain_threshold=1,
            seed=3,
            index_sampler=lambda rng, n: np.arange(n),
        )
        assert result.stability == 1.0
        assert result.sign_agreement == 1.0
        assert result.stable.pairs() == result.baseline.pairs()
        assert len(result.baseline) > 0
        assert all(c == 1 for c in result.baseline.occurrences.values())
        assert result.positives + result.negatives == len(result.stable)

    def test_unreachable_threshold_empties_stable_set(self):
        x = case1_composition()
        result = bootstrap_stability(
            x,
            FAST,
            replicates=1,
            retain_threshold=2,
            seed=3,
            index_sampler=lambda rng, n: np.arange(n),
        )
        assert len(result.stable) == 0
        assert result.positives == 0
        assert result.negatives == 0

    def test_same_seed_reproduces(self):
        x = case1_composition()
        a = bootstrap_stability(x, FAST, replicates=6, retain_threshold=3, seed=11)
        b = bootstrap_stability(x, FAST, replicates=6, retain_threshold=3, seed=11)
        assert a.baseline.occurrences == b.baseline.occurrences
        assert a.stability == b.stability
        assert a.sign_agreement == b.sign_agreement
        assert a.stable.pairs() == b.stable.pairs()

    def test_workers_do_not_change_the_answer(self, monkeypatch):
        x = case1_composition()
        monkeypatch.setenv("RCEC_THREADS", "1")
        serial = bootstrap_stability(x, FAST, replicates=6, seed=11)
        monkeypatch.setenv("RCEC_THREADS", "4")
        threaded = bootstrap_stability(x, FAST, replicates=6, seed=11)
        assert serial.baseline.occurrences == threaded.baseline.occurrences
        assert serial.stability == threaded.stability

    def test_workers_do_not_change_the_answer_at_blas_scale(self, monkeypatch):
        # At p = 200 a multithreaded BLAS would split the products; the
        # answer must not depend on the worker count either way, including
        # where the BLAS thread pin is unavailable.
        x = basis_to_composition(sample_case(get_case(2), 100, 200, 17))
        cfg = EstimatorConfig(grid_size=10, seed=0)
        kwargs = dict(replicates=4, retain_threshold=2, seed=5, reuse_lambda=True)
        monkeypatch.setenv("RCEC_THREADS", "1")
        serial = bootstrap_stability(x, cfg, **kwargs)
        monkeypatch.setenv("RCEC_THREADS", "2")
        threaded = bootstrap_stability(x, cfg, **kwargs)
        assert len(serial.baseline) > 0
        assert serial.baseline.occurrences == threaded.baseline.occurrences
        assert serial.stability == threaded.stability
        assert serial.sign_agreement == threaded.sign_agreement
        assert serial.stable.pairs() == threaded.stable.pairs()

    def test_reuse_lambda_shortcut(self):
        x = case1_composition()
        full = bootstrap_stability(x, FAST, replicates=4, seed=2)
        quick = bootstrap_stability(x, FAST, replicates=4, seed=2, reuse_lambda=True)
        assert quick.reuse_lambda and not full.reuse_lambda
        assert quick.lambda_star == full.lambda_star
        assert quick.baseline.pairs() == full.baseline.pairs()
        assert 0.0 <= quick.stability <= 1.0
        assert 0.0 <= quick.sign_agreement <= 1.0

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_reuse_lambda_must_be_a_bool(self, value):
        with pytest.raises(ValueError, match="reuse_lambda must be a bool"):
            bootstrap_stability(case1_composition(), FAST, replicates=2, reuse_lambda=value)

    def test_numpy_bool_reuse_lambda_is_stored_as_a_python_bool(self):
        result = bootstrap_stability(case1_composition(), FAST, replicates=2, reuse_lambda=np.True_)
        assert result.reuse_lambda is True

    def test_result_metadata(self):
        x = case1_composition()
        result = bootstrap_stability(x, FAST, replicates=3, retain_threshold=2, seed=9)
        assert result.replicates == 3
        assert result.retain_threshold == 2
        assert result.seed == 9
        assert result.lambda_star >= 0.0 and np.isfinite(result.lambda_star)
        np.testing.assert_array_equal(result.baseline_omega, result.baseline_omega.T)
        assert result.baseline_omega.shape == (12, 12)

    def test_accepts_raw_proportions(self):
        x = case1_composition()
        from_container = bootstrap_stability(x, FAST, replicates=2, seed=4)
        from_array = bootstrap_stability(x.values, FAST, replicates=2, seed=4)
        assert from_container.baseline.occurrences == from_array.baseline.occurrences

    @pytest.mark.parametrize("reuse_lambda", [False, True])
    @pytest.mark.parametrize(
        "index_sampler",
        [None, lambda rng, n: np.sort(rng.choice(n, n - 10))],
        ids=["default", "custom"],
    )
    @pytest.mark.parametrize(
        "x, config, has_edges",
        [
            (case1_composition(), FAST, True),
            (case1_composition(), replace(FAST, estimator="coat"), True),
            (case1_composition(), replace(FAST, rule=ThresholdRule.scad(3.7)), True),
            (
                case1_composition(),
                replace(FAST, rule=ThresholdRule.adaptive_lasso(2.0), threshold_diagonal=True),
                True,
            ),
            # Independent components: the sparse end of a two-value grid wins.
            (independent_composition(), EstimatorConfig(grid_size=2, seed=0), False),
        ],
        ids=["rcec-soft", "coat", "scad", "alasso-diagonal", "no-edges"],
    )
    def test_matches_per_replicate_clr_loop(
        self, monkeypatch, reuse_lambda, index_sampler, x, config, has_edges
    ):
        opts = dict(reuse_lambda=reuse_lambda, index_sampler=index_sampler)
        parallel_map = stability.ordered_map
        captured = []

        def recording_map(fn, items):
            out = parallel_map(fn, items)
            captured.append(np.stack(out))
            return out

        monkeypatch.setattr(stability, "ordered_map", recording_map)
        result = bootstrap_stability(x, config, replicates=4, seed=8, **opts)
        fit, values = loop_replicate_values(x, config, 4, 8, **opts)
        assert (len(result.baseline) > 0) == has_edges
        np.testing.assert_array_equal(result.baseline_omega, fit.omega)
        assert result.lambda_star == fit.lambda_star
        np.testing.assert_array_equal(captured[0], values)
        assert np.array_equal(np.signbit(captured[0]), np.signbit(values))

    def test_reuse_replicates_form_only_the_entries_they_read(self, monkeypatch):
        # Each replicate's covariance kernel sees the baseline edges and the
        # diagonal, not the p(p + 1)/2 entries of a full triangle.
        sizes = []
        kernel = stability._median_moments

        def recording_kernel(arr, block_count, mask):
            sizes.append(int(np.count_nonzero(mask)))
            return kernel(arr, block_count, mask)

        monkeypatch.setattr(stability, "_median_moments", recording_kernel)
        monkeypatch.setenv("RCEC_THREADS", "1")  # replicates run in this process
        x = case1_composition()
        result = bootstrap_stability(x, FAST, replicates=3, seed=2, reuse_lambda=True)
        assert 0 < len(result.baseline) < x.p * (x.p - 1) // 2
        assert sizes == [len(result.baseline) + x.p] * 3

    @pytest.mark.parametrize("reuse_lambda", [False, True])
    def test_clr_runs_once_per_call(self, monkeypatch, reuse_lambda):
        calls = []

        def counting_clr(x):
            calls.append(x)
            return clr_transform(x)

        monkeypatch.setattr(stability, "clr_transform", counting_clr)
        monkeypatch.setattr(tuning, "clr_transform", counting_clr)
        bootstrap_stability(case1_composition(), FAST, replicates=3, reuse_lambda=reuse_lambda)
        assert len(calls) == 1

    def test_rejects_bad_parameters(self):
        x = case1_composition(n=30, p=6)
        with pytest.raises(ValueError, match="replicates"):
            bootstrap_stability(x, FAST, replicates=0)
        with pytest.raises(ValueError, match="retain_threshold"):
            bootstrap_stability(x, FAST, retain_threshold=-1, replicates=1)
