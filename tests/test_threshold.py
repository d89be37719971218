"""Thresholding rules and the entry-adaptive threshold matrix."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rcec import ThresholdRule, apply_rule, threshold_matrix
from rcec import threshold
from rcec.threshold import _apply, _entry_scale, _live_entries, _sweep

RULES = [
    ThresholdRule.soft(),
    ThresholdRule.adaptive_lasso(1.0),
    ThresholdRule.adaptive_lasso(2.0),
    ThresholdRule.adaptive_lasso(4.0),
    ThresholdRule.scad(3.7),
]

finite = st.floats(-1e6, 1e6, allow_nan=False)
nonneg = st.floats(0.0, 1e6, allow_nan=False)


class TestRuleConstruction:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown rule kind"):
            ThresholdRule(kind="hard")
        with pytest.raises(ValueError, match="eta must be >= 1"):
            ThresholdRule.adaptive_lasso(0.5)
        with pytest.raises(ValueError, match="a must be > 2"):
            ThresholdRule.scad(2.0)

    @pytest.mark.parametrize("a", [np.inf, np.nan, -np.inf])
    def test_scad_knee_must_be_finite(self, a):
        with pytest.raises(ValueError, match="a must be > 2 and finite"):
            ThresholdRule.scad(a)
        with pytest.raises(ValueError, match="bad threshold rule"):
            ThresholdRule.parse(f"scad:{a}")

    @pytest.mark.parametrize(
        "text, kind, param",
        [
            ("soft", "soft", None),
            ("alasso", "alasso", 1.0),
            ("alasso:2", "alasso", 2.0),
            ("scad", "scad", 3.7),
            ("scad:4.2", "scad", 4.2),
        ],
    )
    def test_parse(self, text, kind, param):
        rule = ThresholdRule.parse(text)
        assert rule.kind == kind
        if kind == "alasso":
            assert rule.eta == param
        if kind == "scad":
            assert rule.a == param

    def test_parse_rejects_garbage(self):
        for bad in ("hard", "soft:1", "alasso:nope", "alasso:0.2", ""):
            with pytest.raises(ValueError, match="bad threshold rule"):
                ThresholdRule.parse(bad)

    @pytest.mark.parametrize("rule", RULES)
    def test_spec_round_trip(self, rule):
        assert ThresholdRule.parse(rule.spec()) == rule


class TestApplyRuleValues:
    def test_soft_hand_values(self):
        soft = ThresholdRule.soft()
        assert apply_rule(soft, 3.0, 2.0) == 1.0
        assert apply_rule(soft, -3.0, 2.0) == -1.0
        assert apply_rule(soft, 1.5, 2.0) == 0.0

    def test_alasso_hand_value(self):
        rule = ThresholdRule.adaptive_lasso(2.0)
        assert apply_rule(rule, 3.0, 2.0) == pytest.approx(5.0 / 3.0)

    def test_scad_hand_value(self):
        rule = ThresholdRule.scad(3.7)
        assert apply_rule(rule, 3.0, 1.0) == pytest.approx(4.4 / 1.7)

    @pytest.mark.parametrize("rule", RULES)
    def test_zero_lambda_is_identity(self, rule):
        z = np.array([-4.0, -0.3, 0.0, 0.7, 11.0])
        np.testing.assert_array_equal(apply_rule(rule, z, 0.0), z)

    def test_vectorized_matches_scalar(self):
        rule = ThresholdRule.scad(3.7)
        z = np.linspace(-5, 5, 101)
        lam = 0.8
        expected = np.array([float(apply_rule(rule, zi, lam)) for zi in z])
        np.testing.assert_allclose(apply_rule(rule, z, lam), expected)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            apply_rule(ThresholdRule.soft(), 1.0, -0.1)

    @pytest.mark.parametrize(
        "rule", [ThresholdRule.soft(), ThresholdRule.scad()], ids=["soft", "scad"]
    )
    def test_nan_threshold_rejected(self, rule):
        # The rule threshold_matrix applies to lam: a NaN is not >= 0.
        with pytest.raises(ValueError, match="^thresholds must be nonnegative$"):
            apply_rule(rule, [1.0, -2.0], np.nan)


class TestRuleProperties:
    @pytest.mark.parametrize("rule", RULES)
    @given(z=finite, lam=nonneg)
    def test_kills_small_entries(self, rule, z, lam):
        if abs(z) <= lam:
            assert apply_rule(rule, z, lam) == 0.0

    @pytest.mark.parametrize("rule", RULES)
    @given(z=finite, lam=nonneg)
    def test_shrinks_by_at_most_lambda(self, rule, z, lam):
        out = float(apply_rule(rule, z, lam))
        # The 1e-12 * |z| term absorbs rounding of z * fade at large |z|.
        assert abs(out - z) <= lam * (1 + 1e-12) + 1e-12 * (1.0 + abs(z))

    @pytest.mark.parametrize("rule", RULES)
    @given(z=finite, lam=nonneg)
    def test_sign_preserved(self, rule, z, lam):
        out = float(apply_rule(rule, z, lam))
        assert np.sign(out) in (0.0, np.sign(z))

    @pytest.mark.parametrize("rule", RULES)
    @given(z=finite, lam1=st.floats(0, 1e3), lam2=st.floats(0, 1e3))
    def test_monotone_in_lambda(self, rule, z, lam1, lam2):
        lo, hi = sorted((lam1, lam2))
        slack = 1e-12 * (1.0 + abs(z))
        assert abs(float(apply_rule(rule, z, hi))) <= abs(
            float(apply_rule(rule, z, lo))
        ) + slack

    @given(z=finite, lam=nonneg)
    def test_alasso_one_equals_soft(self, z, lam):
        soft = float(apply_rule(ThresholdRule.soft(), z, lam))
        alasso = float(apply_rule(ThresholdRule.adaptive_lasso(1.0), z, lam))
        assert abs(soft - alasso) <= 1e-12 * (1.0 + abs(z))

    @given(z=finite, lam=nonneg, offset=st.floats(-1.0, 1.0))
    def test_soft_dominated_by_any_compatible_value(self, z, lam, offset):
        # |tau(z)| <= |y| whenever |y - z| <= lam; unique to soft among the
        # implemented rules (see the bound tests below).
        y = z + offset * lam
        slack = 1e-12 * (1.0 + abs(z) + lam)
        assert abs(float(apply_rule(ThresholdRule.soft(), z, lam))) <= abs(y) + slack

    @pytest.mark.parametrize(
        "rule, bound",
        [
            (ThresholdRule.adaptive_lasso(2.0), 2.0),
            (ThresholdRule.adaptive_lasso(4.0), 4.0),
            (ThresholdRule.scad(3.7), 3.7 / 2.7),
        ],
    )
    @given(z=finite, lam=nonneg, offset=st.floats(-1.0, 1.0))
    def test_constant_factor_domination(self, rule, bound, z, lam, offset):
        # The biased rules exceed |y| near the threshold but never by more
        # than a rule-specific constant factor (eta for the adaptive lasso,
        # a/(a-1) for the clipped rule); both factors are attained in the
        # witness test below.
        y = z + offset * lam
        slack = 1e-12 * (1.0 + abs(z) + lam)
        assert abs(float(apply_rule(rule, z, lam))) <= bound * abs(y) + slack

    def test_domination_constants_are_tight(self):
        # Adaptive lasso: the ratio tau(z)/(z - lam) climbs to eta as z
        # approaches lam from above.
        rule = ThresholdRule.adaptive_lasso(2.0)
        z, lam = 1.0 + 1e-9, 1.0
        ratio = float(apply_rule(rule, z, lam)) / (z - lam)
        assert ratio > 2.0 - 1e-6
        assert float(apply_rule(rule, 2.0, 1.0)) == 1.5  # > |y| = 1 at y = z - lam

        # Clipped rule: the worst case sits exactly at z = a * lam.
        rule = ThresholdRule.scad(3.7)
        z, lam = 3.7, 1.0
        ratio = float(apply_rule(rule, z, lam)) / (z - lam)
        assert ratio == pytest.approx(3.7 / 2.7, rel=1e-9)


def entry_thresholds(gamma, lam, n):
    # The entry thresholds lam_ij, read off soft thresholding of the whole
    # matrix: an entry with |z| >= lam_ij comes back with |z| - lam_ij.
    out = threshold_matrix(gamma, lam, n, ThresholdRule.soft(), threshold_diagonal=True)
    return np.abs(gamma) - np.abs(out)


class TestEntryThresholds:
    def test_hand_value(self):
        gamma = np.full((2, 2), 4.0)
        t = entry_thresholds(gamma, 0.5, n=100)
        assert t[0, 1] == pytest.approx(0.5 * np.sqrt(16.0 * np.log(2) / 100))
        assert t[0, 0] == pytest.approx(t[0, 1])

    def test_zero_lambda(self):
        gamma = np.eye(3)
        for rule in (ThresholdRule.soft(), ThresholdRule.adaptive_lasso(2.0), ThresholdRule.scad()):
            out = threshold_matrix(gamma, 0.0, 10, rule, threshold_diagonal=True)
            np.testing.assert_array_equal(out, gamma)

    def test_symmetric_output(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4))
        gamma = a @ a.T
        gamma = (gamma + gamma.T) / 2
        out = threshold_matrix(gamma, 0.7, 25, ThresholdRule.soft(), threshold_diagonal=True)
        np.testing.assert_array_equal(out, out.T)

    def test_uses_log_p_over_n(self):
        gamma = np.ones((4, 4))
        t = entry_thresholds(gamma, 1.0, n=100)
        assert t[0, 1] == pytest.approx(np.sqrt(np.log(4) / 100))

    def test_degenerate_diagonal_clamped(self):
        # The floor is silent here; a fit reports it once, as a note.
        gamma = np.array([[1.0, 0.5], [0.5, -2.0]])
        t = entry_thresholds(gamma, 1.0, n=1)
        assert t[1, 1] == pytest.approx(1e-12 * np.sqrt(np.log(2)), abs=1e-15)
        assert t[0, 1] == pytest.approx(np.sqrt(1e-12 * np.log(2)))

    def test_rejects_bad_input(self):
        soft = ThresholdRule.soft()
        with pytest.raises(ValueError, match="square"):
            threshold_matrix(np.ones((2, 3)), 1.0, 10, soft)
        with pytest.raises(ValueError, match="nonnegative"):
            threshold_matrix(np.eye(2), -1.0, 10, soft)
        with pytest.raises(ValueError, match="nonnegative"):
            threshold_matrix(np.eye(2), float("nan"), 10, soft)
        with pytest.raises(ValueError, match="non-finite"):
            threshold_matrix(np.array([[np.inf, 0], [0, 1.0]]), 1.0, 10, soft)
        with pytest.raises(ValueError, match="n must be"):
            threshold_matrix(np.eye(2), 1.0, 0, soft)

    def test_threshold_diagonal_must_be_a_bool(self):
        with pytest.raises(ValueError, match="threshold_diagonal must be a bool"):
            threshold_matrix(np.eye(2), 1.0, 10, ThresholdRule.soft(), threshold_diagonal="false")


class TestThresholdMatrix:
    def test_zero_lambda_returns_input(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 5))
        gamma = a @ a.T
        np.testing.assert_array_equal(
            threshold_matrix(gamma, 0.0, 30, ThresholdRule.soft()), gamma
        )

    def test_large_lambda_leaves_diagonal(self):
        gamma = np.array([[4.0, 1.0], [1.0, 4.0]])
        out = threshold_matrix(gamma, 100.0, 10, ThresholdRule.soft())
        np.testing.assert_array_equal(out, np.diag([4.0, 4.0]))

    def test_hand_value(self):
        gamma = np.array([[4.0, 1.0], [1.0, 4.0]])
        out = threshold_matrix(gamma, 0.5, n=100, rule=ThresholdRule.soft())
        assert out[0, 1] == pytest.approx(1.0 - 0.5 * np.sqrt(16.0 * np.log(2) / 100))
        assert out[0, 0] == 4.0

    def test_diagonal_thresholding_opt_in(self):
        gamma = np.array([[4.0, 1.0], [1.0, 4.0]])
        out = threshold_matrix(
            gamma,
            0.5,
            n=100,
            rule=ThresholdRule.soft(),
            threshold_diagonal=True,
        )
        assert out[0, 0] == pytest.approx(4.0 - 0.5 * np.sqrt(16.0 * np.log(2) / 100))

    def test_support_shrinks_as_lambda_grows(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(40, 8))
        gamma = a.T @ a / 40
        previous = None
        for lam in np.linspace(0.0, 5.0, 11):
            out = threshold_matrix(gamma, lam, 40, ThresholdRule.soft())
            support = {
                (i, j)
                for i in range(8)
                for j in range(i + 1, 8)
                if out[i, j] != 0.0
            }
            if previous is not None:
                assert support <= previous
            previous = support


def reference_apply_rule(rule, z, lam):
    # The rules as plain numpy expressions, one fresh array per operation;
    # the kernel must reproduce them bit for bit, signed zeros included.
    z = np.asarray(z, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    absz = np.abs(z)
    soft = np.sign(z) * np.maximum(absz - lam, 0.0)
    if rule.kind == "soft":
        return soft
    if rule.kind == "alasso":
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            fade = 1.0 - (lam / absz) ** rule.eta
        return np.where(absz <= lam, 0.0, z * np.maximum(fade, 0.0))
    a = rule.a
    mid = ((a - 1.0) * z - np.sign(z) * a * lam) / (a - 2.0)
    return np.where(absz <= 2.0 * lam, soft, np.where(absz <= a * lam, mid, z))


def reference_threshold_matrix(gamma, lam, n, rule, threshold_diagonal):
    out = reference_apply_rule(rule, gamma, lam * _entry_scale(gamma, n))
    if not threshold_diagonal:
        np.fill_diagonal(out, np.diag(gamma))
    return out


def assert_same_bits(actual, expected):
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


KERNEL_RULES = [
    ThresholdRule.soft(),
    ThresholdRule.adaptive_lasso(1.0),
    ThresholdRule.adaptive_lasso(1.5),
    ThresholdRule.adaptive_lasso(2.0),
    ThresholdRule.adaptive_lasso(4.0),
    ThresholdRule.scad(2.5),
    ThresholdRule.scad(3.7),
]


def boundary_covariance(lam, n, a, seed, p=12):
    # Symmetric matrix whose off-diagonal entries sit exactly on the rule
    # boundaries t, 2t and a t of the entry thresholds t = lam * scale (one
    # ulp either side too), at +-0, or anywhere up to 4t; every kind of
    # entry appears with both signs.
    rng = np.random.default_rng(seed)
    gamma = np.diag(rng.uniform(0.5, 2.0, p))
    t = lam * _entry_scale(gamma, n)
    up = np.inf
    makers = [
        lambda t: t,
        lambda t: 2.0 * t,
        lambda t: a * t,
        lambda t: np.nextafter(t, up),
        lambda t: np.nextafter(2.0 * t, up),
        lambda t: np.nextafter(a * t, 0.0),
        lambda t: 0.0 * t,
        lambda t: rng.uniform(0.0, 4.0) * t,
    ]
    upper = zip(*np.triu_indices(p, 1))
    for k, (i, j) in enumerate(upper):
        value = makers[k % len(makers)](t[i, j])
        if (k // len(makers)) % 2:
            value = -value
        gamma[i, j] = gamma[j, i] = value
    return gamma


def check_sweep(rule, threshold_diagonal):
    # An unsorted grid with a repeat, over entries on the rule boundaries:
    # writing each chunk into one matrix must rebuild the estimate at that
    # value bit for bit.  The chunks of a value must come in increasing
    # index order, each full but the last, and cover the entries above their
    # thresholds at every smaller value; any other entry they write is at or
    # below its threshold at an earlier value.
    n = 50
    gamma = boundary_covariance(0.7, n, rule.a, seed=9)
    p = gamma.shape[0]
    grid = np.array([3.0, 0.35, 0.0, 1.4, 0.7, 0.35])
    scale = _entry_scale(gamma, n)
    entries = np.arange(p * p)
    if not threshold_diagonal:
        entries = entries[entries % (p + 1) != 0]
    omega = gamma.copy()
    flat = omega.reshape(-1)
    chunks = []

    def write(idx, values):
        chunks.append(idx.copy())
        flat[idx] = values
        values.fill(np.nan)  # the sweep must not read it back

    seen = []
    previous = None
    live = _live_entries(p, threshold_diagonal)
    for g in _sweep(gamma, scale, grid, rule, live, write):
        if previous is None:
            dead = np.zeros(p * p, dtype=bool)
        else:
            dead = np.abs(gamma.reshape(-1)) <= previous * scale.reshape(-1)
        expected_live = entries[~dead[entries]]
        sizes = [chunk.size for chunk in chunks]
        assert all(size == threshold._SWEEP_CHUNK for size in sizes[:-1])
        assert sizes == [] or 0 < sizes[-1] <= threshold._SWEEP_CHUNK
        written = np.concatenate(chunks or [entries[:0]])
        assert np.all(np.diff(written) > 0)
        assert np.isin(expected_live, written).all()
        extra = written[~np.isin(written, expected_live)]
        assert np.isin(extra, entries).all() and dead[extra].all()
        chunks.clear()
        expected = reference_threshold_matrix(gamma, grid[g], n, rule, threshold_diagonal)
        assert_same_bits(omega, expected)
        seen.append(g)
        previous = grid[g]
    assert sorted(seen) == list(range(grid.size))


class TestKernelMatchesReference:
    @pytest.mark.parametrize("rule", KERNEL_RULES, ids=ThresholdRule.spec)
    @pytest.mark.parametrize("threshold_diagonal", [False, True])
    def test_threshold_matrix_on_rule_boundaries(self, rule, threshold_diagonal):
        n = 50
        for seed in range(4):
            for lam in (0.0, 0.4, 1.3):
                gamma = boundary_covariance(lam, n, rule.a, seed)
                out = threshold_matrix(gamma, lam, n, rule, threshold_diagonal=threshold_diagonal)
                expected = reference_threshold_matrix(gamma, lam, n, rule, threshold_diagonal)
                assert_same_bits(out, expected)

    @pytest.mark.parametrize("rule", KERNEL_RULES, ids=ThresholdRule.spec)
    @pytest.mark.parametrize("threshold_diagonal", [False, True])
    def test_sweep_rebuilds_every_value_from_the_live_entries(self, rule, threshold_diagonal):
        check_sweep(rule, threshold_diagonal)

    @pytest.mark.parametrize("rule", KERNEL_RULES, ids=ThresholdRule.spec)
    @pytest.mark.parametrize("threshold_diagonal", [False, True])
    def test_sweep_rebuilds_every_value_across_chunk_edges(
        self, monkeypatch, rule, threshold_diagonal
    ):
        # Seven entries a chunk put chunk edges mid-row and mid-array.
        monkeypatch.setattr(threshold, "_SWEEP_CHUNK", 7)
        check_sweep(rule, threshold_diagonal)

    @pytest.mark.parametrize("rule", KERNEL_RULES, ids=ThresholdRule.spec)
    @pytest.mark.parametrize("threshold_diagonal", [False, True])
    def test_sweep_rebuilds_every_value_from_chunks_to_batches(
        self, monkeypatch, rule, threshold_diagonal
    ):
        # With 200 entry-values a chunk, the 132 or 144 live entries take
        # one value per call until at most 100 stay live, then several.
        shapes = []

        def spy(rule, z, absz, t):
            shapes.append(t.shape)
            return _apply(rule, z, absz, t)

        monkeypatch.setattr(threshold, "_SWEEP_CHUNK", 200)
        monkeypatch.setattr(threshold, "_apply", spy)
        check_sweep(rule, threshold_diagonal)
        assert len(shapes[0]) == 1 and len(shapes[-1]) == 2

    @pytest.mark.parametrize("chunk", [7, 200, 8192])
    @pytest.mark.parametrize("threshold_diagonal", [False, True])
    def test_sweep_writes_nothing_once_no_entry_is_live(
        self, monkeypatch, chunk, threshold_diagonal
    ):
        # Every entry is at or below its threshold from about 4.5 on, and
        # at most 62 values share a batch, so the last values of the grid
        # are yielded without a write.  With 200 entry-values a chunk, the
        # live set is compacted between batches of 2 to 16 values.
        monkeypatch.setattr(threshold, "_SWEEP_CHUNK", chunk)
        n = 50
        gamma = boundary_covariance(0.7, n, 3.7, seed=9)
        grid = np.linspace(0.0, 60.0, 200)
        writes = []
        live = _live_entries(gamma.shape[0], threshold_diagonal)
        steps = _sweep(
            gamma, _entry_scale(gamma, n), grid, ThresholdRule.scad(3.7), live,
            lambda idx, values: writes.append(idx.copy()),
        )
        counts = []
        for _ in steps:
            counts.append(len(writes))
        assert len(counts) == grid.size
        assert all(idx.size and np.all(np.diff(idx) > 0) for idx in writes)
        assert counts[-2] == counts[-1] == len(writes)

    @pytest.mark.parametrize("rule", KERNEL_RULES, ids=ThresholdRule.spec)
    @given(
        z=hnp.arrays(np.float64, st.integers(1, 30), elements=finite),
        lam=nonneg,
    )
    def test_apply_rule_on_any_values(self, rule, z, lam):
        assert_same_bits(apply_rule(rule, z, lam), reference_apply_rule(rule, z, lam))

    @pytest.mark.parametrize("rule", KERNEL_RULES, ids=ThresholdRule.spec)
    def test_apply_rule_broadcasts_like_the_reference(self, rule):
        z = np.array([[-2.0], [-0.0], [0.0], [0.5], [3.7]])
        lam = np.array([[0.0, 0.25, 0.5, 1.0, 10.0]])
        assert_same_bits(apply_rule(rule, z, lam), reference_apply_rule(rule, z, lam))
        assert_same_bits(apply_rule(rule, lam, z * z), reference_apply_rule(rule, lam, z * z))
        assert_same_bits(apply_rule(rule, -1.5, 0.5), reference_apply_rule(rule, -1.5, 0.5))
        # Scalars give a 0-d array, not a numpy scalar.
        scalar = apply_rule(rule, -1.5, 0.5)
        assert type(scalar) is np.ndarray and scalar.shape == ()
