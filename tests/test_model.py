"""Fitted-model behavior: curve evaluation, prediction, null regions, JSON."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sflr import model as model_mod
from sflr.basis import eval_basis_many, make_basis
from sflr.dataio import DataError
from sflr.design import FunctionalDataset, build_design
from sflr.model import (SflrModel, beta_hat, classify, null_regions,
                        predict_proba)
from sflr.solver import FitResult, SolverConfig, clamped_probs, fit


def _make_model(b, alpha=0.0, null_mask=None, M=30, degree=3, m=2):
    basis = make_basis(1.0, degree, M)
    mask = (np.zeros(M, dtype=bool) if null_mask is None
            else np.asarray(null_mask, dtype=bool))
    res = FitResult(b=np.asarray(b, dtype=float), alpha=alpha, null_mask=mask,
                    converged=True, lam=1.0, gamma=0.5)
    return SflrModel(basis=basis, fit=res,
                     training_grid=np.linspace(0, 1, 101), m=m)


class TestBetaHat:
    def test_all_null_model_is_zero(self):
        m = _make_model(np.zeros(33), null_mask=np.ones(30, bool))
        ts = np.linspace(0, 1, 57)
        np.testing.assert_array_equal(beta_hat(m, ts), 0.0)

    def test_unit_vector_reproduces_basis_function(self):
        b = np.zeros(33)
        b[7] = 1.0
        m = _make_model(b)
        ts = np.linspace(0, 1, 101)
        ref = eval_basis_many(m.basis, ts)[:, 7]
        np.testing.assert_allclose(beta_hat(m, ts), ref, atol=1e-14)

    def test_scalar_input_returns_float(self):
        m = _make_model(np.ones(33))
        assert isinstance(beta_hat(m, 0.3), float)

    def test_out_of_domain_rejected(self):
        m = _make_model(np.ones(33))
        with pytest.raises(ValueError):
            beta_hat(m, 1.2)


class TestPredictProba:
    def test_null_coefficients_give_half(self):
        m = _make_model(np.zeros(33), alpha=0.0)
        data = FunctionalDataset(np.linspace(0, 1, 51),
                                 np.random.default_rng(0).standard_normal((5, 51)))
        np.testing.assert_allclose(predict_proba(m, data), 0.5, atol=1e-14)

    def test_sign_flip_symmetry(self):
        rng = np.random.default_rng(1)
        m = _make_model(rng.standard_normal(33), alpha=0.0)
        ts = np.linspace(0, 1, 51)
        x = rng.standard_normal((4, 51))
        p_pos = predict_proba(m, FunctionalDataset(ts, x))
        p_neg = predict_proba(m, FunctionalDataset(ts, -x))
        np.testing.assert_allclose(p_pos + p_neg, 1.0, atol=1e-12)

    def test_logit_linear_in_coefficients(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal(33) * 0.1
        ts = np.linspace(0, 1, 51)
        x = rng.standard_normal((3, 51))
        data = FunctionalDataset(ts, x)
        logit = lambda p: np.log(p / (1 - p))
        l1 = logit(predict_proba(_make_model(b), data))
        l2 = logit(predict_proba(_make_model(2 * b), data))
        np.testing.assert_allclose(l2, 2 * l1, rtol=1e-8)

    def test_training_probabilities_match_solver(self):
        rng = np.random.default_rng(3)
        basis = make_basis(1.0, 3, 6)
        ts = np.linspace(0, 1, 101)
        X = rng.standard_normal((80, 101))
        y = rng.integers(0, 2, 80).astype(float)
        data = FunctionalDataset(ts, X, y.astype(int))
        design = build_design(data, basis, 2)
        cfg = SolverConfig(lam=1.0, gamma=1e-3)
        res = fit(design.U, y, basis, design, cfg)
        m = SflrModel(basis=basis, fit=res, training_grid=ts, m=2)
        ref = clamped_probs(res.alpha + design.U @ res.b)
        np.testing.assert_allclose(predict_proba(m, data), ref, atol=1e-10)


class TestClassify:
    def test_tie_goes_to_one(self):
        np.testing.assert_array_equal(classify([0.5, 0.49, 1.0]), [1, 0, 1])

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(4)
        p = rng.random(200)
        prev = classify(p, threshold=0.1)
        for thr in (0.3, 0.5, 0.8):
            cur = classify(p, threshold=thr)
            assert np.all(cur <= prev)  # raising threshold never adds a 1
            prev = cur


class TestNullRegions:
    def test_empty_mask(self):
        m = _make_model(np.ones(33))
        assert null_regions(m) == []

    def test_single_run_merges(self):
        mask = np.zeros(30, bool)
        mask[10:21] = True  # subintervals 10..20
        m = _make_model(np.ones(33), null_mask=mask)
        regions = null_regions(m)
        assert len(regions) == 1
        a, b = regions[0]
        assert a == pytest.approx(10 / 30) and b == pytest.approx(21 / 30)

    def test_regions_sorted_disjoint_and_tile_mask(self):
        rng = np.random.default_rng(5)
        mask = rng.random(30) < 0.4
        m = _make_model(np.ones(33), null_mask=mask)
        regions = null_regions(m)
        for (a1, b1), (a2, b2) in zip(regions, regions[1:]):
            assert b1 < a2
        total = sum(b - a for a, b in regions)
        assert total == pytest.approx(mask.sum() / 30)


class TestJsonRoundTrip:
    def test_round_trip_preserves_fields(self, tmp_path):
        rng = np.random.default_rng(6)
        mask = rng.random(30) < 0.3
        m = _make_model(rng.standard_normal(33), alpha=-0.7, null_mask=mask)
        path = tmp_path / "model.json"
        model_mod.save(m, path)
        back = model_mod.load(path)
        np.testing.assert_array_equal(back.fit.b, m.fit.b)
        assert back.fit.alpha == m.fit.alpha
        np.testing.assert_array_equal(back.fit.null_mask, m.fit.null_mask)
        assert back.fit.lam == m.fit.lam and back.fit.gamma == m.fit.gamma
        assert back.basis.degree == m.basis.degree
        assert back.basis.interior_interval_count == 30
        assert back.m == m.m

    def test_round_trip_predictions_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        m = _make_model(rng.standard_normal(33), alpha=0.2)
        path = tmp_path / "model.json"
        model_mod.save(m, path)
        back = model_mod.load(path)
        data = FunctionalDataset(np.linspace(0, 1, 41),
                                 rng.standard_normal((6, 41)))
        np.testing.assert_array_equal(predict_proba(m, data),
                                      predict_proba(back, data))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


@st.composite
def _model_documents(draw):
    """A saved model's document with some keys dropped, replaced or shortened."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    M = draw(st.integers(1, 6))
    degree = draw(st.integers(1, 4))
    doc = json.loads(model_mod.to_json(_make_model(
        rng.standard_normal(M + degree), alpha=float(rng.standard_normal()),
        null_mask=rng.random(M) < 0.5, M=M, degree=degree,
        m=draw(st.integers(1, max(1, degree - 1))))))
    # the basis always starts at 0, so only a zero start can load
    doc["domain"][0] = draw(st.floats(0.0, 0.9))
    for key in draw(st.lists(st.sampled_from(sorted(doc)), unique=True)):
        action = draw(st.sampled_from(["drop", "replace", "shorten"]))
        if action == "drop":
            del doc[key]
        elif action == "shorten" and isinstance(doc[key], list):
            doc[key] = doc[key][:-1]
        else:
            doc[key] = draw(_JSON_VALUES)
    return doc


class TestFromJsonValidation:
    @given(_model_documents())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_documents_raise_only_data_error(self, doc):
        try:
            model = model_mod.from_json(json.dumps(doc))
        except DataError:
            return
        # whatever loads is a consistent model, and keeps the file's fields
        assert [0.0, model.basis.domain_end] == \
            [float(v) for v in doc["domain"]]
        np.testing.assert_array_equal(model.fit.b,
                                      np.asarray(doc["b"], dtype=float))
        M = model.basis.interior_interval_count
        assert model.fit.b.shape == (M + model.basis.degree,)
        assert model.fit.null_mask.shape == (M,)
        assert 1 <= model.m <= model.basis.degree - 1
        assert np.all(np.isfinite(model.fit.b))
        assert all(np.isfinite([model.fit.alpha, model.fit.lam,
                                model.fit.gamma]))

    @pytest.mark.parametrize("m", [3, 9])
    def test_derivative_order_above_degree_minus_one_is_data_error(self, m):
        # a cubic basis takes roughness orders 1 and 2 only
        doc = json.loads(model_mod.to_json(_make_model(np.zeros(33))))
        doc["m"] = m
        with pytest.raises(DataError, match=r"^model file 'm' must be .* "
                           rf"\[1, 2\], got {m}$"):
            model_mod.from_json(json.dumps(doc))
        doc["m"] = 1
        assert model_mod.from_json(json.dumps(doc)).m == 1
