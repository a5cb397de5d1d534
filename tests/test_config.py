"""Unit tests for repro.config.TreecodeParams."""

import numpy as np
import pytest

from repro.config import ASPECT_RATIO_LIMIT, DEFAULT_PARAMS, TreecodeParams


class TestValidation:
    def test_defaults_match_paper_scaling_study(self):
        # Sec. 4: theta = 0.8, degree n = 8 for the scaling studies.
        assert DEFAULT_PARAMS.theta == 0.8
        assert DEFAULT_PARAMS.degree == 8

    @pytest.mark.parametrize("theta", [0.0, -0.5, 1.5])
    def test_bad_theta(self, theta):
        with pytest.raises(ValueError, match="theta"):
            TreecodeParams(theta=theta)

    def test_theta_one_allowed(self):
        TreecodeParams(theta=1.0)

    @pytest.mark.parametrize("degree", [0, -3])
    def test_bad_degree(self, degree):
        with pytest.raises(ValueError, match="degree"):
            TreecodeParams(degree=degree)

    def test_bad_leaf_size(self):
        with pytest.raises(ValueError, match="max_leaf_size"):
            TreecodeParams(max_leaf_size=0)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            TreecodeParams(max_batch_size=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("degree", 2.5),
            ("degree", True),
            ("degree", 4.0),
            ("max_leaf_size", 2.5),
            ("max_leaf_size", False),
            ("max_batch_size", np.float64(50.7)),
            ("max_batch_size", "100"),
        ],
    )
    def test_tree_sizes_must_be_integers(self, field, value):
        # A float degree used to construct (with a fractional
        # n_interpolation_points) and fail deep inside compute().
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TreecodeParams(**{field: value})

    @pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3)])
    def test_numpy_integers_accepted(self, value):
        p = TreecodeParams(
            degree=value, max_leaf_size=value, max_batch_size=value
        )
        assert p.n_interpolation_points == 64

    def test_bad_dtype(self):
        with pytest.raises(ValueError, match="dtype"):
            TreecodeParams(dtype=np.int32)

    def test_float32_allowed(self):
        p = TreecodeParams(dtype=np.float32)
        assert p.dtype is np.float32

    def test_no_batch_mac_switch(self):
        # The MAC is always applied per batch; max_batch_size=1 is the
        # per-target MAC.  A switch that nothing read is not accepted.
        with pytest.raises(TypeError, match="batch_mac"):
            TreecodeParams(batch_mac=False)


class TestProperties:
    def test_n_interpolation_points(self):
        assert TreecodeParams(degree=8).n_interpolation_points == 729
        assert TreecodeParams(degree=1).n_interpolation_points == 8

    def test_with_replaces_field(self):
        p = TreecodeParams(theta=0.5)
        q = p.with_(degree=3)
        assert q.theta == 0.5 and q.degree == 3
        assert p.degree == TreecodeParams().degree  # original untouched

    def test_frozen(self):
        p = TreecodeParams()
        with pytest.raises(Exception):
            p.theta = 0.1  # type: ignore[misc]

    def test_aspect_ratio_limit_is_sqrt2(self):
        assert ASPECT_RATIO_LIMIT == pytest.approx(np.sqrt(2.0))
