import math
import random
import re

import pytest

from rieszlogic.fuzzy import (
    DomainError,
    GRID_HEADER,
    grid_csv,
    iter_grid,
    logistic,
    logit,
    t_lukasiewicz,
    t_riesz,
)


def test_logistic_midpoint():
    assert logistic(0.0) == 0.5


def test_logit_midpoint():
    assert logit(0.5) == 0.0


def test_logistic_two():
    # 1 / (1 + e^-2), high-precision value 0.88079707797788244405...
    assert abs(logistic(2.0) - 0.8807970779778823) <= 1e-12


def test_logit_inverts_logistic():
    # below the saturation zone the round trip is tight
    for k in range(-160, 161):
        x = k / 10.0
        assert abs(logit(logistic(x)) - x) <= 1e-9


def test_logit_round_trip_saturation_bound():
    # near |x| = 30, logistic rounds to a double whose distance to 1 is
    # quantized in ulp(1) steps, capping the recoverable x at ~1e-3
    for k in range(-300, 301):
        x = k / 10.0
        assert abs(logit(logistic(x)) - x) <= 1.5e-3


def test_logit_domain():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            logit(p)


def test_lukasiewicz_examples():
    assert abs(t_lukasiewicz(0.7, 0.8) - 0.5) <= 1e-15
    assert t_lukasiewicz(0.3, 0.3) == 0.0
    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert t_lukasiewicz(a, 1.0) == a


def test_lukasiewicz_laws_sampled():
    rng = random.Random(41)
    for _ in range(300):
        a, b, c, d = (rng.random() for _ in range(4))
        assert t_lukasiewicz(a, b) == t_lukasiewicz(b, a)
        if a <= c and b <= d:
            assert t_lukasiewicz(a, b) <= t_lukasiewicz(c, d)
        assoc_left = t_lukasiewicz(a, t_lukasiewicz(b, c))
        assoc_right = t_lukasiewicz(t_lukasiewicz(a, b), c)
        assert abs(assoc_left - assoc_right) <= 1e-9


def test_riesz_fixed_point():
    assert t_riesz(0.5, 0.5) == 0.5


def test_riesz_homomorphism_point():
    # T_R(f(2), f(2)) = f(4); logistic(4) = 0.98201379003790844...
    p = logistic(2.0)
    assert abs(t_riesz(p, p) - 0.9820137900379085) <= 1e-9


def test_riesz_boundary_one():
    assert t_riesz(0.4, 1.0) == 1.0
    assert t_riesz(1.0, 0.4) == 1.0
    assert t_riesz(1.0, 1.0) == 1.0


def test_riesz_undefined_corners():
    with pytest.raises(DomainError):
        t_riesz(0.0, 1.0)
    with pytest.raises(DomainError):
        t_riesz(1.0, 0.0)


def test_riesz_zero_edge():
    assert t_riesz(0.0, 0.0) == 0.0
    assert t_riesz(0.0, 0.7) == 0.0


def test_riesz_domain_checked():
    with pytest.raises(DomainError):
        t_riesz(-0.2, 0.5)
    with pytest.raises(DomainError):
        t_lukasiewicz(0.5, 1.5)


def test_riesz_carries_addition():
    rng = random.Random(42)
    for _ in range(500):
        x = rng.uniform(-15, 15)
        y = rng.uniform(-15, 15)
        assert abs(t_riesz(logistic(x), logistic(y)) - logistic(x + y)) <= 1e-9


def test_riesz_commutative_monotone_associative_sampled():
    rng = random.Random(43)
    for _ in range(300):
        a, b, c, d = (rng.uniform(0.01, 0.99) for _ in range(4))
        assert t_riesz(a, b) == t_riesz(b, a)
        if a <= c and b <= d:
            assert t_riesz(a, b) <= t_riesz(c, d) + 1e-15
        assert abs(t_riesz(a, t_riesz(b, c)) - t_riesz(t_riesz(a, b), c)) <= 1e-9


def test_riesz_identity_law_fails():
    for k in range(1, 10):
        a = k / 10.0
        assert t_riesz(a, 1.0) == 1.0  # never a


# -- grid ------------------------------------------------------------------------

def test_grid_corners_tl():
    rows = list(iter_grid("tl", 1))
    assert rows == [(0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 1.0)]


def test_grid_corners_tr_undefined():
    rows = {(a, b): value for a, b, value in iter_grid("tr", 1)}
    assert rows[(0.0, 1.0)] is None
    assert rows[(1.0, 0.0)] is None
    assert rows[(1.0, 1.0)] == 1.0
    assert rows[(0.0, 0.0)] == 0.0


def test_grid_midpoint_tl():
    rows = {(a, b): value for a, b, value in iter_grid("tl", 2)}
    assert rows[(0.5, 0.5)] == 0.0


def test_grid_size_and_csv_shape():
    text = grid_csv("tr", 4)
    lines = text.strip().split("\n")
    assert lines[0] == GRID_HEADER
    assert len(lines) == 1 + 25
    empties = [line for line in lines[1:] if line.endswith(",")]
    assert len(empties) == 2


def test_grid_csv_17_digit_cells():
    text = grid_csv("tr", 3)
    row = next(line for line in text.split("\n") if line.startswith("0.33333333333333331,"))
    assert row.split(",")[0] == format(1 / 3, ".17g")


def test_grid_rejects_bad_args():
    with pytest.raises(ValueError):
        list(iter_grid("tl", 0))
    with pytest.raises(ValueError):
        list(iter_grid("nope", 3))


@pytest.mark.parametrize(
    "resolution, message",
    [
        (0, "resolution must be an int >= 1, not 0"),
        (-3, "resolution must be an int >= 1, not -3"),
        (2.5, "resolution must be an int >= 1, not 2.5"),
        (2.0, "resolution must be an int >= 1, not 2.0"),
        (True, "resolution must be an int >= 1, not True"),
        ("3", "resolution must be an int >= 1, not '3'"),
    ],
)
def test_grid_checks_its_resolution_at_the_call(resolution, message):
    # refused before any row is asked for
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        iter_grid("tl", resolution)
