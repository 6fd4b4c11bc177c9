"""The in-package DOP853 stepper against scipy's solve_ivp, the code it ports.

scipy is imported only here, as the oracle: the stepper must take the same
steps and give the same bits.  The device-level parity checks are in
test_fwm.py, next to the small-device fixtures they use.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kitwpa import dop853
from kitwpa.dop853 import MIN_RTOL, solve_ivp

SRC = Path(__file__).resolve().parents[1] / "src"


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


def scipy_solve(*args, **kwargs):
    from scipy.integrate import solve_ivp as reference
    return reference(*args, method="DOP853", **kwargs)


def recording(fun):
    """fun, and the list of the t of every call to it, in call order: the
    times of every stage of every step tried."""
    times = []

    def wrapped(t, y):
        times.append(t)
        return fun(t, y)
    return wrapped, times


def steps_of(sol) -> int:
    """The accepted steps of a scipy solve without t_eval."""
    return sol.t.size - 1


def test_tableau_is_scipys():
    from scipy.integrate._ivp import dop853_coefficients as ref

    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER",
                 "C", "A", "B", "E3", "E5", "D"):
        assert same_bits(getattr(dop853, name), getattr(ref, name)), name


ROTATION = np.array([1.0, 2.0, -3.0])


def damped_rotation(t, y):
    return 1j * ROTATION * y - 0.1 * t * y


@pytest.mark.parametrize("first_step", [None, 0.3])
def test_complex_solve_and_dense_output_match_scipy(first_step):
    y0 = np.array([1 + 0j, 0.5j, -1.0])
    kwargs = dict(rtol=1e-8, atol=1e-10, first_step=first_step)
    dense = scipy_solve(damped_rotation, (0.5, 7.0), y0, dense_output=True,
                        **kwargs)
    # sorted points: both ends, every step boundary (each taken from the
    # step that ends there) and points inside the steps
    t = np.unique(np.concatenate([
        np.random.default_rng(1).uniform(0.5, 7.0, 50), dense.t]))
    assert t[0] == 0.5 and t[-1] == 7.0
    fun, ours_t = recording(damped_rotation)
    ours = solve_ivp(fun, (0.5, 7.0), y0, t_eval=t, **kwargs)
    fun, ref_t = recording(damped_rotation)
    ref = scipy_solve(fun, (0.5, 7.0), y0, t_eval=t, **kwargs)
    assert ours.success and ours.nfev == ref.nfev
    assert same_bits(ours_t, ref_t)
    assert ours.steps == steps_of(dense)
    assert same_bits(ours.h_carry, dense.t[-2] - dense.t[-3])
    assert same_bits(ours.y_end, dense.y[:, -1])
    assert same_bits(ours.y_eval, ref.y)
    assert same_bits(ours.y_eval, dense.sol(t))
    # a step that holds no point skips the dense output's three extra
    # stages, as scipy's t_eval path does: two points need fewer RHS
    # evaluations than a dense solve, and no more than a solve without points
    plain = solve_ivp(damped_rotation, (0.5, 7.0), y0, **kwargs)
    two = solve_ivp(damped_rotation, (0.5, 7.0), y0, t_eval=[1.0, 6.0],
                    **kwargs)
    assert plain.y_eval is None and plain.nfev + 6 == two.nfev < dense.nfev
    assert two.nfev == scipy_solve(damped_rotation, (0.5, 7.0), y0,
                                   t_eval=[1.0, 6.0], **kwargs).nfev


def test_real_blow_up_fails_like_scipy():
    # y' = y^2 from y(0) = 1 reaches infinity at t = 1: the step size falls
    # below the spacing of the floats there
    def square(t, y):
        return y * y

    fun, ours_t = recording(square)
    ours = solve_ivp(fun, (0.0, 2.0), np.array([1.0]), rtol=1e-9, atol=1e-12)
    fun, ref_t = recording(square)
    ref = scipy_solve(fun, (0.0, 2.0), np.array([1.0]), rtol=1e-9, atol=1e-12)
    assert not ours.success and not ref.success
    assert ours.message == ref.message
    assert ours.nfev == ref.nfev
    assert same_bits(ours_t, ref_t)
    assert ours.steps == steps_of(ref)
    assert same_bits(ours.y_end, ref.y[:, -1])
    assert ours.y_end.dtype == float
    # the samples stop where the solve did
    t = np.linspace(0.0, 2.0, 9)
    ours = solve_ivp(square, (0.0, 2.0), np.array([1.0]), rtol=1e-9,
                     atol=1e-12, t_eval=t)
    ref = scipy_solve(square, (0.0, 2.0), np.array([1.0]), rtol=1e-9,
                      atol=1e-12, t_eval=t)
    assert ours.nfev == ref.nfev
    assert ours.y_eval.shape[1] < t.size and same_bits(ours.y_eval, ref.y)


def test_nan_step_fails_instead_of_spinning():
    # with atol 0, components that start at exactly zero make the error
    # scale zero and the first step NaN; a NaN derivative later in the solve
    # makes the error norm NaN.  Each used to reject steps forever
    y0 = np.array([1 + 0j, 0j, 0j])
    with np.errstate(invalid="ignore", divide="ignore"):
        zero_atol = solve_ivp(damped_rotation, (0.0, 1.0), y0, rtol=1e-9,
                              atol=0.0)

    def nan_after_half(t, y):
        return damped_rotation(t, y) * (np.nan if t > 0.5 else 1.0)

    with np.errstate(invalid="ignore"):
        nan_rhs = solve_ivp(nan_after_half, (0.0, 1.0), y0, rtol=1e-9,
                            atol=1e-12, first_step=0.1)
    for sol in (zero_atol, nan_rhs):
        assert not sol.success and sol.message == dop853.NAN_STEP
    # the solve ends at the last step before the NaN, which its state never
    # took in
    assert zero_atol.steps == 0 and zero_atol.h_carry is None
    assert nan_rhs.steps >= 1 and np.isfinite(nan_rhs.y_end).all()


@pytest.mark.parametrize("kwargs, message", [
    (dict(method="RK45"), "DOP853"),
    (dict(rtol=MIN_RTOL / 2), "rtol"),
    (dict(atol=-1.0), "atol"),
    (dict(first_step=0.0), "first_step"),
    (dict(first_step=2.0), "first_step"),
    (dict(t_span=(1.0, 1.0)), "increasing"),
    (dict(t_eval=[0.5, 0.25]), "t_eval"),
    (dict(t_eval=[0.5, 1.5]), "t_eval"),
])
def test_invalid_arguments_rejected(kwargs, message):
    args = dict(t_span=(0.0, 1.0), rtol=1e-6, atol=1e-9)
    args.update(kwargs)
    t_span = args.pop("t_span")
    with pytest.raises(ValueError, match=message):
        solve_ivp(damped_rotation, t_span, np.ones(3, complex), **args)


def test_cli_and_runner_import_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, kitwpa.cli, kitwpa.runner; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
