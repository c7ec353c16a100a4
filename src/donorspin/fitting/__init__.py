"""Least-squares fitting for decay curves, relaxation rates, and spectra."""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".leastsq": ("COST_TOL", "LAMBDA_LIMIT", "MAX_ITERATIONS", "STEP_TOL", "FitResult",
                 "levenberg_fit"),
    ".models": ("FWHM_TO_SIGMA", "echo_decay", "exp_recovery", "gaussian_area",
                "gaussian_derivative_sum", "gaussian_sum", "t1_rate"),
    ".routines": ("ECHO_START_EXPONENTS", "T2_EFFECTIVELY_INFINITE_MS", "fit_echo_decay",
                  "fit_exp_recovery", "fit_gaussian_lines", "fit_t1_temperature", "rabi_peak",
                  "subtract_linear_baseline", "t2_effectively_infinite"),
})
