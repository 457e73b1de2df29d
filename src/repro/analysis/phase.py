"""Phase extraction: lock-in demodulation and FFT-bin phasors.

The logic value of each frequency channel is carried by the *phase* of
its spin wave (0 -> logic 0, pi -> logic 1).  Two independent estimators
are provided; the fig4 benchmark cross-checks that they agree.
"""

import cmath

import numpy as np

from repro.errors import ReadoutError


def lock_in_vector(t, frequency, t_start=0.0, t_stop=None):
    """The ``(n_samples,)`` weights ``v`` of :func:`lock_in`, which is
    ``signal @ v``.  The analysis window is automatically truncated to an
    integer number of carrier periods to suppress edge leakage."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ReadoutError("t must be 1-D")
    if frequency <= 0:
        raise ReadoutError(f"frequency must be positive, got {frequency!r}")
    if t_stop is None:
        t_stop = t[-1]
    window = np.flatnonzero((t >= t_start) & (t <= t_stop))
    if window.size < 8:
        raise ReadoutError(
            f"analysis window [{t_start:.4g}, {t_stop:.4g}] s holds fewer "
            "than 8 samples"
        )
    tw = t[window]
    # Truncate to an integer number of periods.
    period = 1.0 / frequency
    n_periods = int((tw[-1] - tw[0]) / period)
    if n_periods < 1:
        raise ReadoutError(
            "analysis window shorter than one carrier period "
            f"({period:.4g} s) at {frequency:.4g} Hz"
        )
    keep = tw <= tw[0] + n_periods * period
    window = window[keep]
    tw = tw[keep]
    dt = tw[1] - tw[0]
    duration = tw[-1] - tw[0] + dt
    vector = np.zeros(t.shape[0], dtype=complex)
    vector[window] = np.exp(-2j * np.pi * frequency * tw) * (
        2.0 * dt / duration
    )
    return vector


def lock_in(t, signal, frequency, t_start=0.0, t_stop=None):
    """Complex lock-in amplitude of ``signal`` at ``frequency``.

    Computes ``(2/T) * integral signal(t) * exp(-i*2*pi*f*t) dt`` over
    the analysis window, so a signal ``a*sin(2*pi*f*t + phi)`` returns
    approximately ``a * exp(i*(phi - pi/2))`` -- i.e. the *sine-referenced*
    phase is ``angle + pi/2``.  Use :func:`phase_at` for the
    convention-corrected phase.

    ``signal`` may also be a 2-D ``(n_traces, n_samples)`` batch sharing
    the one time grid ``t``; the lock-in then returns an ``(n_traces,)``
    complex array (one matrix-vector product against
    :func:`lock_in_vector`).
    """
    vector = lock_in_vector(t, frequency, t_start, t_stop)
    signal = np.asarray(signal, dtype=float)
    if signal.ndim not in (1, 2) or signal.shape[-1] != vector.shape[0]:
        raise ReadoutError(
            "signal must be 1-D or (n_traces, n_samples) with a sample "
            "axis matching t"
        )
    return signal @ vector


def phase_at(t, signal, frequency, t_start=0.0, t_stop=None):
    """Sine-referenced phase [rad] of the ``frequency`` component.

    For ``signal = a*sin(2*pi*f*t + phi)`` this returns ``phi`` (wrapped
    to (-pi, pi]).  Raises :class:`~repro.errors.ReadoutError` when the
    component amplitude is indistinguishable from zero.
    """
    z = lock_in(t, signal, frequency, t_start=t_start, t_stop=t_stop)
    if abs(z) == 0.0:
        raise ReadoutError(
            f"no signal at {frequency:.4g} Hz: cannot extract a phase"
        )
    # lock_in returns a*exp(i*(phi - pi/2)); undo the sine reference.
    phase = cmath.phase(z) + 0.5 * np.pi
    return float((phase + np.pi) % (2.0 * np.pi) - np.pi)


def fft_phasor(t, signal, frequency):
    """Complex FFT-bin phasor nearest ``frequency`` (sine-referenced).

    An independent estimator of the same quantity as :func:`lock_in`,
    using the raw FFT bin.  Bin quantisation makes it slightly less
    accurate off-grid; the readout tests check both agree to within the
    decision margin.
    """
    t = np.asarray(t, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if t.shape != signal.shape or t.ndim != 1:
        raise ReadoutError("t and signal must be equal-length 1-D arrays")
    n = len(t)
    if n < 8:
        raise ReadoutError("need at least 8 samples")
    dt = t[1] - t[0]
    spectrum = np.fft.rfft(signal)
    frequencies = np.fft.rfftfreq(n, dt)
    index = int(np.argmin(np.abs(frequencies - frequency)))
    if index == 0:
        raise ReadoutError(
            f"frequency {frequency:.4g} Hz maps to the DC bin"
        )
    # FFT of sin gives -i/2 * a * exp(i*phi) * n in the positive bin;
    # multiply by i (i.e. add pi/2) to recover the sine-referenced phasor,
    # and account for the time origin t[0].
    z = spectrum[index] * 2.0 / n
    z *= np.exp(-2j * np.pi * frequencies[index] * t[0])
    return complex(z * 1j)


def decode_phase_to_bit(phase, threshold=0.5 * np.pi):
    """Map a phase [rad] to a logic bit: |phase| > threshold -> 1.

    Phase 0 encodes logic 0, phase pi encodes logic 1 (Section II); the
    default threshold puts the decision boundary exactly between them.
    """
    wrapped = (phase + np.pi) % (2.0 * np.pi) - np.pi
    return int(abs(wrapped) > threshold)
