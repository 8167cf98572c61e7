r"""Binary-spray-tree estimate of :math:`m_i(T_i)` (paper Eq. 15, Fig. 6).

Each message copy records the times its lineage was binary-sprayed
(:attr:`repro.net.message.Message.spray_times`).  Every spray created a
branch which, by the paper's model, keeps re-spraying every
:math:`E(I_{min})` seconds; a branch created at :math:`t_k` has therefore
grown to :math:`2^{\lfloor (t_{now} - t_k)/E(I_{min}) \rfloor}` nodes, and

.. math::

    m_i(T_i) = \sum_{k=1}^{n-1} 2^{\lfloor (t_n - t_k)/E(I_{min}) \rfloor} + 1

where :math:`t_n` is the **latest spray time of this copy's lineage** — not
the current time.  The trailing ``+1`` is the :math:`k = n` branch, whose
exponent is zero at that instant.  Freezing the reference at :math:`t_n` is
the paper's Eq. 15 exactly (Fig. 6 draws the estimated branches only up to
:math:`t_3`, the latest spray) and keeps the estimate conservative: a copy
that has not managed to spray recently does not assume the rest of the tree
kept doubling.  ``extrapolate=True`` switches to evaluating at the current
time instead (the aggressive reading; ablation — it saturates quickly under
congestion and collapses priorities to ties).

Either way the estimate is clamped to the only physically possible range,
``[len(spray_times), n_nodes - 1]``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import ConfigurationError

#: Exponent cap: 2**_MAX_EXP already exceeds any realistic fleet size, and
#: capping avoids huge-int construction for very old messages.
_MAX_EXP = 62


def estimate_infected(
    spray_times: Sequence[float],
    now: float,
    mean_min_intermeeting: float,
    n_nodes: int,
    extrapolate: bool = False,
) -> int:
    """Estimate m_i — nodes (excluding the source) that have seen the message.

    Parameters
    ----------
    spray_times:
        The copy's recorded binary-spray times (possibly empty: a source
        that never sprayed knows no other node has the message).
    now:
        Current simulation time; must be >= every spray time.  Only used as
        the branch-growth reference when ``extrapolate=True``; the paper's
        Eq. 15 references the latest spray time instead.
    mean_min_intermeeting:
        :math:`E(I_{min})` from the intermeeting estimator.
    n_nodes:
        Fleet size N (upper-bounds the estimate at N-1).
    extrapolate:
        Grow branches up to *now* instead of the last spray (ablation).
    """
    if mean_min_intermeeting <= 0:
        raise ConfigurationError(
            f"mean_min_intermeeting must be positive: {mean_min_intermeeting}"
        )
    if n_nodes < 2:
        raise ConfigurationError(f"need at least 2 nodes: {n_nodes}")
    if not spray_times:
        return 0
    latest = max(spray_times)
    if now < latest:
        raise ConfigurationError(
            f"spray time {latest} is in the future (now={now})"
        )
    t_ref = now if extrapolate else latest
    cap = n_nodes - 1
    total = 0
    for t_k in spray_times:
        exponent = int((t_ref - t_k) // mean_min_intermeeting)
        total += 1 << (exponent if exponent < _MAX_EXP else _MAX_EXP)
        if total >= cap:
            return cap
    # At least one distinct node per recorded spray event actually exists.
    return max(total, len(spray_times))
