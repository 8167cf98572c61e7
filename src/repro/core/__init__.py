"""SDSRP — the paper's contribution.

* :mod:`repro.core.priority` — the delivery-probability and priority math
  (Eqs. 4-13 of the paper): broadcasting functions for curves, and
  bit-identical scalar kernels for the policy's per-message ranking.
* :mod:`repro.core.intermeeting` — the fleet-shared λ estimator: Def. 2
  node-level gaps, scaled to E(I) by Eq. 3.
* :mod:`repro.core.dropped_list` — the gossiped dropped-message records
  (Fig. 5) used to estimate :math:`d_i(T_i)`.
* :mod:`repro.core.spray_tree` — the binary-spray-tree estimate of
  :math:`m_i(T_i)` (Eq. 15, Fig. 6).
* :mod:`repro.core.sdsrp` — the buffer policy combining all of the above
  (Algorithm 1).
* :mod:`repro.core.oracle` — a global-knowledge oracle supplying exact
  :math:`m_i, n_i` in place of the distributed estimates (ablation; the
  ``-oracle`` policy names).
"""
