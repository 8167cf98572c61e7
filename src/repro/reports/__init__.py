"""Metrics collection and reporting.

* :class:`repro.reports.metrics.MetricsCollector` — the paper's three
  headline metrics (delivery ratio, average hopcounts, overhead ratio) plus
  latency and drop accounting.
* :class:`repro.reports.contact_report.ContactReport` — contact counts,
  durations and intermeeting samples (Fig. 3 input).
* :class:`repro.reports.fate.MessageFateReport` — per-message fates: which
  messages were delivered, dropped (and why) or left undelivered.
* :class:`repro.reports.summary.RunSummary` — one run's results as a record.
"""
