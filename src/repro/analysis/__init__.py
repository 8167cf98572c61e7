"""Analysis tools: distribution fitting (Fig. 3), priority curves (Fig. 4)
and the runtime invariant sanitizer."""
