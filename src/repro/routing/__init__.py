"""Routing protocols.

The paper's protocol is binary Spray-and-Wait
(:class:`repro.routing.spray_and_wait.SprayAndWaitRouter`); Epidemic,
Direct-Delivery, First-Contact and Spray-and-Focus are provided as substrate
baselines (the related work the paper positions against).

Every router delegates scheduling order and drop decisions to a
:class:`repro.policies.base.BufferPolicy`, which is what the paper varies.
"""
