"""Closed-loop constrained tuning of recommendation value-model weights.

The package wires four layers together:

- problem:    hyperparameter points, objective and guardrail expressions
- deltastats: hourly lift estimates from delayed test/control feedback
- gp/optimizer: Gaussian-process beliefs, Thompson selection, proposals
- scheduler/simenv/harness: the round loop, a synthetic service, studies

Nothing is re-exported: callers import ``zotune.<module>``.
"""

from . import codec, deltastats, gp, harness, optimizer, problem, scheduler, simenv
