"""Rule descriptors of the invariant sanitizer (SAN0xx).

The SAN rules fire from in-line hooks in :mod:`repro.analysis.sanitize`,
never through the rule engine; they are registered here, under the
``"sanitizer"`` scope, purely for metadata (SARIF descriptors, rule
listings).  Keeping them apart lets ``import repro.analysis`` register
every pack without loading the sanitizer itself, which
``python -m repro.analysis.sanitize`` must be the first to load.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.engine import Diagnostic, Rule, Severity, register


def _descriptor_only(_ctx: object) -> Iterator[Diagnostic]:
    """Sanitizer rules fire from in-line hooks, never via ``run_rules``."""
    return iter(())


def _describe(rule_id: str, name: str, description: str) -> None:
    register(
        Rule(rule_id, name, Severity.ERROR, "sanitizer", description,
             _descriptor_only)
    )


_describe(
    "SAN001",
    "label-monotonicity",
    "Within one label-solver run, node labels only increase: any epoch "
    "that lowers a label has corrupted the fixpoint iteration.",
)
_describe(
    "SAN002",
    "label-epoch-fixpoint",
    "An SCC must converge within its declared epoch budget, and every "
    "converged gate label must be justified by its fanin maximum: "
    "big_l(v) <= l(v) always, and l(v) <= max(1, big_l(v) + 1) when no "
    "resynthesis hook or warm seed can have lifted it.",
)
_describe(
    "SAN003",
    "flow-conservation",
    "After a max-flow run, the net flow at every node other than the "
    "source and the sink must be zero.",
)
_describe(
    "SAN004",
    "capacity-respect",
    "Residual capacities must stay non-negative and every forward/"
    "reverse edge pair must preserve its original capacity sum.",
)
_describe(
    "SAN006",
    "reused-label-exactness",
    "Clean gates of a dirty-seeded repair must keep the adopted "
    "previous fixpoint verbatim: label >= 1, unchanged by the run, and "
    "still justified by the fanin maximum.",
)
