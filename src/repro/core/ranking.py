"""The ranking engine (Section 4.2, Listing 1).

"Values of metadata fields are multiplied with the ranking factor, which
results in an overall ranking score that can be combined between metadata
providers."  The engine is deliberately dumb: a weighted sum over resolved
field values plus the provider's own base score.  All tuning lives in the
spec, so retuning ranking never touches this module — the paper's point.

**Stability: internal.**  Import through :mod:`repro` / the package
facades; this module's names may change without notice.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.core.spec.model import RankingWeight
from repro.providers.base import ScoredArtifact
from repro.providers.fields import FieldResolver, _as_number


@dataclass(frozen=True)
class RankedArtifact:
    """An artifact with its final combined score and the score breakdown."""

    artifact_id: str
    score: float
    base_score: float = 0.0
    contributions: tuple[tuple[str, float], ...] = ()


class Ranker:
    """Scores artifacts with spec-declared weights over resolved fields.

    The four entry points are thin shells over one columnar kernel,
    :meth:`_rank`.  It orders exactly as per-item :meth:`score` plus a
    sort on ``(-score, artifact_id)`` would; only the entries a caller
    gets back pay for a :meth:`score` breakdown.
    """

    def __init__(self, resolver: FieldResolver):
        self.resolver = resolver

    def score(
        self,
        artifact_id: str,
        weights: Sequence[RankingWeight],
        base_score: float = 0.0,
        fields: dict[str, float] | None = None,
    ) -> RankedArtifact:
        """Score one artifact.

        *fields* is an optional pre-resolved field map (providers attach
        one to each item); missing fields fall back to the resolver.
        """
        contributions = []
        total = base_score
        for weight in weights:
            if fields is not None and weight.field in fields:
                value = float(fields[weight.field])
            else:
                value = self.resolver.value(artifact_id, weight.field)
            contribution = value * weight.weight
            total += contribution
            contributions.append((weight.field, round(contribution, 6)))
        return RankedArtifact(
            artifact_id=artifact_id,
            score=round(total, 6),
            base_score=base_score,
            contributions=tuple(contributions),
        )

    def top_k(
        self,
        artifact_ids: Iterable[str],
        weights: Sequence[RankingWeight],
        limit: int,
        base_scores: "dict[str, float] | None" = None,
    ) -> list[RankedArtifact]:
        """The top-*limit* artifacts, each plus its *base_scores* entry
        (search's text score); ``limit <= 0`` returns none."""
        ids = list(artifact_ids)
        if limit <= 0:
            return []
        base_scores = base_scores or {}
        base = [base_scores.get(a, 0.0) for a in ids] if base_scores else None
        return [
            self.score(aid, weights, base_score=base_scores.get(aid, 0.0))
            for _, aid, _ in self._rank(ids, weights, limit, base)
        ]

    def top_k_items(
        self,
        items: Iterable[ScoredArtifact],
        weights: Sequence[RankingWeight],
        limit: int,
        live: bool = False,
    ) -> list[RankedArtifact]:
        """:meth:`rank_items` cut to *limit* (``<= 0`` keeps every item)."""
        return self._rank_items(list(items), weights, limit, live)

    def rank_items(
        self,
        items: Iterable[ScoredArtifact],
        weights: Sequence[RankingWeight],
        live: bool = False,
    ) -> list[RankedArtifact]:
        """Rank provider items; ties break on artifact id for determinism.

        An item's ``score`` is its base score, and numbers in its attached
        ``fields`` (not bools; NaN and ±inf count as 0.0) stand in for the
        resolver.  With ``live=True``, fields the resolver serves are
        re-resolved from the catalog instead of read from the items'
        attached snapshots — provider results may come from a cache, and
        a view truncated on snapshot values would pin stale usage numbers
        into its visible head.  Snapshots still win for provider-computed
        fields the resolver cannot serve (e.g. per-item match counts).
        """
        return self._rank_items(list(items), weights, 0, live)

    def rank_ids(
        self, artifact_ids: Iterable[str], weights: Sequence[RankingWeight]
    ) -> list[tuple[str, float]]:
        """Every id with its score, best first, without breakdowns."""
        keys = self._rank(list(artifact_ids), weights, 0)
        return [(aid, -key) for key, aid, _ in keys]

    def _rank_items(self, items, weights, limit, live) -> list[RankedArtifact]:
        keys = self._rank(
            [item.artifact_id for item in items],
            weights,
            limit,
            [item.score for item in items],
            [item.fields for item in items],
            live,
        )
        entries = []
        for _, aid, index in keys:
            item, fields = items[index], {}
            for weight in weights:
                value = self._attached(item.fields, weight.field, live)
                if value is not None:
                    fields[weight.field] = value
            entries.append(self.score(aid, weights, item.score, fields))
        return entries

    def _attached(self, fields: Mapping, field: str, live: bool):
        """The usable attached value of *field*, or None for the resolver."""
        raw = fields.get(field)
        if not isinstance(raw, (int, float)) or isinstance(raw, bool):
            return None
        if live and self.resolver.serves(field):
            return None
        return _as_number(raw)

    def _rank(
        self,
        ids: list[str],
        weights: Sequence[RankingWeight],
        limit: int,
        base: list[float] | None = None,
        attached: list[Mapping] | None = None,
        live: bool = False,
    ) -> list[tuple[float, str, int]]:
        """Keys ``(-round(score, 6), id, index)``, best first: the
        :func:`heapq.nsmallest` *limit* of them, or all sorted when
        ``limit <= 0``.  Each weighted field is one column: usable
        attached values, the rest from :meth:`FieldResolver.values_batch`.
        Scores sum in weight order from the base, as :meth:`score` does.
        """
        fields = list(dict.fromkeys(weight.field for weight in weights))
        if attached is None:
            columns = self.resolver.values_batch(ids, fields)
        else:
            columns = {}
            for field in fields:
                column = [self._attached(f, field, live) for f in attached]
                missing = [i for i, v in enumerate(column) if v is None]
                resolved = self.resolver.values_batch(
                    [ids[i] for i in missing], (field,)
                )[field]
                for index, value in zip(missing, resolved):
                    column[index] = value
                columns[field] = column
        totals = base or [0.0] * len(ids)
        for weight in weights:
            totals = [
                total + value * weight.weight
                for total, value in zip(totals, columns[weight.field])
            ]
        keys = [
            (-round(total, 6), aid, index)
            for index, (total, aid) in enumerate(zip(totals, ids))
        ]
        return heapq.nsmallest(limit, keys) if limit > 0 else sorted(keys)


def combine_rankings(
    rankings: Sequence[Sequence[RankedArtifact]],
) -> list[RankedArtifact]:
    """Combine per-provider rankings into one (§4.2).

    An artifact appearing in several providers' results accumulates its
    scores — numeric ranking is exactly what makes cross-provider
    combination well-defined, which is why the paper chose it.
    """
    merged: dict[str, RankedArtifact] = {}
    for ranking in rankings:
        for entry in ranking:
            current = merged.get(entry.artifact_id)
            if current is None:
                merged[entry.artifact_id] = entry
            else:
                merged[entry.artifact_id] = RankedArtifact(
                    artifact_id=entry.artifact_id,
                    score=round(current.score + entry.score, 6),
                    base_score=current.base_score + entry.base_score,
                    contributions=current.contributions + entry.contributions,
                )
    combined = list(merged.values())
    combined.sort(key=lambda r: (-r.score, r.artifact_id))
    return combined
