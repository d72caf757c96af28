"""Static plan validation (RA301–RA307) for queries and plan IR.

Run *before* execution, these checks catch the plan-level mistakes that
would otherwise surface as silently-wrong join results deep inside a
benchmark sweep:

* **RA301** — a required (output) attribute is covered by no atom: the
  query hypergraph has no edge cover, the AGM bound is undefined and the
  Generic Join has nothing to intersect for that attribute.
* **RA302** — the total order γ is not a permutation of the query's
  attributes (missing, duplicated or stray attributes).
* **RA303** — a supplied fractional edge cover is infeasible for the AGM
  bound (negative weight, unknown edge, or an undercovered vertex).
* **RA304** — relation/schema inconsistency: an atom without a relation,
  or a relation whose arity/attributes disagree with its atom.
* **RA305** — duplicate atom aliases (self-join occurrences must be
  distinguishable).
* **RA306** — compiled-plan index-spec inconsistency
  (:func:`validate_join_plan`): a spec whose permutation does not match
  its attribute count, an atom with no (or more than one) spec, or a
  spec for an alias the query does not contain.
* **RA307** — a compiled plan carrying anything but the frontier's
  resolved algorithm/engine (``"auto"`` and its other name
  ``"unified"`` must be resolved by the plan stage, and the paper's
  tuple drivers have no plan: an executor dispatching another name
  would mis-execute).

Feasibility of a given cover needs no LP — it is a linear scan — so this
module stays dependency-free and cheap enough for
:func:`repro.joins.executor.join` to run it on every call in debug mode
(``debug=True`` or ``REPRO_DEBUG=1``).  The RA306/RA307 checks accept
any object shaped like :class:`repro.engine.ir.JoinPlan` (duck-typed,
so this module never imports the engine package it validates).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.errors import PlanValidationError
from repro.planner.query import JoinQuery

_WEIGHT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PlanIssue:
    """One plan-level defect; ``code`` is an RA3xx rule."""

    code: str
    message: str

    def render(self) -> str:
        return f"{self.code}: {self.message}"


def validate_plan(query: JoinQuery,
                  order: "Sequence[str] | None" = None,
                  weights: "Mapping[str, float] | None" = None,
                  relations: "Mapping[str, object] | None" = None,
                  required_attributes: "Sequence[str] | None" = None,
                  ) -> list[PlanIssue]:
    """Every plan defect found; empty list means the plan is sound."""
    issues: list[PlanIssue] = []

    aliases = [atom.alias for atom in query.atoms]
    duplicates = sorted({a for a in aliases if aliases.count(a) > 1})
    if duplicates:
        issues.append(PlanIssue(
            "RA305",
            f"duplicate atom aliases {duplicates}; give self-join "
            "occurrences distinct aliases",
        ))

    covered: set[str] = set()
    for atom in query.atoms:
        covered.update(atom.attributes)
    required = tuple(required_attributes
                     if required_attributes is not None
                     else query.attributes)
    for attribute in required:
        if attribute not in covered:
            issues.append(PlanIssue(
                "RA301",
                f"attribute {attribute!r} is covered by no atom: the "
                "hypergraph has no edge cover and the AGM bound is "
                "undefined",
            ))

    if order is not None:
        issues.extend(_check_order(query, order))
    if weights is not None:
        issues.extend(_check_weights(query, weights))
    if relations is not None:
        issues.extend(_check_relations(query, relations))
    return issues


def _check_order(query: JoinQuery, order: Sequence[str]) -> list[PlanIssue]:
    issues: list[PlanIssue] = []
    order = list(order)
    expected = set(query.attributes)
    seen: set[str] = set()
    for attribute in order:
        if attribute in seen:
            issues.append(PlanIssue(
                "RA302",
                f"total order repeats attribute {attribute!r}",
            ))
        seen.add(attribute)
    stray = sorted(seen - expected)
    missing = sorted(expected - seen)
    if stray:
        issues.append(PlanIssue(
            "RA302",
            f"total order names attributes outside the query: {stray}",
        ))
    if missing:
        issues.append(PlanIssue(
            "RA302",
            f"total order misses query attributes: {missing} — γ must be "
            "a permutation of the query's attribute set",
        ))
    return issues


def _check_weights(query: JoinQuery,
                   weights: Mapping[str, float]) -> list[PlanIssue]:
    issues: list[PlanIssue] = []
    known = {atom.alias for atom in query.atoms}
    for edge, weight in weights.items():
        if edge not in known:
            issues.append(PlanIssue(
                "RA303",
                f"cover assigns weight to unknown edge {edge!r}",
            ))
        if weight < -_WEIGHT_TOLERANCE:
            issues.append(PlanIssue(
                "RA303",
                f"cover weight for edge {edge!r} is negative ({weight})",
            ))
    for attribute in query.attributes:
        total = sum(weights.get(atom.alias, 0.0)
                    for atom in query.atoms_with(attribute))
        if total < 1.0 - _WEIGHT_TOLERANCE:
            issues.append(PlanIssue(
                "RA303",
                f"fractional cover undercovers attribute {attribute!r} "
                f"(sum of incident weights {total:.6f} < 1): the AGM "
                "bound certificate is invalid",
            ))
    return issues


def _check_relations(query: JoinQuery,
                     relations: Mapping[str, object]) -> list[PlanIssue]:
    issues: list[PlanIssue] = []
    for atom in query.atoms:
        relation = relations.get(atom.alias)
        if relation is None:
            issues.append(PlanIssue(
                "RA304",
                f"no relation bound for atom {atom.alias!r}",
            ))
            continue
        arity = getattr(relation, "arity", None)
        if arity is not None and arity != atom.arity:
            issues.append(PlanIssue(
                "RA304",
                f"atom {atom.alias!r} binds {atom.arity} attributes but "
                f"its relation has arity {arity}",
            ))
        schema = getattr(relation, "schema", None)
        schema_attributes = tuple(getattr(schema, "attributes", ()) or ())
        if schema_attributes and set(schema_attributes) != set(atom.attributes):
            issues.append(PlanIssue(
                "RA304",
                f"atom {atom.alias!r} binds attributes {atom.attributes} "
                f"but its relation's schema carries {schema_attributes}",
            ))
    return issues


#: the resolved algorithm and engine a compiled plan carries: a plan
#: describes the frontier (never "auto"; the tuple drivers have none)
_RESOLVED_ALGORITHMS = ("generic",)
_RESOLVED_ENGINES = ("batch",)


def validate_join_plan(plan,
                       relations: "Mapping[str, object] | None" = None,
                       ) -> list[PlanIssue]:
    """RA306/RA307 checks over a compiled :class:`~repro.engine.ir.JoinPlan`.

    ``plan`` is duck-typed (``algorithm`` / ``engine`` / ``query`` /
    ``index_specs`` / ``total_order`` attributes) so the validator has
    no dependency on the engine package: resolved names (RA307), then
    the specs and the order (RA306).  With
    ``relations``, spec permutations are additionally checked against
    each relation's actual arity.
    """
    issues: list[PlanIssue] = []

    algorithm = getattr(plan, "algorithm", None)
    if algorithm not in _RESOLVED_ALGORITHMS:
        issues.append(PlanIssue(
            "RA307",
            f"plan carries unresolved or unknown algorithm {algorithm!r}; "
            f"a compiled plan must name one of {_RESOLVED_ALGORITHMS}",
        ))
    engine = getattr(plan, "engine", "")
    if engine not in _RESOLVED_ENGINES:
        issues.append(PlanIssue(
            "RA307",
            f"plan carries unresolved or unknown engine {engine!r}; "
            f"a compiled plan must name one of {_RESOLVED_ENGINES}",
        ))

    query = getattr(plan, "query", None)
    aliases = {atom.alias for atom in getattr(query, "atoms", ())}
    spec_issues, seen = _check_specs(
        aliases, tuple(getattr(plan, "index_specs", ())), relations)
    issues.extend(spec_issues)
    if seen != aliases:
        issues.append(PlanIssue(
            "RA306",
            f"plan must carry exactly one index spec per atom "
            f"{sorted(aliases)}, got {sorted(seen)}",
        ))
    issues.extend(_check_order(query, tuple(getattr(plan, "total_order",
                                                    ()))))
    return issues


def _check_specs(aliases: set,
                 specs: tuple,
                 relations: "Mapping[str, object] | None",
                 ) -> "tuple[list[PlanIssue], set[str]]":
    """Per-spec RA306 checks of a plan.

    Returns the issues plus the set of aliases carrying a spec (the
    caller compares it against the query's atoms).
    """
    issues: list[PlanIssue] = []
    seen: set[str] = set()
    for spec in specs:
        if spec.alias not in aliases:
            issues.append(PlanIssue(
                "RA306",
                f"index spec targets alias {spec.alias!r}, which the "
                "query does not contain",
            ))
        if spec.alias in seen:
            issues.append(PlanIssue(
                "RA306",
                f"alias {spec.alias!r} has more than one index spec",
            ))
        seen.add(spec.alias)
        if len(spec.permutation) != len(spec.attribute_order):
            issues.append(PlanIssue(
                "RA306",
                f"index spec for {spec.alias!r} permutes "
                f"{len(spec.permutation)} columns but orders "
                f"{len(spec.attribute_order)} attributes",
            ))
        if sorted(spec.permutation) != list(range(len(spec.permutation))):
            issues.append(PlanIssue(
                "RA306",
                f"index spec for {spec.alias!r} has permutation "
                f"{spec.permutation}, not a permutation of column "
                "positions",
            ))
        if relations is not None and spec.alias in (relations or {}):
            arity = getattr(relations[spec.alias], "arity", None)
            if arity is not None and len(spec.permutation) > arity:
                issues.append(PlanIssue(
                    "RA306",
                    f"index spec for {spec.alias!r} permutes "
                    f"{len(spec.permutation)} columns but its relation "
                    f"has arity {arity}",
                ))
    return issues, seen


def check_join_plan(plan,
                    relations: "Mapping[str, object] | None" = None) -> None:
    """Raise :class:`~repro.errors.PlanValidationError` on any IR defect."""
    issues = validate_join_plan(plan, relations=relations)
    if issues:
        summary = "; ".join(issue.render() for issue in issues)
        raise PlanValidationError(
            f"plan validation failed for {plan.query}: {summary}"
        )


def check_plan(query: JoinQuery,
               order: "Sequence[str] | None" = None,
               weights: "Mapping[str, float] | None" = None,
               relations: "Mapping[str, object] | None" = None,
               required_attributes: "Sequence[str] | None" = None) -> None:
    """Raise :class:`~repro.errors.PlanValidationError` on any defect."""
    issues = validate_plan(query, order=order, weights=weights,
                           relations=relations,
                           required_attributes=required_attributes)
    if issues:
        summary = "; ".join(issue.render() for issue in issues)
        raise PlanValidationError(
            f"plan validation failed for {query}: {summary}"
        )
