"""``diff_rules`` against the three rule walks it replaced.

The decision log, the provenance chain and the scrape loop each diffed two
rule maps with their own loop; the loops are frozen here as references.
Both logs now read one epoch reading of the pair, and the scrape loop its
own watcher's diff, and each must agree with its reference float for
float. Weight maps keep their
destinations sorted, as every ``RoutingRule`` and the routing table built
from one do. Since a push carries only the rules that depart from
local-first, every walk reads a key a map holds no rule for as
``{src: 1.0}``, so a key is never added or removed, only its route
changed.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rules import RoutingRule, RuleSet
from repro.mesh.routing_table import RouteKey
from repro.obs.decisions import DecisionLog
from repro.obs.provenance import ProvenanceLog
from repro.obs.reading import TableWatcher, diff_rules, read_epoch

EPSILON = 1e-9


def _order(key):
    return (key.service, key.traffic_class, key.src_cluster)


def decision_walk(prev: dict, new: dict):
    """The decision log's diff: (added, removed, changed, churn)."""
    changed = 0
    churn = 0.0
    for key in sorted(set(new) | set(prev), key=_order):
        local = {key.src_cluster: 1.0}
        old_weights = prev.get(key, local)
        new_weights = new.get(key, local)
        diff = sum(abs(new_weights.get(c, 0.0) - old_weights.get(c, 0.0))
                   for c in sorted(set(new_weights) | set(old_weights)))
        if diff > EPSILON:
            changed += 1
            churn += diff
    return 0, 0, changed, churn


def provenance_walk(prev: dict, rules: dict):
    """Provenance's diff: (per-class entries, itemised changes, churn)."""
    per_class: dict = {}
    changes: list = []
    total = 0.0
    for key in sorted(set(rules) | set(prev), key=_order):
        local = {key.src_cluster: 1.0}
        old = prev.get(key, local)
        new = rules.get(key, local)
        diff_map = {dst: new.get(dst, 0.0) - old.get(dst, 0.0)
                    for dst in sorted(set(new) | set(old))}
        churn = sum(abs(d) for d in diff_map.values())
        if churn <= EPSILON:
            continue
        entry = per_class.setdefault(
            key.traffic_class, {"added": 0, "removed": 0, "changed": 0,
                                "churn": 0.0, "shift": {}})
        entry["changed"] += 1
        entry["churn"] += churn
        total += churn
        for dst in sorted(diff_map):
            if abs(diff_map[dst]) > EPSILON:
                entry["shift"][dst] = (entry["shift"].get(dst, 0.0)
                                       + diff_map[dst])
        changes.append({"service": key.service, "class": key.traffic_class,
                        "src": key.src_cluster, "kind": "changed",
                        "old": old, "new": new, "churn": churn})
    changes.sort(key=lambda c: (-c["churn"], c["service"], c["class"],
                                c["src"]))
    return per_class, changes, total


def scrape_walk(previous: dict, rules: dict) -> float:
    """The scrape loop's L1 churn between two table snapshots."""
    churn = 0.0
    for key in sorted(set(rules) | set(previous), key=_order):
        local = {key.src_cluster: 1.0}
        old = previous.get(key, local)
        new = rules.get(key, local)
        churn += sum(abs(new.get(c, 0.0) - old.get(c, 0.0))
                     for c in sorted(set(new) | set(old)))
    return churn


KEYS = [RouteKey(service, cls, src)
        for service in ("A", "B") for cls in ("c1", "c2")
        for src in ("east", "west")]
DESTINATIONS = ("east", "north", "west")

#: a controller with no classes and no plan: the decision log reads the
#: reading's rule changes and nothing else
CONTROLLER = SimpleNamespace(app=SimpleNamespace(classes={}),
                             deployment=SimpleNamespace(cluster_names=[]),
                             last_result=None, last_observe_time=None)

weights = st.dictionaries(
    st.sampled_from(DESTINATIONS),
    st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    min_size=1).map(lambda w: dict(sorted(w.items())))
rule_maps = st.dictionaries(st.sampled_from(KEYS), weights)


@st.composite
def rule_map_pairs(draw):
    """Two rule maps, the second sharing, nudging or redrawing keys."""
    previous = draw(rule_maps)
    current = {}
    for key in KEYS:
        move = draw(st.sampled_from(("keep", "nudge", "redraw", "drop")))
        if move == "drop":
            continue
        if key in previous and move in ("keep", "nudge"):
            scale = 1.0 + draw(st.sampled_from((1e-12, 1e-10, 1e-3)))
            current[key] = ({d: w * scale for d, w in previous[key].items()}
                            if move == "nudge" else dict(previous[key]))
        elif move == "redraw":
            current[key] = draw(weights)
    return previous, current


@settings(max_examples=200, deadline=None)
@given(rule_map_pairs())
def test_diff_rules_agrees_with_every_frozen_walk(pair):
    previous, current = pair
    plan = RuleSet([RoutingRule(key.service, key.traffic_class,
                                key.src_cluster, tuple(w.items()))
                    for key, w in current.items()])
    reading = read_epoch(1.0, CONTROLLER, plan,
                         diff_rules(previous, current))

    row = DecisionLog().record(reading)
    assert (row.rules_added, row.rules_removed, row.rules_changed,
            row.weight_churn) == decision_walk(previous, current)

    record = ProvenanceLog().record_epoch(reading)
    assert (record.rule_deltas, record.rule_changes,
            record.weight_churn) == provenance_walk(previous, current)

    watcher = TableWatcher(SimpleNamespace(version=0, rules=lambda: previous))
    changes = watcher.look(SimpleNamespace(version=1, rules=lambda: current))
    scraped = 0.0
    for change in changes:
        scraped += change.churn
    assert scraped == scrape_walk(previous, current)
