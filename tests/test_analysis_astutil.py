"""Shared analyzer plumbing (``repro.analysis.astutil``), checked through the
purity (PU), process-safety (PS) and concurrency (CN) analyzers that use it:
one ``# lint: ignore[...]`` grammar and one scoped task-boundary discovery.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import (
    analyze_concurrency_sources,
    analyze_procsafety_sources,
    analyze_source,
)

# A task function that appends to a module global: PU003 and PS003 on the
# marked line.
TASK_SRC = """\
from repro.mapreduce import FnMapper

HITS = []


def body(ctx, split):
    HITS.append(split)  {comment}


MAPPER = FnMapper(body)
"""

# A guarded attribute written without its lock: CN002 on the marked line.
LOCK_SRC = """\
import threading


class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = []  # guarded-by: _lock

    def put(self, item):
        self._items.append(item)  {comment}
"""

#: family -> (analyzer over one module's text, source, fired rule, other rule)
FAMILIES = {
    "PU": (lambda text: analyze_source(text, "m.py"), TASK_SRC, "PU003", "PU002"),
    "PS": (
        lambda text: analyze_procsafety_sources([(text, "m.py")]),
        TASK_SRC,
        "PS003",
        "PS002",
    ),
    "CN": (
        lambda text: analyze_concurrency_sources([(text, "m.py")]),
        LOCK_SRC,
        "CN002",
        "CN001",
    ),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize(
    "comment, silenced",
    [
        ("", False),
        ("# lint: ignore", True),
        ("# lint: ignore - reason", True),
        ("# lint: ignore[{rule}]", True),
        ("# lint: ignore[{rule_lower}]", True),
        ("# lint: ignore [{rule}]", True),
        ("# lint: ignore[{other}, {rule}] - reason", True),
        # A list naming another rule, or a malformed comment, silences
        # nothing.
        ("# lint: ignore[{other}]", False),
        ("# lint: ignore[{other_lower}]", False),
        ("# lint: ignore [{other}]", False),
        ("# lint: ignore[{rule_dashed}]", False),
        ("# lint: ignore[{rule}", False),
        ("# lint: ignored-later", False),
    ],
)
def test_suppression_grammar(family, comment, silenced):
    analyze, source, rule, other = FAMILIES[family]
    comment = comment.format(
        rule=rule,
        rule_lower=rule.lower(),
        rule_dashed=f"{rule[:2]}-{rule[2:]}",
        other=other,
        other_lower=other.lower(),
    )
    text = source.format(comment=comment)
    line = next(
        i for i, ln in enumerate(text.splitlines(), 1) if "append" in ln
    )
    fired = [f for f in analyze(text) if f.rule == rule]
    if silenced:
        assert fired == []
    else:
        assert [f.location for f in fired] == [f"m.py:{line}"]


def _pu_and_ps(source: str):
    text = textwrap.dedent(source)
    return analyze_source(text, "m.py"), analyze_procsafety_sources([(text, "m.py")])


def test_fn_mapper_argument_resolves_in_scope_not_by_first_def():
    """``fn`` is ``build``'s parameter, not the unrelated module-level
    ``def fn`` that mutates a global."""
    pu, ps = _pu_and_ps(
        """\
        from repro.mapreduce import FnMapper

        HITS = []


        def fn(ctx, split):
            HITS.append(split)


        def build(fn):
            return FnMapper(fn)
        """
    )
    assert pu == []
    assert ps == []


def test_nested_fn_mapper_argument_is_not_shadowed_by_module_def():
    """The impure nested ``body`` is the one passed to ``FnMapper``; the
    pure module-level ``body`` must not hide it."""
    pu, ps = _pu_and_ps(
        """\
        from repro.mapreduce import FnMapper

        HITS = []


        def body(ctx, split):
            ctx.emit(split.index, 1)


        def build():
            def body(ctx, split):
                HITS.append(split)

            return FnMapper(body)
        """
    )
    assert [(f.rule, f.location) for f in pu] == [("PU003", "m.py:12")]
    assert [(f.rule, f.location) for f in ps] == [("PS003", "m.py:12")]


def test_fn_mapper_call_in_a_class_body_is_discovered():
    """Class-level statements are walked too, with the class's names in
    scope."""
    pu, ps = _pu_and_ps(
        """\
        from repro.mapreduce import FnMapper

        HITS = []


        class Jobs:
            def body(ctx, split):
                HITS.append(split)

            MAPPER = FnMapper(body)
        """
    )
    assert [(f.rule, f.location) for f in pu] == [("PU003", "m.py:8")]
    assert [(f.rule, f.location) for f in ps] == [("PS003", "m.py:8")]
