"""Every config knob is read somewhere.

A field nothing reads is a setting that silently changes nothing, however
well it is documented. This walks ``src/repro`` with ``ast`` and, for each
field of the configs below, looks for an attribute read of it off a
config: ``<...>.config.<field>``, ``config.<field>``, or ``self.<field>``
inside the config class itself. Validation in ``__post_init__`` is not a
use and does not count.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.core.controller.global_controller import GlobalControllerConfig
from repro.core.controller.rollout import RolloutConfig
from repro.obs.config import ObservabilityConfig
from repro.sim.autoscaler import AutoscalerConfig

SOURCE = Path(repro.__file__).parent
CONFIGS = (GlobalControllerConfig, ObservabilityConfig, RolloutConfig,
           AutoscalerConfig)


class _ConfigReads(ast.NodeVisitor):
    """Collects ``(owner, attribute)`` reads: owner ``None`` for a read off
    anything named ``config``, else the config class reading ``self``."""

    def __init__(self, classes: set[str]) -> None:
        self.classes = classes
        self.reads: set[tuple[str | None, str]] = set()
        self._class: str | None = None
        self._function: str | None = None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        outer, self._class = self._class, node.name
        self.generic_visit(node)
        self._class = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer, self._function = self._function, node.name
        self.generic_visit(node)
        self._function = outer

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            base = node.value
            if (isinstance(base, ast.Name) and base.id == "config"
                    or isinstance(base, ast.Attribute)
                    and base.attr == "config"):
                self.reads.add((None, node.attr))
            elif (isinstance(base, ast.Name) and base.id == "self"
                  and self._class in self.classes
                  and self._function != "__post_init__"):
                self.reads.add((self._class, node.attr))
        self.generic_visit(node)


@pytest.fixture(scope="module")
def reads() -> set[tuple[str | None, str]]:
    visitor = _ConfigReads({config.__name__ for config in CONFIGS})
    for path in sorted(SOURCE.rglob("*.py")):
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
    return visitor.reads


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.__name__)
def test_every_config_field_is_read(config, reads):
    dead = [field.name for field in dataclasses.fields(config)
            if (None, field.name) not in reads
            and (config.__name__, field.name) not in reads]
    assert not dead, f"{config.__name__} fields nothing reads: {dead}"
